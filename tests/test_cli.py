import gzip
import json

import numpy as np
import pytest
from click.testing import CliRunner

from gnbdim.cli import main

from conftest import records_to_csv_text, set_key, tile_center_records

GOOD_ROW = "LTE,310,260,6699,12345678,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95"
HEADER = "radio,mcc,net,area,cell,unit,lon,lat,range,samples,changeable,created,updated,averageSignal"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def towers_csv(tmp_path, base_config):
    path = tmp_path / "towers.csv"
    path.write_text(
        records_to_csv_text(tile_center_records(base_config.grid, samples=100)),
        encoding="utf-8",
    )
    return path


@pytest.fixture
def config_file(tmp_path, base_config_dict, towers_csv):
    base_config_dict["input"] = str(towers_csv)
    base_config_dict["out"] = str(tmp_path / "out")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config_dict), encoding="utf-8")
    return path


class TestIngest:
    def test_five_rows_one_bad(self, runner, tmp_path):
        src = tmp_path / "in.csv"
        rows = [GOOD_ROW] * 4 + [GOOD_ROW.replace(",41.8,", ",95,")]
        src.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        result = runner.invoke(
            main, ["ingest", "--input", str(src), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["rows_read"] == 5
        assert report["rows_rejected"] == 1
        written = (tmp_path / "o" / "records.csv").read_text().strip().split("\n")
        assert len(written) == 1 + 4

    def test_missing_file_exits_2_and_names_path(self, runner, tmp_path):
        missing = tmp_path / "absent.csv"
        result = runner.invoke(main, ["ingest", "--input", str(missing)])
        assert result.exit_code == 2
        assert "absent.csv" in result.output

    def test_deterministic(self, runner, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(HEADER + "\n" + GOOD_ROW + "\n", encoding="utf-8")
        outputs = []
        for name in ("a", "b"):
            result = runner.invoke(
                main, ["ingest", "--input", str(src), "--out", str(tmp_path / name)]
            )
            assert result.exit_code == 0
            outputs.append(
                (result.output, (tmp_path / name / "records.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_filters_apply(self, runner, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(
            HEADER + "\n" + GOOD_ROW + "\n" + GOOD_ROW.replace("LTE", "GSM") + "\n",
            encoding="utf-8",
        )
        result = runner.invoke(
            main,
            ["ingest", "--input", str(src), "--out", str(tmp_path / "o"), "--radio", "LTE"],
        )
        assert result.exit_code == 0
        written = (tmp_path / "o" / "records.csv").read_text().strip().split("\n")
        assert len(written) == 2
        assert written[1].startswith("LTE,")

    def test_bad_header_exits_2(self, runner, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("lol,header\n" + GOOD_ROW + "\n", encoding="utf-8")
        result = runner.invoke(main, ["ingest", "--input", str(src)])
        assert result.exit_code == 2


def _non_utf8(path):
    path.write_bytes((HEADER + "\n" + GOOD_ROW + "\n").encode() + b"LTE,\xff\xfe\n")
    return path


def _corrupt_gz(path):
    data = bytearray(gzip.compress((HEADER + "\n" + GOOD_ROW + "\n").encode() * 50))
    data[-8] ^= 0xFF  # CRC-32 of the trailer
    path.write_bytes(bytes(data))
    return path


def _truncated_gz(path):
    data = gzip.compress((HEADER + "\n" + GOOD_ROW + "\n").encode() * 50)
    path.write_bytes(data[: len(data) // 2])
    return path


def _directory(path):
    path.mkdir()
    return path


class TestUnreadableInput:
    @pytest.fixture(params=[
        ("bad.csv", _non_utf8),
        ("bad.csv.gz", _corrupt_gz),
        ("cut.csv.gz", _truncated_gz),
        ("dir.csv", _directory),
    ], ids=["non-utf8", "corrupt-gz", "truncated-gz", "directory"])
    def bad_input(self, request, tmp_path):
        name, make = request.param
        return make(tmp_path / name)

    @pytest.mark.parametrize("command", ["ingest", "dimension"])
    def test_exits_2_with_one_error_line(self, runner, tmp_path, config_file, bad_input, command):
        args = ["--input", str(bad_input), "--out", str(tmp_path / "o")]
        if command == "dimension":
            args += ["--config", str(config_file)]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2, result.output
        lines = result.output.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert str(bad_input) in lines[0]


class TestDensity:
    def test_writes_grid_and_area(self, runner, tmp_path, config_file):
        result = runner.invoke(main, ["density", "--config", str(config_file)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        grid_lines = (out / "grid.csv").read_text().strip().split("\n")
        assert grid_lines[0] == "row,col,weight,towers"
        assert len(grid_lines) == 1 + 49
        doc = json.loads((out / "fivegda.geojson").read_text())
        assert doc["properties"]["total_weight"] == 4900.0

    def test_single_tower_window_contains_it(self, runner, tmp_path, base_config_dict, base_config):
        records = tile_center_records(base_config.grid, samples=9)
        record = records.take(np.arange(len(records)) == 10)  # tile (3, 1)
        src = tmp_path / "one.csv"
        src.write_text(records_to_csv_text(record), encoding="utf-8")
        base_config_dict["input"] = str(src)
        base_config_dict["out"] = str(tmp_path / "out")
        base_config_dict["window"] = {"w_cols": 2, "h_rows": 2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, ["density", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "out" / "fivegda.geojson").read_text())
        p = doc["properties"]
        assert p["total_weight"] == 9.0
        assert p["col0"] <= 3 < p["col0"] + p["w_cols"]
        assert p["row0"] <= 1 < p["row0"] + p["h_rows"]

    def test_window_too_large_exits_2(self, runner, config_file):
        result = runner.invoke(
            main, ["density", "--config", str(config_file), "--window", "9x9"]
        )
        assert result.exit_code == 2


class TestDimension:
    def test_reference_run(self, runner, tmp_path, config_file):
        result = runner.invoke(main, ["dimension", "--config", str(config_file)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        dim = summary["dimensioning"]
        assert dim["converged"] is True
        assert dim["n_sites_final"] == 19
        assert dim["classification"] == "balanced"
        assert summary["cost"]["cost_per_bit"] > 0
        sites = json.loads((tmp_path / "out" / "sites.geojson").read_text())
        assert sites["type"] == "FeatureCollection"
        assert len(sites["features"]) > 0

    def test_deterministic_modulo_timestamp(self, runner, tmp_path, base_config_dict, towers_csv):
        base_config_dict["input"] = str(towers_csv)
        texts = []
        for name in ("x", "y"):
            base_config_dict["out"] = str(tmp_path / name)
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
            result = runner.invoke(main, ["dimension", "--config", str(cfg)])
            assert result.exit_code == 0, result.output
            texts.append((tmp_path / name / "summary.json").read_text())
        strip = lambda t: [
            line for line in t.split("\n")
            if "timestamp" not in line and '"out"' not in line
        ]
        assert strip(texts[0]) == strip(texts[1])

    def test_rerun_from_echoed_config_reproduces_the_report(
        self, runner, tmp_path, config_file
    ):
        result = runner.invoke(main, ["dimension", "--config", str(config_file)])
        assert result.exit_code == 0, result.output
        summary_path = tmp_path / "out" / "summary.json"
        first = summary_path.read_text()
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(json.loads(first)["config"]), encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(echo)])
        assert result.exit_code == 0, result.output
        second = summary_path.read_text()
        strip = lambda t: [l for l in t.split("\n") if "timestamp" not in l]
        assert strip(first) == strip(second)

    def test_zero_traffic_is_coverage_only(self, runner, tmp_path, base_config_dict, base_config):
        records = tile_center_records(base_config.grid, samples=0)
        src = tmp_path / "silent.csv"
        src.write_text(records_to_csv_text(records), encoding="utf-8")
        base_config_dict["input"] = str(src)
        base_config_dict["out"] = str(tmp_path / "out")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        dim = summary["dimensioning"]
        assert dim["actual_load"] == 0.0
        assert dim["n_sites_capacity"] == 0
        assert dim["n_sites_final"] == dim["n_sites_coverage"]
        assert summary["cost"] is None

    def test_infeasible_budget_exits_3(self, runner, tmp_path, base_config_dict, towers_csv):
        base_config_dict["input"] = str(towers_csv)
        base_config_dict["out"] = str(tmp_path / "out")
        base_config_dict["link_budget"]["penetration_margin_db"] = 300.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(cfg)])
        assert result.exit_code == 3
        assert "NegativeMapl" in result.output

    def test_single_subscriber_overload_exits_3(self, runner, tmp_path, base_config_dict, towers_csv):
        base_config_dict["input"] = str(towers_csv)
        base_config_dict["traffic"]["demand_per_sub_mbps"] = 1000.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(cfg)])
        assert result.exit_code == 3
        assert "ZeroSubscribers" in result.output

    def test_bad_config_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{}", encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_window_override(self, runner, tmp_path, config_file):
        result = runner.invoke(
            main, ["dimension", "--config", str(config_file), "--window", "3x3"]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["deployment_area"]["w_cols"] == 3
        assert summary["deployment_area"]["area_km2"] == 9.0


class TestConfigErrors:
    """One case per class of bad config; each exits 2 naming the key."""

    @pytest.mark.parametrize("dotted, value, flags", [
        ("balance.eps_lod", 0.05, []),
        ("balance.eps_load", float("nan"), []),
        ("balance.max_iter", True, []),
        ("grid.n_cols", 7.9, []),
        ("link_budget.tx_power_dbm", "43", []),
        ("grid.origin_lat", 95, []),
        ("filters.bbox[0]", None, ["--bbox", "nan,0,1,1"]),
    ], ids=["unknown-key", "non-finite", "bool", "fractional-int", "wrong-type",
            "lat-range", "bbox-nan-flag"])
    def test_exits_2_with_one_error_line(
        self, runner, tmp_path, base_config_dict, towers_csv, dotted, value, flags
    ):
        base_config_dict["input"] = str(towers_csv)
        base_config_dict["out"] = str(tmp_path / "out")
        if not flags:
            set_key(base_config_dict, dotted, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(cfg), *flags])
        assert result.exit_code == 2, result.output
        lines = result.output.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert dotted in lines[0]
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()


def test_samples_beyond_float_range_is_bad_numeric(runner, tmp_path, base_config_dict, towers_csv):
    huge = "9" * 400
    rows = towers_csv.read_text(encoding="utf-8").rstrip("\n").split("\n")
    fields = rows[1].split(",")
    fields[9] = huge
    towers_csv.write_text("\n".join(rows + [",".join(fields)]) + "\n", encoding="utf-8")
    base_config_dict["input"] = str(towers_csv)
    base_config_dict["out"] = str(tmp_path / "out")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
    result = runner.invoke(main, ["dimension", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ingest"]["reject_reasons"] == {"BadNumeric": 1}
    assert summary["ingest"]["rows_kept"] == 49


@pytest.mark.parametrize("command", ["dimension", "density"])
def test_overflowing_tile_weights_exit_2(runner, tmp_path, base_config_dict, towers_csv, command):
    # Each count is finite, so both rows are kept; their sum is not.
    rows = towers_csv.read_text(encoding="utf-8").rstrip("\n").split("\n")
    for i in (1, 2):
        fields = rows[i].split(",")
        fields[9] = str(10**308)
        rows.append(",".join(fields))
    towers_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
    base_config_dict["input"] = str(towers_csv)
    base_config_dict["out"] = str(tmp_path / "out")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("error: binned samples overflow")
    assert not (tmp_path / "out").exists()


def test_filter_flags_are_written_into_the_echo(runner, tmp_path, config_file):
    result = runner.invoke(main, [
        "dimension", "--config", str(config_file),
        "--radio", "lte", "--plmn", "310260", "--bbox", "-88,41,-87,42", "--window", "3x3",
    ])
    assert result.exit_code == 0, result.output
    echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert echo["filters"] == {"radio": "LTE", "plmn": "310260", "bbox": [-88.0, 41.0, -87.0, 42.0]}
    assert echo["window"] == {"w_cols": 3, "h_rows": 3}
