import ast
import gzip
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gnbdim
from gnbdim.cli import main
from gnbdim.density import GridSpec, unproject

from conftest import (
    BASE_CONFIG, GOOD_ROW, HEADER, records_to_csv_text, set_key, tile_center_records, towers,
)


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

    @pytest.mark.parametrize("unit", ["", '"x"'], ids=["no-quote", "quote-after"])
    def test_an_unquoted_field_longer_than_the_csv_limit_is_read(self, runner, tmp_path, unit):
        """A 200000-character ``unit`` field, past csv.field_size_limit(), in a
        column the parser ignores: its row is kept, and so are the others,
        also where the next row's ``unit`` is quoted, so csv.reader splits
        the piece that holds the long field."""
        src = tmp_path / "big.csv"
        rows = [GOOD_ROW] * 7
        rows[3] = GOOD_ROW.replace(",12345678,,", ",12345678," + "u" * 200_000 + ",")
        rows[4] = GOOD_ROW.replace(",12345678,,", ",12345678," + unit + ",")
        src.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["ingest", "--input", str(src), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert (report["rows_read"], report["rows_kept"]) == (7, 7)


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


class TestUnwritableOutput:
    @pytest.fixture(params=["file", "directory"])
    def taken(self, request, tmp_path):
        """An --out that names a regular file, or whose output file name a
        directory has taken."""
        out = tmp_path / "o"
        if request.param == "file":
            out.write_text("", encoding="utf-8")
        else:
            for name in ("records.csv", "grid.csv", "summary.json"):
                (out / name).mkdir(parents=True)
        return out

    @pytest.mark.parametrize("command", ["ingest", "density", "dimension"])
    def test_exits_2_with_one_error_line(self, runner, towers_csv, config_file, taken, command):
        args = ["--input", str(towers_csv), "--out", str(taken)]
        if command != "ingest":
            args += ["--config", str(config_file)]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2, result.output
        lines = result.output.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write output {taken}: ")

    @pytest.mark.parametrize("command, taken", [
        ("dimension", "sites.geojson"), ("density", "fivegda.geojson"),
    ])
    def test_failed_run_leaves_no_output(self, runner, tmp_path, config_file, command, taken):
        # The first output would be written, the second not: neither may stay.
        out = tmp_path / "o"
        (out / taken).mkdir(parents=True)
        result = runner.invoke(main, [command, "--config", str(config_file), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: cannot write output {out}: ")
        assert [path.name for path in out.iterdir()] == [taken]
        assert not any((out / taken).iterdir())


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

    def test_mapl_past_the_largest_radius_exits_2(
        self, runner, tmp_path, base_config_dict, towers_csv
    ):
        base_config_dict["input"] = str(towers_csv)
        base_config_dict["out"] = str(tmp_path / "out")
        base_config_dict["link_budget"]["tx_power_dbm"] = 90
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error: link_budget gives a MAPL of 153.437 dB at zero interference margin, "
            "over the 143.331 dB path loss at 100 km and 3500 MHz\n"
        )
        assert not (tmp_path / "out").exists()

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

    def test_towers_across_the_antimeridian_land_in_the_window(
        self, runner, tmp_path, base_config_dict
    ):
        # The 7 km grid starts 0.05 degrees west of the antimeridian, so its
        # columns 6 and up lie east of it, at negative longitudes. The two
        # heavy towers sit in column 6.
        base_config_dict["grid"].update(origin_lon=179.95, origin_lat=0.0)
        spec = GridSpec(**base_config_dict["grid"])
        records = tile_center_records(spec, samples=1)
        heavy = unproject(np.array([6.5, 6.5]), np.array([2.5, 3.5]), spec)
        assert (heavy[0] < -179.99).all()
        csv_path = tmp_path / "towers.csv"
        csv_path.write_text(records_to_csv_text(towers(
            np.concatenate((records.lon, heavy[0])), np.concatenate((records.lat, heavy[1])),
            [*records.samples.tolist(), 1000, 1000],
        )), encoding="utf-8")
        base_config_dict.update(input=str(csv_path), out=str(tmp_path / "out"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(cfg), "--window", "2x2"])
        assert result.exit_code == 0, result.output
        area = json.loads((tmp_path / "out" / "summary.json").read_text())["deployment_area"]
        assert (area["col0"], area["row0"]) == (5, 2)
        assert area["total_weight"] == 2004.0
        assert area["records_outside_grid"] == 0
        sites = json.loads((tmp_path / "out" / "sites.geojson").read_text())["features"]
        assert all(-180 <= f["geometry"]["coordinates"][0] <= 180 for f in sites)


class TestConfigErrors:
    """One case per class of bad config; each exits 2 naming the key."""

    @pytest.mark.parametrize("dotted, value, flags", [
        ("balance.eps_lod", 0.05, []),
        ("balance.eps_load", float("nan"), []),
        ("balance.max_iter", True, []),
        ("grid.n_cols", 7.9, []),
        ("link_budget.tx_power_dbm", "43", []),
        ("grid.origin_lat", 95, []),
        ("grid.origin_lat", 90, []),
        ("grid.n_rows", 6000, []),  # 6000 km north of 41.8°
        ("filters.plmn", None, ["--plmn", "1234"]),
        ("filters.bbox[0]", None, ["--bbox", "nan,0,1,1"]),
        ("filters.bbox", [1, 0, 0, 1], []),
        ("filters.bbox", None, ["--bbox", "1,0,0,1"]),
        ("window.h_rows", 8, []),
        ("window.w_cols", None, ["--window", "8x2"]),
        ("propagation.gamma", 3, []),
        ("traffic.subs_per_weight", -1, []),
        ("nr.allowed_bandwidths", {"FR1": [100], "fr2": [50]}, []),
        ("nr.allowed_bandwidths.FR1", [], []),
        ("nr.allowed_bandwidths.FR1", [-5, 100], []),
        ("grid.n_cols", 40000, []),  # 40000 km of longitude at 41.8°: over 360°
        ("traffic.demand_per_sub_mbps", 1e-310, []),  # infinite subscribers per cell
        ("traffic.se_bps_per_hz", 1.7e308, []),  # infinite cell capacity
        # A cell capacity of 0.0 Mbps, which the error names as traffic.se_bps_per_hz.
        ("traffic", {**BASE_CONFIG["traffic"], "se_bps_per_hz": 5e-324,
                     "overhead_fraction": 0.9999999}, []),
        ("link_budget.sensitivity_prbs", 1e308, []),  # over the 250 PRBs of the part
        ("grid.tile_km", 1e-155, []),  # tile indices beyond int64
    ], ids=["unknown-key", "non-finite", "bool", "fractional-int", "wrong-type",
            "lat-range", "lat-pole", "north-edge-past-pole", "plmn-flag", "bbox-nan-flag",
            "bbox-reversed", "bbox-reversed-flag", "window-taller-than-grid",
            "window-flag-wider-than-grid", "free-space-abg-term", "subs-per-weight",
            "bandwidth-range-typo", "empty-bandwidth-table", "non-positive-bandwidth",
            "longitude-span-over-360", "subscribers-per-cell-overflow",
            "cell-capacity-overflow", "cell-capacity-zero", "sensitivity-over-part",
            "tile-too-small"])
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

    @pytest.mark.parametrize("command, flags, named", [
        ("ingest", ["--bbox", "1,0,0,1"], "filters.bbox"),
        ("density", ["--window", "8x2"], "window.w_cols"),
        ("dimension", ["--window", "2x8"], "window.h_rows"),
    ])
    def test_bad_filter_or_window_wins_over_a_missing_input(
        self, runner, tmp_path, config_file, command, flags, named
    ):
        missing = str(tmp_path / "absent.csv")
        args = ["--input", missing, "--out", str(tmp_path / "o"), *flags]
        if command != "ingest":
            args = ["--config", str(config_file), *args]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2, result.output
        lines = result.output.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {named} must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dotted, value, error", [
        ("propagation.alpha", 35, "propagation.alpha must be 0"),
        ("traffic.subs_per_weight", 0, "traffic.subs_per_weight must be > 0"),
        ("nr.allowed_bandwidths", {"fr1": [37, 100]},
         "unknown config key nr.allowed_bandwidths.fr1"),
        ("link_budget.tx_power_dbm", 1e300, "link_budget gives a MAPL of 1e+300 dB at zero "
         "interference margin, over the 143.331 dB path loss at 100 km and 3500 MHz"),
        # A step count that would run for good on a fixed point that does not converge.
        ("balance.max_iter", 1e308, "balance.max_iter must be in [1, 1000000], got 1e+308"),
    ])
    def test_bad_model_key_wins_over_a_missing_input(
        self, runner, tmp_path, base_config_dict, dotted, value, error
    ):
        base_config_dict["input"] = str(tmp_path / "absent.csv")
        base_config_dict["out"] = str(tmp_path / "o")
        set_key(base_config_dict, dotted, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        lines = result.output.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {error}")
        assert not (tmp_path / "o").exists()

    def test_duplicate_key_exits_2_with_one_error_line(self, runner, tmp_path, config_file):
        text = config_file.read_text(encoding="utf-8")
        config_file.write_text(
            text.replace('"demand_per_sub_mbps": 1.0',
                         '"demand_per_sub_mbps": 1.0, "demand_per_sub_mbps": 500.0'),
            encoding="utf-8",
        )
        result = runner.invoke(main, ["dimension", "--config", str(config_file)])
        assert result.exit_code == 2, result.output
        assert result.output == "error: duplicate config key demand_per_sub_mbps\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dotted, value", [
        ("cost.capex_amortization_years", 1e-320),
        ("cost.capex_per_site", 1.7e308),
    ])
    def test_non_finite_cost_exits_2_with_one_error_line(
        self, runner, tmp_path, base_config_dict, towers_csv, dotted, value
    ):
        base_config_dict["input"] = str(towers_csv)
        base_config_dict["out"] = str(tmp_path / "out")
        set_key(base_config_dict, dotted, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, ["dimension", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error: cost section gives 19 sites an annual cost of inf for "
            "5.40842e+16 annual bits; both must be finite\n"
        )
        assert not (tmp_path / "out").exists()


def _with_samples(towers_csv, *samples) -> None:
    """Append to the export a copy of its row i + 1 with samples[i]."""
    rows = towers_csv.read_text(encoding="utf-8").rstrip("\n").split("\n")
    for i, count in enumerate(samples):
        fields = rows[i + 1].split(",")
        fields[9] = str(count)
        rows.append(",".join(fields))
    towers_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize("command", ["dimension", "density"])
def test_huge_samples_rows_are_bad_numeric(runner, tmp_path, base_config_dict, towers_csv, command):
    # A count of 2**53 or more, past the float range or not, is rejected on
    # its own row, so it never reaches the grid: the outputs are those of the
    # export without it.
    base_config_dict["input"] = str(towers_csv)
    cfg = tmp_path / "cfg.json"
    outputs = {}
    for out in ("clean", "dirty"):
        if out == "dirty":
            _with_samples(towers_csv, "9" * 400, 10**308, 2**53)
        base_config_dict["out"] = str(tmp_path / out)
        cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        outputs[out] = {
            path.name: path.read_bytes() for path in (tmp_path / out).iterdir()
            if path.name != "summary.json"
        }
    assert outputs["dirty"] == outputs["clean"]
    if command == "dimension":
        summary = json.loads((tmp_path / "dirty" / "summary.json").read_text())
        assert summary["ingest"]["reject_reasons"] == {"BadNumeric": 3}
        assert summary["ingest"]["rows_kept"] == 49


@pytest.mark.parametrize("command", ["dimension", "density"])
def test_overflowing_tile_weights_exit_2(runner, tmp_path, base_config_dict, towers_csv, command):
    # Each count is below 2**53, so both rows are kept; their sum is not,
    # and past 2**53 sums of counts stop being exact.
    _with_samples(towers_csv, 2**52, 2**52)
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


def test_oversized_site_lattice_exits_2_without_output(tmp_path, base_config_dict):
    # 1000 km tiles make the 7x7 window about 4.9e7 km2; at the reference
    # radius of about 1.4 km that is some 9e6 sites. It runs in a child
    # process with a timeout, so a missing guard fails instead of hanging.
    # The grid starts at 30°S, so its 7000 km of rows end short of the pole.
    base_config_dict["grid"]["tile_km"] = 1000.0
    base_config_dict["grid"]["origin_lat"] = -30.0
    lon, lat = unproject(500.0, 500.0, GridSpec(**base_config_dict["grid"]))
    towers_csv = tmp_path / "towers.csv"
    towers_csv.write_text(records_to_csv_text(towers([lon], [lat], [100])), encoding="utf-8")
    base_config_dict["input"] = str(towers_csv)
    base_config_dict["out"] = str(tmp_path / "out")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")

    src = str(Path(gnbdim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "gnbdim.cli", "dimension", "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().split("\n")
    assert len(lines) == 1
    assert re.fullmatch(
        r"error: the site lattice at deployment radius 1\.4\d* km would hold \d{7} sites "
        r"\(\d+ rows of \d+\), over the 1000000-site guard",
        lines[0],
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("level, logs_info", [("basic_format", False), ("info", True)])
def test_log_level_from_environment(config_file, level, logs_info):
    # Only a level name sets the level; other text, even the name of another
    # logging constant, leaves it at WARNING.
    src = str(Path(gnbdim.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "GNBDIM_LOG": level,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "gnbdim.cli", "dimension", "--config", str(config_file)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert ("INFO gnbdim" in proc.stderr) is logs_info, proc.stderr


def test_a_fixed_point_that_does_not_converge_warns_once(tmp_path, config_file):
    # The undamped 2-cycle (damping 1, eta 0.99) stops at max_iter: the run
    # succeeds, and stderr holds one line with the iteration count and loads.
    doc = json.loads(config_file.read_text(encoding="utf-8"))
    doc["balance"].update(damping=1, eta=0.99, max_iter=50)
    config_file.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(gnbdim.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "GNBDIM_LOG": "WARNING",
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "gnbdim.cli", "dimension", "--config", str(config_file)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(
        r"warning: load fixed point did not converge after 50 iterations "
        r"\(assumed \d\.\d{3}, actual \d\.\d{3}\)\n",
        proc.stderr,
    ), proc.stderr


def test_traced_functions_exist():
    # bench/tracer.py rebinds each function in TRACED with a bare getattr,
    # so a renamed or deleted one breaks every traced run.
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"
    )
    assert traced
    for span, (module, attr) in traced.items():
        assert module.startswith("gnbdim."), span
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def _python(code: str, **env: str) -> str:
    """The output of ``code`` run in a fresh interpreter with ``env`` over an
    environment without OPENBLAS_NUM_THREADS."""
    src = str(Path(gnbdim.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**base, **env},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
def test_importing_the_cli_starts_no_openblas_threads():
    assert _python("import os, gnbdim.cli; print(len(os.listdir('/proc/self/task')))") == "1"


def test_a_preset_openblas_thread_count_is_kept():
    code = "import os, gnbdim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, OPENBLAS_NUM_THREADS="3") == "3"
