"""Golden outputs: byte-for-byte pins of the files the CLI writes.

The files under ``tests/golden/`` hold the CLI's output on the reference
scenario of ``conftest.py`` and on a mixed dirty export. A refactor leaves
them unchanged; a change that moves them says why and by how much.
Paths are relative to an isolated working directory, so the config echo
in ``summary.json`` is stable; only its timestamp is masked.
"""

import json
import re
from pathlib import Path

import pytest

from gnbdim.cli import main

from conftest import HEADER, records_to_csv_text, set_key, tile_center_records

GOLDEN = Path(__file__).parent / "golden"

# Kept rows cover whitespace, sign and underscore spellings, non-ASCII
# digits, MNC padding and widths, an absent signal and a negative zero.
# Among them, huge integers on a non-LTE radio are a reject, past int64;
# the rest hit every reject reason.
DIRTY_ROWS = [
    "LTE,310,260,6699,12345678,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95",
    " LTE , 310 , 260 , 6699 , 268435455 ,x, -87.61 , 41.81 , 1e3 , +5 ,0, 1_600_000_000 , 17 , -1e2 ",
    "GSM,310,1,0,100000000000000000000,,-87.62,41.82,0,100000000000000000000,1,0,0,",
    "UMTS,208,01,65535,7,,2.35,48.85,-0.0,٥,,1,2,0",
    "NR,310,410,12,١٢,,-87.63,41.83,250.5,9,,3,4,   ",
    "CDMA,310,026,1,2,,-180,-90,1.5,1,,5,6,-0.0",
    "",
    "LTE,310,260,6699,268435456,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95",
    "WIMAX,310,260,6699,1,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95",
    "lte,310,260,6699,1,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95",
    "LTE,310,260",
    "LTE,310,260,6699,1,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95,extra",
    "LTE,31,260,6699,1,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95",
    "LTE,310,2600,6699,1,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95",
    "LTE,310,٥,6699,1,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95",
    "LTE,310,260,65536,1,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95",
    "LTE,310,260,6699,-1,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95",
    "LTE,310,260,6699,1,,nan,41.8,1000,57,1,1600000000,1700000000,-95",
    "LTE,310,260,6699,1,,-87.6,90.5,1000,57,1,1600000000,1700000000,-95",
    "LTE,310,260,6699,1,,-87.6,41.8,inf,57,1,1600000000,1700000000,-95",
    "LTE,310,260,6699,1,,-87.6,41.8,1000,5.0,1,1600000000,1700000000,-95",
    "LTE,310,260,6699,1,,-87.6,41.8,1000,57,1,1600000000,1700000000,nan",
    "LTE,310,260,6699,x,,-87.6,lat,1000,57,1,1600000000,1700000000,-95",
    "LTE,310,260,6699,1,,-87.6,lat,x,57,1,1600000000,1700000000,-95",
]


def _golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def _mask_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "<masked>"', text)


@pytest.fixture
def scenario(runner, tmp_path, base_config_dict, base_config):
    """Reference towers and config in an isolated working directory."""
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
        cwd = Path(cwd)
        (cwd / "towers.csv").write_text(
            records_to_csv_text(tile_center_records(base_config.grid, samples=100)),
            encoding="utf-8",
        )
        base_config_dict["input"] = "towers.csv"
        base_config_dict["out"] = "out"
        (cwd / "run.json").write_text(json.dumps(base_config_dict), encoding="utf-8")
        yield cwd


def test_dimension_outputs(runner, scenario):
    result = runner.invoke(main, ["dimension", "--config", "run.json"])
    assert result.exit_code == 0, result.output
    summary = (scenario / "out" / "summary.json").read_text(encoding="utf-8")
    assert _mask_timestamp(summary).encode("utf-8") == _golden("summary.json")
    assert (scenario / "out" / "sites.geojson").read_bytes() == _golden("sites.geojson")


# The reference scenario with the cell-edge PRBs, the subscribers per
# sample, the duty fraction and the cost multiplier off their defaults.
NONDEFAULT = {
    "link_budget.sensitivity_prbs": 4,
    "traffic.subs_per_weight": 3.0,
    "cost.duty_fraction": 0.5,
    "cost.cost_multiplier": 2.5,
}


def test_dimension_outputs_off_the_defaults(runner, scenario):
    doc = json.loads((scenario / "run.json").read_text(encoding="utf-8"))
    for dotted, value in NONDEFAULT.items():
        set_key(doc, dotted, value)
    (scenario / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    result = runner.invoke(main, ["dimension", "--config", "run.json"])
    assert result.exit_code == 0, result.output
    summary = (scenario / "out" / "summary.json").read_text(encoding="utf-8")
    assert _mask_timestamp(summary).encode("utf-8") == _golden("summary_nondefault.json")
    assert (scenario / "out" / "sites.geojson").read_bytes() == _golden("sites_nondefault.geojson")


def test_density_outputs(runner, scenario):
    result = runner.invoke(main, ["density", "--config", "run.json"])
    assert result.exit_code == 0, result.output
    assert (scenario / "out" / "grid.csv").read_bytes() == _golden("grid.csv")
    assert (scenario / "out" / "fivegda.geojson").read_bytes() == _golden("fivegda.geojson")


@pytest.mark.parametrize(
    "name, flags",
    [
        ("ingest_all", []),
        ("ingest_filtered", ["--radio", "LTE", "--plmn", "310260",
                             "--bbox", "-88,41,-87,42"]),
    ],
)
def test_ingest_outputs(runner, tmp_path, name, flags):
    src = tmp_path / "dirty.csv"
    src.write_text(HEADER + "\n" + "\n".join(DIRTY_ROWS) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    result = runner.invoke(main, ["ingest", "--input", str(src), "--out", str(out), *flags])
    assert result.exit_code == 0, result.output
    assert result.output.encode("utf-8") == _golden(f"{name}.json")
    assert (out / "records.csv").read_bytes() == _golden(f"{name}.csv")
