"""Shared fixtures: a reference run configuration and synthetic tower data."""

from __future__ import annotations

import copy

import pytest

from gnbdim.config import load_config_dict
from gnbdim.density import GridSpec, unproject
from gnbdim.identifiers import Tac, parse_plmn
from gnbdim.ingest import CellRecord, Radio

# Reference urban scenario: 7x7 km2, FR1 at 3.5 GHz with a single 100 MHz
# eMBB bandwidth part, deep-indoor margins. Chosen so the converged plan is
# coverage-limited at roughly a 1 km cell radius.
BASE_CONFIG = {
    "nr": {
        "fr": "FR1",
        "carrier_ghz": 3.5,
        "channel_bw_mhz": 100,
        "guard_fraction": 0.1,
        "bwps": [{"mu": 1, "bw_mhz": 100, "purpose": "embb"}],
    },
    "link_budget": {
        "tx_power_dbm": 43.0,
        "tx_antenna_gain_dbi": 17.0,
        "tx_losses_db": 3.0,
        "rx_antenna_gain_dbi": 0.0,
        "rx_losses_db": 0.0,
        "noise_figure_db": 7.0,
        "required_sinr_db": 20.0,
        "shadow_margin_db": 9.0,
        "penetration_margin_db": 33.0,
        "sensitivity_prbs": 1,
    },
    "propagation": {"kind": "free_space"},
    "traffic": {
        "demand_per_sub_mbps": 1.0,
        "target_load": 1.0,
        "se_bps_per_hz": 4.0,
        "overhead_fraction": 0.14,
        "subs_per_weight": 1.0,
    },
    "balance": {
        "eps_radius": 0.10,
        "eps_load": 0.05,
        "max_iter": 100,
        "damping": 0.5,
        "eta": 0.6,
    },
    "cost": {
        "capex_per_site": 100000.0,
        "capex_amortization_years": 10.0,
        "opex_per_site_per_year": 10000.0,
        "duty_fraction": 0.35,
    },
    "grid": {
        "origin_lon": -87.7,
        "origin_lat": 41.8,
        "n_cols": 7,
        "n_rows": 7,
        "tile_km": 1.0,
    },
    "window": {"w_cols": 7, "h_rows": 7},
}


def set_key(doc: dict, dotted: str, value) -> dict:
    """``doc`` with the dotted key set to ``value``, sections made as needed."""
    *sections, key = dotted.split(".")
    target = doc
    for name in sections:
        target = target.setdefault(name, {})
    target[key] = value
    return doc


@pytest.fixture
def base_config_dict() -> dict:
    return copy.deepcopy(BASE_CONFIG)


@pytest.fixture
def base_config(base_config_dict):
    return load_config_dict(base_config_dict)


def tile_center_records(spec: GridSpec, samples: int) -> list[CellRecord]:
    """One LTE tower at the center of every tile, ``samples`` each."""
    plmn = parse_plmn("310260")
    records = []
    cell = 0
    for row in range(spec.n_rows):
        for col in range(spec.n_cols):
            lon, lat = unproject((col + 0.5) * spec.tile_km, (row + 0.5) * spec.tile_km, spec)
            records.append(
                CellRecord(
                    radio=Radio.LTE,
                    plmn=plmn,
                    area=Tac(100),
                    cell=cell,
                    lon=lon,
                    lat=lat,
                    range_m=500.0,
                    samples=samples,
                    created=1_600_000_000,
                    updated=1_700_000_000,
                )
            )
            cell += 1
    return records


def records_to_csv_text(records: list[CellRecord]) -> str:
    """Render records in the 14-column ingest layout."""
    lines = [
        "radio,mcc,net,area,cell,unit,lon,lat,range,samples,changeable,created,updated,averageSignal"
    ]
    for r in records:
        signal = "" if r.avg_signal is None else repr(r.avg_signal)
        lines.append(
            f"{r.radio.value},{r.plmn.mcc},{r.plmn.mnc},{r.area.code},{r.cell},,"
            f"{r.lon!r},{r.lat!r},{r.range_m!r},{r.samples},1,{r.created},{r.updated},{signal}"
        )
    return "\n".join(lines) + "\n"


@pytest.fixture
def dense_records(base_config) -> list[CellRecord]:
    return tile_center_records(base_config.grid, samples=100)


@pytest.fixture
def sparse_records(base_config) -> list[CellRecord]:
    return tile_center_records(base_config.grid, samples=10)
