"""Shared fixtures: a reference run configuration and synthetic tower data."""

from __future__ import annotations

import copy
import csv

import numpy as np
import pytest

from gnbdim.config import load_config_dict
from gnbdim.density import DensityGrid, GridSpec, unproject
from gnbdim.ingest import RADIOS, Cells

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


@pytest.fixture(autouse=True)
def csv_field_limit_kept():
    """Fail a test that leaves csv.field_size_limit() changed, and put the
    limit back so that the tests after it run with the default."""
    limit = csv.field_size_limit()
    yield
    assert csv.field_size_limit(limit) == limit, "csv.field_size_limit() was left changed"


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


def towers(lon, lat, samples) -> Cells:
    """LTE towers of PLMN 310260 at the given coordinates and sample counts."""
    n = len(samples)
    return Cells(
        radio=np.full(n, RADIOS.index("LTE"), dtype=np.int8),
        plmn=np.full(n, "310260", dtype=object),
        area=np.full(n, 100, dtype=np.int64),
        cell=np.arange(n, dtype=np.int64),
        lon=np.array(lon, dtype=np.float64),
        lat=np.array(lat, dtype=np.float64),
        range_m=np.full(n, 500.0),
        samples=np.array(samples, dtype=np.int64),
        created=np.full(n, 1_600_000_000, dtype=np.int64),
        updated=np.full(n, 1_700_000_000, dtype=np.int64),
        avg_signal=np.full(n, np.nan),  # absent
    )


def tile_center_records(spec: GridSpec, samples: int) -> Cells:
    """One LTE tower at the center of every tile, ``samples`` each, row-major."""
    centers = [
        unproject((col + 0.5) * spec.tile_km, (row + 0.5) * spec.tile_km, spec)
        for row in range(spec.n_rows)
        for col in range(spec.n_cols)
    ]
    return towers([c[0] for c in centers], [c[1] for c in centers], [samples] * len(centers))


def full_raster(grid: DensityGrid) -> DensityGrid:
    """``grid`` with every row listed: its rows put back onto the full raster."""
    spec = grid.spec
    weight = np.zeros((spec.n_rows, spec.n_cols))
    towers = np.zeros((spec.n_rows, spec.n_cols), dtype=np.int64)
    rows = slice(None) if grid.rows is None else grid.rows
    weight[rows] = grid.weight
    towers[rows] = grid.towers
    return DensityGrid(spec=spec, weight=weight, towers=towers, n_outside=grid.n_outside)


def records_to_csv_text(records: Cells) -> str:
    """Render records in the 14-column ingest layout."""
    lines = [
        "radio,mcc,net,area,cell,unit,lon,lat,range,samples,changeable,created,updated,averageSignal"
    ]
    rows = zip(*(column.tolist() for column in vars(records).values()))
    for code, plmn, area, cell, lon, lat, range_m, samples, created, updated, signal in rows:
        signal = "" if signal != signal else repr(signal)
        lines.append(
            f"{RADIOS[code]},{plmn[:3]},{plmn[3:]},{area},{cell},,"
            f"{lon!r},{lat!r},{range_m!r},{samples},1,{created},{updated},{signal}"
        )
    return "\n".join(lines) + "\n"


@pytest.fixture
def dense_records(base_config) -> Cells:
    return tile_center_records(base_config.grid, samples=100)
