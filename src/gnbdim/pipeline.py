"""End-to-end orchestration: records -> density -> balance -> economics.

Everything here is deterministic for fixed inputs; the summary report is
serialized with sorted keys and differs between identical runs only in
its timestamp field.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from . import __version__
from .balance import DimensioningResult, iterate_balance
from .config import RunConfig
from .density import (
    DensityGrid,
    DeploymentArea,
    GridSpec,
    bin_records,
    find_5gda,
    subscriber_density,
    unproject,
)
from .economics import CostReport, cost_per_bit
from .errors import ZeroTrafficError
from .ingest import CellRecord, Cells, IngestReport, filter_records

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DimensionOutcome:
    grid: DensityGrid
    area: DeploymentArea
    rho: float
    result: DimensioningResult
    cost: CostReport | None
    sites_lonlat: list[tuple[float, float]]


def run_dimension(
    cfg: RunConfig, records: Cells | Sequence[CellRecord]
) -> DimensionOutcome:
    """Run the full pipeline over already-parsed records."""
    kept = filter_records(records, radio=cfg.radio, plmn=cfg.plmn, bbox=cfg.bbox)
    grid = bin_records(kept, cfg.grid)
    if grid.n_outside:
        log.info("%d records fall outside the grid", grid.n_outside)
    area = find_5gda(grid, cfg.w_cols, cfg.h_rows)
    rho = subscriber_density(area, cfg.subs_per_weight)
    log.info(
        "deployment area at (col %d, row %d), weight %.0f, density %.1f subs/km2",
        area.col0, area.row0, area.total_weight, rho,
    )

    result = iterate_balance(
        link=cfg.link,
        model=cfg.propagation,
        f_mhz=cfg.nr_config.fr.carrier_mhz,
        cfg=cfg.nr_config,
        traffic=cfg.traffic,
        rho_subs_per_km2=rho,
        area_km2=area.area_km2,
        thresholds=cfg.thresholds,
        sensitivity_prbs=cfg.sensitivity_prbs,
    )
    if not result.converged:
        log.warning(
            "load fixed point not converged after %d iterations "
            "(assumed %.3f, actual %.3f)",
            result.iterations, result.assumed_load, result.actual_load,
        )

    try:
        cost = cost_per_bit(result, result.cell_capacity_mbps, cfg.cost, cfg.duty_fraction)
    except ZeroTrafficError:
        cost = None

    sites = site_lattice(area, cfg.grid, result.deployment_radius_km)
    return DimensionOutcome(
        grid=grid, area=area, rho=rho, result=result, cost=cost, sites_lonlat=sites
    )


def site_lattice(
    area: DeploymentArea, spec: GridSpec, radius_km: float
) -> list[tuple[float, float]]:
    """Hexagonal site centers tessellating the deployment area.

    Pitch is sqrt(3) * R between neighbors in a row, rows are 1.5 * R
    apart with every other row offset by half a pitch; the lattice is
    anchored at the area's south-west corner so output is diffable.
    """
    if not math.isfinite(radius_km) or radius_km <= 0:
        return []
    pitch = math.sqrt(3.0) * radius_km
    x0 = area.col0 * spec.tile_km
    y0 = area.row0 * spec.tile_km
    x1 = x0 + area.w_cols * spec.tile_km
    y1 = y0 + area.h_rows * spec.tile_km

    centers = []
    j = 0
    y = y0
    while y <= y1 + 1e-9:
        x = x0 + (pitch / 2.0 if j % 2 else 0.0)
        while x <= x1 + 1e-9:
            centers.append(unproject(x, y, spec))
            x += pitch
        y += 1.5 * radius_km
        j += 1
    return centers


def sites_to_geojson(sites: list[tuple[float, float]], radius_km: float) -> dict:
    features = [
        {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [lon, lat]},
            "properties": {"site": i, "radius_km": radius_km},
        }
        for i, (lon, lat) in enumerate(sites)
    ]
    return {"type": "FeatureCollection", "features": features}


def _float_or_none(x: float) -> float | None:
    return None if (x is None or math.isinf(x) or math.isnan(x)) else x


def build_summary(
    cfg: RunConfig,
    ingest_report: IngestReport,
    outcome: DimensionOutcome,
    input_sha256: str,
) -> dict:
    r = outcome.result
    summary = {
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "input_sha256": input_sha256,
        "config": cfg.to_dict(),
        "ingest": ingest_report.to_dict(),
        "deployment_area": {
            "col0": outcome.area.col0,
            "row0": outcome.area.row0,
            "w_cols": outcome.area.w_cols,
            "h_rows": outcome.area.h_rows,
            "total_weight": outcome.area.total_weight,
            "area_km2": outcome.area.area_km2,
            "subscriber_density_per_km2": outcome.rho,
            "records_outside_grid": outcome.grid.n_outside,
        },
        "dimensioning": {
            "r_cov_km": r.r_cov_km,
            "r_cap_km": _float_or_none(r.r_cap_km),
            "mapl_db": r.mapl_db,
            "assumed_load": r.assumed_load,
            "actual_load": r.actual_load,
            "classification": r.classification.value,
            "n_sites_coverage": r.n_sites_coverage,
            "n_sites_capacity": r.n_sites_capacity,
            "n_sites_final": r.n_sites_final,
            "iterations": r.iterations,
            "converged": r.converged,
            "cell_capacity_mbps": r.cell_capacity_mbps,
            "max_subs_per_cell": r.max_subs_per_cell,
            "deployment_radius_km": _float_or_none(r.deployment_radius_km),
            "utilization": r.utilization,
        },
        "cost": None
        if outcome.cost is None
        else {
            "annual_cost": outcome.cost.annual_cost,
            "annual_bits": outcome.cost.annual_bits,
            "cost_per_bit": outcome.cost.cost_per_bit,
            "mean_utilization": outcome.cost.mean_utilization,
        },
    }
    return summary


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sha256_of(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
