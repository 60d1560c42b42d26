"""End-to-end orchestration: records -> density -> balance -> economics.

Everything here is deterministic for fixed inputs; the summary report is
serialized with sorted keys and differs between identical runs only in
its timestamp field.
"""

from __future__ import annotations

import contextlib
import hashlib
import json.encoder
import logging
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

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
from .errors import GnbdimError, ZeroTrafficError
from .ingest import Cells, IngestReport, filter_records

log = logging.getLogger(__name__)

MAX_SITES = 1_000_000


@dataclass(frozen=True)
class DimensionOutcome:
    grid: DensityGrid
    area: DeploymentArea
    rho: float
    result: DimensioningResult
    cost: CostReport | None
    sites_lonlat: SiteLattice


def locate_area(cfg: RunConfig, records: Cells) -> tuple[DensityGrid, DeploymentArea]:
    """Filter the records, bin them and find the deployment area."""
    kept = filter_records(records, radio=cfg.radio, plmn=cfg.plmn, bbox=cfg.bbox)
    grid = bin_records(kept, cfg.grid)
    if grid.n_outside:
        log.info("%d records fall outside the grid", grid.n_outside)
    return grid, find_5gda(grid, cfg.w_cols, cfg.h_rows)


def run_dimension(cfg: RunConfig, records: Cells) -> DimensionOutcome:
    """Run the full pipeline over already-parsed records."""
    grid, area = locate_area(cfg, records)
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

    try:
        cost = cost_per_bit(result, result.cell_capacity_mbps, cfg.cost, cfg.duty_fraction)
    except ZeroTrafficError:
        cost = None

    sites = site_lattice(area, cfg.grid, result.deployment_radius_km)
    return DimensionOutcome(
        grid=grid, area=area, rho=rho, result=result, cost=cost, sites_lonlat=sites
    )


@dataclass(frozen=True)
class SiteLattice:
    """Hexagonal site centers as rows of (lon, lat) floats.

    ``lats`` holds one latitude per row, south to north. Even rows (the
    first, the third, ...) share the longitudes ``even_lons``, west to
    east; odd rows share ``odd_lons``, half a pitch further east, which is
    empty when the area is narrower than half a pitch. ``len()`` and
    iteration give the sites row by row, each row west to east.
    """

    lats: tuple[float, ...] = ()
    even_lons: tuple[float, ...] = ()
    odd_lons: tuple[float, ...] = ()

    def __len__(self) -> int:
        n_odd = len(self.lats) // 2
        return (len(self.lats) - n_odd) * len(self.even_lons) + n_odd * len(self.odd_lons)

    def __iter__(self):
        runs = (self.even_lons, self.odd_lons)
        for j, lat in enumerate(self.lats):
            for lon in runs[j % 2]:
                yield lon, lat


def site_lattice(area: DeploymentArea, spec: GridSpec, radius_km: float) -> SiteLattice:
    """Hexagonal site centers tessellating the deployment area.

    Pitch is sqrt(3) * R between neighbors in a row, rows are 1.5 * R
    apart with every other row offset by half a pitch; the lattice is
    anchored at the area's south-west corner so output is diffable.
    Raises :class:`GnbdimError` when the lattice would hold more than
    ``MAX_SITES`` sites.
    """
    if not math.isfinite(radius_km) or radius_km <= 0:
        return SiteLattice()
    pitch = math.sqrt(3.0) * radius_km
    x0 = area.col0 * spec.tile_km
    y0 = area.row0 * spec.tile_km
    x1 = x0 + area.w_cols * spec.tile_km
    y1 = y0 + area.h_rows * spec.tile_km

    n_rows = (y1 - y0 + 1e-9) // (1.5 * radius_km) + 1
    n_cols = (x1 - x0 + 1e-9) // pitch + 1
    if n_rows * n_cols > MAX_SITES:
        raise GnbdimError(
            f"the site lattice at deployment radius {radius_km:g} km would hold "
            f"{n_rows * n_cols:.0f} sites ({n_rows:.0f} rows of {n_cols:.0f}), "
            f"over the {MAX_SITES}-site guard"
        )

    # One step at a time, as a per-site loop adds them: every site is the
    # same float it would be.
    def run(start: float, step: float, stop: float) -> list[float]:
        values = []
        while start <= stop + 1e-9:
            values.append(start)
            start += step
        return values

    even = run(x0, pitch, x1)
    odd = run(x0 + pitch / 2.0, pitch, x1)
    lon, lat = unproject(even + odd, run(y0, 1.5 * radius_km, y1), spec)
    lons = lon.tolist()
    return SiteLattice(tuple(lat.tolist()), tuple(lons[: len(even)]), tuple(lons[len(even):]))


@dataclass(frozen=True)
class SiteCollection:
    """Site centers with their common radius, for :func:`dump_json` to write.

    The document is a GeoJSON FeatureCollection with one Point feature
    per site; its properties are ``site`` (the index) and ``radius_km``.
    """

    sites: SiteLattice
    radius_km: float


def sites_to_geojson(sites: SiteLattice, radius_km: float) -> SiteCollection:
    """The ``sites.geojson`` document of a plan, as :func:`dump_json` takes it."""
    return SiteCollection(sites, radius_km)


def _float_or_none(x: float) -> float | None:
    return None if (x is None or math.isinf(x) or math.isnan(x)) else x


def build_summary(
    cfg: RunConfig,
    ingest_report: IngestReport,
    outcome: DimensionOutcome,
    input_sha256: str,
) -> dict:
    """The ``summary.json`` document of a run; its area, dimensioning and
    cost sections are new dicts of the fields of the outcome's records."""
    r = outcome.result
    return {
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "input_sha256": input_sha256,
        "config": cfg.to_dict(),
        "ingest": ingest_report.to_dict(),
        "deployment_area": {
            **vars(outcome.area),
            "subscriber_density_per_km2": outcome.rho,
            "records_outside_grid": outcome.grid.n_outside,
        },
        "dimensioning": {
            **vars(r),
            "classification": r.classification.value,
            "r_cap_km": _float_or_none(r.r_cap_km),
            "deployment_radius_km": _float_or_none(r.deployment_radius_km),
        },
        "cost": None if outcome.cost is None else dict(vars(outcome.cost)),
    }


def dump_json(obj) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2) + "\n"`` writes it.

    ``obj`` is built of dicts with ``str`` keys, lists, strs, ints, floats,
    bools and None; for those the text is byte for byte json's, including
    its ``NaN``/``Infinity`` spellings and its ASCII escapes. Any other type,
    subclasses included, raises ``TypeError``. With an indent, ``json.dumps``
    runs its pure-Python generator encoder on CPython < 3.13; this writes
    every piece into one list and joins it once. Circular references are
    not detected. A :class:`SiteCollection` is written as the
    FeatureCollection it stands for, one feature per site from a fixed
    template.
    """
    if type(obj) is SiteCollection:
        return _sites_text(obj)
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


# One feature of sites.geojson at its depth in the document, keys in
# sorted order; its lon, lat, radius and site index go where %s stands.
_SITE = """
    {
      "geometry": {
        "coordinates": [
          %s,
          %s
        ],
        "type": "Point"
      },
      "properties": {
        "radius_km": %s,
        "site": %s
      },
      "type": "Feature"
    }"""
_SITE_OPEN, _LON_TO_LAT, _LAT_TO_RADIUS, _RADIUS_TO_SITE, _SITE_CLOSE = _SITE.split("%s")
_SITES_HEAD = '{\n  "features": ['
_SITES_TAIL = '\n  ],\n  "type": "FeatureCollection"\n}\n'
_NO_SITES = '{\n  "features": [],\n  "type": "FeatureCollection"\n}\n'


def _sites_text(c: SiteCollection) -> str:
    """The document from the template's fixed pieces, written row by row.

    Each run's longitudes, each row's latitude and the radius are formatted
    once. A lattice's coordinates are finite, and so is the radius of a
    lattice with a site, so no text needs json's NaN/Infinity spellings.
    """
    lattice = c.sites
    if not lattice.lats:
        return _NO_SITES
    lat_to_site = _LAT_TO_RADIUS + float.__repr__(c.radius_km) + _RADIUS_TO_SITE
    # Three pieces a site: the previous site's close, its open and its lon;
    # its row's lat with the radius; its index.
    runs = [
        [_SITE_CLOSE + "," + _SITE_OPEN + lon + _LON_TO_LAT for lon in map(float.__repr__, lons)]
        for lons in (lattice.even_lons, lattice.odd_lons)
    ]
    heads: list[str] = []
    lats: list[str] = []
    for j, lat in enumerate(map(float.__repr__, lattice.lats)):
        run = runs[j % 2]
        heads += run
        lats += [lat + lat_to_site] * len(run)
    pieces = [None] * (3 * len(heads))
    pieces[0::3] = heads
    pieces[1::3] = lats
    pieces[2::3] = map(str, range(len(heads)))
    pieces[0] = _SITES_HEAD + _SITE_OPEN + float.__repr__(lattice.even_lons[0]) + _LON_TO_LAT
    return "".join(pieces) + _SITE_CLOSE + _SITES_TAIL


def _write(o, nl: str, out: list[str]) -> None:
    """Append ``o`` as JSON; ``nl`` is a newline plus the indent of o's line."""
    kind = type(o)
    if kind is float:
        text = float.__repr__(o)
        out.append(_FLOAT_SPECIALS.get(text, text))
    elif kind is str:
        out.append(_encode_ascii(o))
    elif kind is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep)
            out.append(_encode_ascii(k))
            out.append(": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif kind is int:
        out.append(int.__repr__(o))
    elif kind is bool:
        out.append("true" if o else "false")
    elif o is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


_encode_ascii = json.encoder.encode_basestring_ascii
_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def sha256_of(path: str | Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def write_outputs(
    out_dir: str | Path, outputs: dict[str, str | Callable[[Path], object]]
) -> list[Path]:
    """Write every named output into ``out_dir``, made if missing, or none.

    An output is a text, written as UTF-8, or a function that writes the
    file at the path it is given. Each goes to a temporary name in
    ``out_dir`` first, and all are renamed to their names only once every
    write has succeeded. On any exception the files this call wrote are
    removed, renamed ones included; an OSError becomes a
    :class:`GnbdimError` naming ``out_dir``, and any other exception
    propagates as it is. Returns the paths written, in the order given.
    """
    out = Path(out_dir)
    paths = [out / name for name in outputs]
    temps = [out / f".{name}.{os.getpid()}.tmp" for name in outputs]
    renamed: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for temp, output in zip(temps, outputs.values()):
            if callable(output):
                output(temp)
            else:
                temp.write_text(output, encoding="utf-8")
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
            renamed.append(path)
    except BaseException as exc:
        for path in (*temps, *renamed):
            with contextlib.suppress(OSError):
                path.unlink()
        if isinstance(exc, OSError):
            raise GnbdimError(f"cannot write output {out}: {exc}") from None
        raise
    return paths
