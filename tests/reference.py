"""The slow references the fast paths of ``gnbdim`` are checked against.

Each is written once, here, and the tests import it. Per reference: the
fast path it checks, how, and what of ``gnbdim`` it shares on purpose.

- ``reference_parse``: ``ingest._parse``, both splits, a row at a time; it
  shares only ``ingest``'s header, radio names, reasons and LTE cell limit.
- ``reference_read_outcome``: ``read_cells``, as ``read_outcome`` gives it;
  ``reference_parse`` over the file opened in text mode.
- ``csv_writer_cells``: ``write_cells``; ``csv.writer``, a row at a time.
- ``reference_bin_records``: ``bin_records``; a scatter-add in input order
  onto the full raster. It shares ``density.project``.
- ``reference_find_5gda``: ``find_5gda``; the full-table search.
- ``reference_iterate_balance``: ``iterate_balance``; each step from the
  whole link budget. It shares ``mapl_db``, ``invert_to_radius``,
  ``offered_load`` and the other model functions, ``final_plan`` and
  ``classify``.
- ``residual_scan_fixed_point``: ``iterate_balance``'s load; the load on a
  grid with the least residual. It shares the per-load model functions.
- ``reference_path_loss_db``: ``path_loss_db``; free space in its own form.
- ``reference_invert_to_radius``: ``invert_to_radius``; a bisection over
  ``path_loss_db``.
- ``reference_dump``: ``dump_json``; ``json.dumps``.
- ``reference_sites_dict``: ``sites_to_geojson``; the document as a dict.
- ``reference_lattice``: ``site_lattice``; one ``unproject`` per site.

``tests/test_acceptance.py`` keeps its own brute-force window search and
residual scan, so that the acceptance criteria share no code with these.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Iterable

import numpy as np

from gnbdim.balance import DimensioningResult, classify, final_plan, interference_margin_db
from gnbdim.capacity import capacity_radius, cell_capacity_mbps, offered_load
from gnbdim.coverage import (
    BRACKET_MAX_KM, BRACKET_MIN_KM, PropagationModel, invert_to_radius, mapl_db, path_loss_db,
)
from gnbdim.density import DensityGrid, DeploymentArea, GridSpec, project, unproject
from gnbdim.errors import GnbdimError
from gnbdim.ingest import (
    BAD_COORDINATE, BAD_NUMERIC, BAD_RADIO, BAD_SHAPE, EXPECTED_HEADER, LTE_CELL_LIMIT, RADIOS,
    Cells, read_cells,
)
from gnbdim.nr import prb_hz

# --- ingest ------------------------------------------------------------------

# A kept row: radio name, MCC+MNC, area, cell, lon, lat, range, samples,
# created, updated, averageSignal (NaN when absent).
Row = tuple[str, str, int, int, float, float, float, int, int, int, float]


class _RowError(GnbdimError):
    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason


def _parse_int(value: str, what: str, minimum: int = 0) -> int:
    try:
        n = int(value)
    except ValueError:
        raise _RowError(BAD_NUMERIC, f"{what}: not an integer: {value!r}") from None
    if not -2**63 <= n < 2**63:
        raise _RowError(BAD_NUMERIC, f"{what}: {n} outside int64")
    if n < minimum:
        raise _RowError(BAD_NUMERIC, f"{what}: {n} below {minimum}")
    return n


def _parse_float(value: str, what: str, reason: str = BAD_NUMERIC) -> float:
    try:
        x = float(value)
    except ValueError:
        raise _RowError(reason, f"{what}: not a number: {value!r}") from None
    if not math.isfinite(x):
        raise _RowError(reason, f"{what}: not finite: {value!r}")
    return x


def _parse_digits(text: str, what: str, lengths: tuple[int, ...]) -> str:
    if len(text) not in lengths:
        raise _RowError(BAD_NUMERIC, f"{what}: {text!r} is not {lengths} digits long")
    if not all("0" <= ch <= "9" for ch in text):
        raise _RowError(BAD_NUMERIC, f"{what}: {text!r} is not ASCII digits")
    return text


def _parse_mnc(value: str) -> str:
    text = value.strip()
    if len(text) == 1 and text.isdigit():
        text = "0" + text
    return _parse_digits(text, "net", (2, 3))


def _parse_row(row: list[str]) -> Row:
    if len(row) != len(EXPECTED_HEADER):
        raise _RowError(BAD_SHAPE, f"expected {len(EXPECTED_HEADER)} fields, got {len(row)}")

    radio = row[0].strip()
    if radio not in RADIOS:
        raise _RowError(BAD_RADIO, f"unknown radio {radio!r}")

    mcc = _parse_digits(row[1].strip(), "mcc", (3,))
    mnc = _parse_mnc(row[2])

    area = _parse_int(row[3].strip(), "area")
    if area > 0xFFFF:
        raise _RowError(BAD_NUMERIC, f"area: {area} exceeds 16-bit range")
    cell = _parse_int(row[4].strip(), "cell")
    if radio == "LTE" and cell >= LTE_CELL_LIMIT:
        raise _RowError(BAD_NUMERIC, f"cell: {cell} exceeds the 28-bit LTE cell identity")

    lon = _parse_float(row[6].strip(), "lon", BAD_COORDINATE)
    lat = _parse_float(row[7].strip(), "lat", BAD_COORDINATE)
    if not -180.0 <= lon <= 180.0:
        raise _RowError(BAD_COORDINATE, f"lon: {lon} outside [-180, 180]")
    if not -90.0 <= lat <= 90.0:
        raise _RowError(BAD_COORDINATE, f"lat: {lat} outside [-90, 90]")

    range_m = _parse_float(row[8].strip(), "range")
    if range_m < 0:
        raise _RowError(BAD_NUMERIC, f"range: {range_m} below 0")
    samples = _parse_int(row[9].strip(), "samples")
    if samples >= 2**53:
        raise _RowError(BAD_NUMERIC, f"samples: {samples} not below 2**53")
    created = _parse_int(row[11].strip(), "created")
    updated = _parse_int(row[12].strip(), "updated")

    signal_text = row[13].strip()
    avg_signal = math.nan if signal_text == "" else _parse_float(signal_text, "averageSignal")

    return (radio, mcc + mnc, area, cell, lon, lat, range_m, samples, created,
            updated, avg_signal)


def reference_parse(text: str | Iterable[str]) -> tuple[list[str], dict[str, int]]:
    """Row-at-a-time parse of an export, or of its lines, with a valid
    header row: the ``repr`` of each kept row and the count of each reject
    reason."""
    records, reasons = [], Counter()
    reader = csv.reader(io.StringIO(text) if isinstance(text, str) else text)
    next(reader)
    for row in reader:
        if not row:
            continue
        try:
            records.append(repr(_parse_row(row)))
        except _RowError as exc:
            reasons[exc.reason] += 1
    return records, dict(reasons)


def kept_and_reasons(cells: Cells, report) -> tuple[list[str], dict[str, int]]:
    """A parse's kept rows and reject reasons as ``reference_parse`` gives
    them, its counts checked: each row's columns as Python values, in field
    order, the radio by name."""
    assert report.rows_kept == len(cells)
    assert report.rows_read == len(cells) + sum(report.reject_reasons.values())
    radio, *columns = (column.tolist() for column in vars(cells).values())
    rows = zip([RADIOS[code] for code in radio], *columns)
    return [repr(row) for row in rows], report.reject_reasons


def read_outcome(path: Path):
    """:func:`kept_and_reasons` of ``read_cells``, or the text of its error."""
    try:
        return kept_and_reasons(*read_cells(path))
    except GnbdimError as exc:
        return str(exc)


def reference_read_outcome(path: Path):
    """``reference_parse`` over the file in text mode, or the error it
    raises."""
    opener = gzip.open if path.name.endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8-sig", newline="") as fh:
            return reference_parse(fh)
    except UnicodeDecodeError as exc:
        return exc


def csv_writer_cells(path: Path, records: Cells) -> None:
    """``write_cells`` as csv.writer wrote it, a row at a time."""
    rows = zip(*(column.tolist() for column in vars(records).values()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXPECTED_HEADER)
        writer.writerows(
            (RADIOS[code], plmn[:3], plmn[3:], area, cell, "", lon, lat, range_m,
             samples, "", created, updated, "" if signal != signal else signal)
            for code, plmn, area, cell, lon, lat, range_m, samples, created,
            updated, signal in rows
        )


# --- density -----------------------------------------------------------------


def reference_bin_records(records: Cells, spec: GridSpec) -> DensityGrid:
    """The full raster, by a scatter-add in input order."""
    weight = np.zeros((spec.n_rows, spec.n_cols))
    count = np.zeros((spec.n_rows, spec.n_cols), dtype=np.int64)
    x, y = project(records.lon, records.lat, spec)
    col, row = np.floor(x / spec.tile_km).astype(int), np.floor(y / spec.tile_km).astype(int)
    inside = (col >= 0) & (col < spec.n_cols) & (row >= 0) & (row < spec.n_rows)
    samples = np.array(records.samples, dtype=np.float64)[inside]
    with np.errstate(over="ignore"):  # an overflow shows in the total
        np.add.at(weight, (row[inside], col[inside]), samples)
    np.add.at(count, (row[inside], col[inside]), 1)
    return DensityGrid(spec=spec, weight=weight, towers=count, n_outside=int((~inside).sum()))


def reference_find_5gda(grid: DensityGrid, w_cols: int, h_rows: int) -> DeploymentArea:
    """The full-table search: both prefix and window-sum tables at once,
    over a grid that lists every row.

    It takes the same input, checked in the same order: the window fits,
    no weight has its sign bit set, the total is below 2**53, and every
    weight is whole.
    """
    weight = grid.weight
    rows, cols = weight.shape
    if not (1 <= w_cols <= cols and 1 <= h_rows <= rows):
        raise GnbdimError(
            f"window {w_cols}x{h_rows} does not fit the {cols}x{rows} grid"
        )
    if np.signbit(weight).any():
        negative = weight[np.signbit(weight)][0].item()
        raise GnbdimError(f"tile weights must not be negative, got {negative!r}")
    with np.errstate(over="ignore"):
        total = float(weight.sum())
    if not total < 2**53:
        raise GnbdimError(
            f"binned samples overflow: the grid's total weight is {total:.6g}, "
            "not below 2**53 = 9007199254740992, where sums of sample counts are exact"
        )
    fractions = weight[weight != np.floor(weight)]
    if fractions.size:
        raise GnbdimError(f"tile weights must be whole sample counts, got {fractions[0].item()!r}")
    prefix = np.zeros((rows + 1, cols + 1), dtype=np.float64)
    np.cumsum(weight, axis=0, out=prefix[1:, 1:])
    np.cumsum(prefix[1:, 1:], axis=1, out=prefix[1:, 1:])
    sums = prefix[h_rows:, w_cols:] - prefix[:-h_rows, w_cols:]
    sums -= prefix[h_rows:, :-w_cols]
    sums += prefix[:-h_rows, :-w_cols]
    flat = int(np.argmax(sums))  # row-major: smallest row0 first, then col0
    row0, col0 = divmod(flat, sums.shape[1])
    return DeploymentArea(
        col0=col0,
        row0=row0,
        w_cols=w_cols,
        h_rows=h_rows,
        total_weight=float(sums[row0, col0]),
        area_km2=w_cols * h_rows * grid.spec.tile_km**2,
    )


# --- balance -----------------------------------------------------------------


def reference_iterate_balance(link, model, f_mhz, cfg, traffic, rho_subs_per_km2, area_km2, th):
    """The fixed point with every step taken from the whole link budget:
    the margin put into a copy of ``link``, then ``mapl_db``,
    ``invert_to_radius`` and ``offered_load``."""
    capacity = cell_capacity_mbps(cfg, traffic)
    bw_hz = link.sensitivity_prbs * prb_hz(cfg.bwps[0].mu)
    if rho_subs_per_km2 > 0:
        r_cap = capacity_radius(capacity, traffic, rho_subs_per_km2)
        load = traffic.target_load
        converged = False
        for iterations in range(1, th.max_iter + 1):
            assumed = load
            margin = interference_margin_db(assumed, th.eta)
            mapl = mapl_db(replace(link, interference_margin_db=margin), bw_hz)
            r_cov = invert_to_radius(model, f_mhz, mapl)
            actual = offered_load(min(r_cov, r_cap), rho_subs_per_km2, traffic, capacity)
            if abs(actual - assumed) <= th.eps_load:
                converged = True
                break
            upper = 0.999 / th.eta if th.eta > 0 else math.inf
            load = assumed + th.damping * (min(max(actual, 0.0), upper) - assumed)
    else:
        r_cap = math.inf
        assumed = actual = 0.0
        mapl = mapl_db(replace(link, interference_margin_db=0.0), bw_hz)
        r_cov = invert_to_radius(model, f_mhz, mapl)
        iterations, converged = 0, True
    plan = final_plan(r_cov, r_cap, area_km2, rho_subs_per_km2, traffic, capacity)
    return DimensioningResult(
        r_cov_km=r_cov,
        r_cap_km=r_cap,
        assumed_load=assumed,
        actual_load=actual,
        classification=classify(r_cov, r_cap, th),
        iterations=iterations,
        converged=converged,
        mapl_db=mapl,
        cell_capacity_mbps=capacity,
        **vars(plan),
    )


def residual_scan_fixed_point(
    link, model, f_mhz, traffic, rho, r_cap, capacity, eta, bw_hz, step=0.005
):
    """The load grid point with the smallest self-consistency residual
    |offered(load) - load|."""
    best_load, best_res = None, None
    load = 0.0
    while load <= 0.995 + 1e-12:
        margin = interference_margin_db(load, eta)
        m = mapl_db(replace(link, interference_margin_db=margin), bw_hz)
        r_cov = invert_to_radius(model, f_mhz, m)
        actual = offered_load(min(r_cov, r_cap), rho, traffic, capacity)
        res = abs(actual - load)
        if best_res is None or res < best_res:
            best_load, best_res = load, res
        load += step
    return best_load


# --- coverage ----------------------------------------------------------------

BISECTION_REL_TOL = 1e-9


def reference_path_loss_db(model: PropagationModel, f_mhz: float, d_km: float) -> float:
    """Path loss with free space in its own textbook form."""
    if f_mhz <= 0:
        raise GnbdimError(f"frequency must be positive, got {f_mhz}")
    if d_km <= 0:
        raise GnbdimError(f"distance must be positive, got {d_km}")
    if model.kind == "free_space":
        return 32.45 + 20.0 * math.log10(f_mhz) + 20.0 * math.log10(d_km)
    # ABG referenced to d0 = 1 m and 1 GHz.
    return (
        model.beta_db
        + model.alpha * math.log10(d_km * 1000.0)
        + model.gamma * 10.0 * math.log10(f_mhz / 1000.0)
    )


def reference_invert_to_radius(model: PropagationModel, f_mhz: float, mapl_db: float) -> float:
    """Distance at which ``model`` reaches ``mapl_db``, by bisection.

    Path loss is strictly increasing in distance for both models, so the
    root in [BRACKET_MIN_KM, BRACKET_MAX_KM] is unique when it exists.
    """
    lo, hi = BRACKET_MIN_KM, BRACKET_MAX_KM
    if not path_loss_db(model, f_mhz, lo) <= mapl_db <= path_loss_db(model, f_mhz, hi):
        raise GnbdimError(
            f"MAPL {mapl_db:.2f} dB maps outside [{lo}, {hi}] km at {f_mhz} MHz"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if path_loss_db(model, f_mhz, mid) < mapl_db:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECTION_REL_TOL * mid:
            break
    return 0.5 * (lo + hi)


# --- pipeline ----------------------------------------------------------------


def reference_dump(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def reference_sites_dict(sites: list[tuple[float, float]], radius_km: float) -> dict:
    """The sites document as a dict, one feature per site."""
    features = [
        {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [lon, lat]},
            "properties": {"site": i, "radius_km": radius_km},
        }
        for i, (lon, lat) in enumerate(sites)
    ]
    return {"type": "FeatureCollection", "features": features}


def reference_lattice(
    area: DeploymentArea, spec: GridSpec, radius_km: float
) -> list[tuple[float, float]]:
    """The site lattice, projected one point at a time."""
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
