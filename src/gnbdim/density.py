"""Traffic density rasterization and deployment-area selection.

Tower records are projected onto a local kilometer grid (equirectangular
around the grid origin; error is well under link-budget margins for
regions below ~100 km) and binned into tiles by their sample counts.
The deployment area is the fixed-size window of maximum total weight,
found exactly with 2-D prefix sums (a summed-area table; Crow, SIGGRAPH
1984); ties resolve to the south-west (smallest row, then smallest
column) so runs are reproducible. A grid holds only the tile rows that
some record falls in, so binning and the search work in O(occupied rows
* n_cols): a row whose weights are all +0.0 adds nothing to a prefix
sum. Weights are sums of sample counts, never negative; the search
rejects a weight whose sign bit is set, -0.0 included. It makes the
prefix rows one band of window anchors at a time, so beyond the grid it
holds at most twice _BAND_BYTES, whatever the window height, not two
full-grid tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GnbdimError
from .ingest import Cells

EARTH_RADIUS_KM = 6371.0088
MAX_TILES = 100_000_000
MAX_EXTENT_KM = 2.0 * math.pi * EARTH_RADIUS_KM  # once around the Earth
# Above this size, tile indices over MAX_EXTENT_KM are exact integers.
MIN_TILE_KM = MAX_EXTENT_KM / 2**53
_BAND_BYTES = 2 << 20  # bytes of prefix rows, and of window sums, in the window search
_ROW_CALL_COLS = 256  # from this many columns, prefix rows are made a row per call

_DEG = math.pi / 180.0
KM_PER_DEG = EARTH_RADIUS_KM * _DEG  # along a meridian


@dataclass(frozen=True)
class GridSpec:
    """A south-west anchored raster of square kilometer tiles."""

    origin_lon: float
    origin_lat: float
    n_cols: int
    n_rows: int
    tile_km: float = 1.0

    def __post_init__(self) -> None:
        if not -180 <= self.origin_lon <= 180:
            raise ValueError(f"origin_lon must be in [-180, 180], got {self.origin_lon}")
        if not -90 < self.origin_lat < 90:  # project() divides by cos(origin_lat)
            raise ValueError(f"origin_lat must be in (-90, 90), got {self.origin_lat}")
        if not self.tile_km > MIN_TILE_KM:
            raise ValueError(f"tile_km must be > {MIN_TILE_KM:.3g}, got {self.tile_km!r}")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError("n_cols and n_rows must be >= 1")
        if self.n_cols * self.n_rows > MAX_TILES:
            raise ValueError(f"n_cols * n_rows exceeds the {MAX_TILES}-tile guard")
        if max(self.n_cols, self.n_rows) * self.tile_km > MAX_EXTENT_KM:
            raise ValueError(
                f"tile_km * max(n_cols, n_rows) exceeds {MAX_EXTENT_KM:.0f} km, "
                "once around the Earth"
            )
        north_lat = self.origin_lat + self.extent_y_km / KM_PER_DEG
        if north_lat >= 90:
            raise ValueError(
                f"n_rows * tile_km puts the grid's north edge at latitude {north_lat:g}, "
                "at or past the pole"
            )
        if self.span_lon > 360:
            raise ValueError(
                f"n_cols * tile_km spans {self.span_lon:g} degrees of longitude at latitude "
                f"{self.origin_lat:g}, more than 360"
            )

    @property
    def extent_y_km(self) -> float:
        return self.n_rows * self.tile_km

    @property
    def span_lon(self) -> float:
        """Degrees of longitude the grid spans east of its origin."""
        return self.n_cols * self.tile_km / (KM_PER_DEG * math.cos(self.origin_lat * _DEG))


def project(lon, lat, spec: GridSpec):
    """Local east/north kilometers of (lon, lat) relative to the grid origin.

    Equirectangular: one degree of longitude is scaled by the cosine of
    the origin latitude. The longitude difference from the origin is taken
    in [-180, 180), so a grid across the antimeridian holds the towers on
    both sides of it; on a grid wider than 180 degrees, in the 360 degrees
    that end at the grid's east edge. A difference outside that range is
    moved by 360, which suffices for longitudes in [-180, 180]; one inside
    it is used unchanged. Accepts scalars or numpy arrays.
    """
    d_lon = np.asarray(lon) - spec.origin_lon
    west = max(-180.0, spec.span_lon - 360.0)
    if d_lon.min(initial=west) < west or d_lon.max(initial=west) >= west + 360.0:
        d_lon = np.where(
            d_lon < west, d_lon + 360.0, np.where(d_lon >= west + 360.0, d_lon - 360.0, d_lon)
        )
    x = KM_PER_DEG * d_lon * math.cos(spec.origin_lat * _DEG)
    y = KM_PER_DEG * (np.asarray(lat) - spec.origin_lat)
    if np.ndim(x) == 0:
        return float(x), float(y)
    return x, y


def unproject(x_km, y_km, spec: GridSpec):
    """Inverse of :func:`project`, for exporting grid geometry; a longitude
    past the antimeridian is moved by 360 into [-180, 180]."""
    lon = spec.origin_lon + np.asarray(x_km) / (KM_PER_DEG * math.cos(spec.origin_lat * _DEG))
    if lon.max(initial=0.0) > 180.0 or lon.min(initial=0.0) < -180.0:
        lon = np.where(lon > 180.0, lon - 360.0, np.where(lon < -180.0, lon + 360.0, lon))
    lat = spec.origin_lat + np.asarray(y_km) / KM_PER_DEG
    if np.ndim(lon) == 0:
        return float(lon), float(lat)
    return lon, lat


@dataclass
class DensityGrid:
    """Per-tile traffic weight (sample counts) and tower counts.

    Only the tile rows in ``rows`` are held, ascending: row i of
    ``weight`` and ``towers`` is grid row ``rows[i]``, and every tile of
    an unlisted row holds weight +0.0 and no tower. ``rows=None`` lists
    every row, so a full (n_rows, n_cols) raster is a grid too.
    """

    spec: GridSpec
    weight: np.ndarray  # (len(rows), n_cols) float64, south to north
    towers: np.ndarray  # (len(rows), n_cols) int64
    n_outside: int = 0
    rows: np.ndarray | None = None  # ascending grid rows; None: all of them


@dataclass(frozen=True)
class DeploymentArea:
    """The selected window: tile anchor, extent, and contained weight."""

    col0: int
    row0: int
    w_cols: int
    h_rows: int
    total_weight: float
    area_km2: float


def bin_records(records: Cells, spec: GridSpec) -> DensityGrid:
    """Accumulate each record's samples into its tile; out-of-grid is counted.

    The grid holds the rows that some in-grid record falls in, so its
    size follows the occupied rows, not n_rows.
    """
    samples = np.asarray(records.samples, dtype=np.float64)
    x, y = project(records.lon, records.lat, spec)
    col = np.floor(x / spec.tile_km).astype(np.int64)
    row = np.floor(y / spec.tile_km).astype(np.int64)
    inside = (col >= 0) & (col < spec.n_cols) & (row >= 0) & (row < spec.n_rows)
    row, col = row[inside], col[inside]

    occupied = np.zeros(spec.n_rows, dtype=bool)
    occupied[row] = True
    rows = np.flatnonzero(occupied)
    # rank[r] - 1: row r's place among the occupied rows.
    rank = np.add.accumulate(occupied, dtype=np.int64)
    # bincount adds in input order, as a sequential scatter-add would. With
    # no rows it returns integers even when given weights, hence the cast.
    tile = (rank[row] - 1) * spec.n_cols + col
    shape = (len(rows), spec.n_cols)
    weight = np.bincount(tile, weights=samples[inside], minlength=shape[0] * shape[1])
    towers = np.bincount(tile, minlength=shape[0] * shape[1])
    return DensityGrid(
        spec=spec,
        weight=weight.astype(np.float64, copy=False).reshape(shape),
        towers=towers.astype(np.int64, copy=False).reshape(shape),
        n_outside=int((~inside).sum()),
        rows=rows,
    )


def find_5gda(grid: DensityGrid, w_cols: int, h_rows: int) -> DeploymentArea:
    """Maximum-weight w x h window, exact via 2-D prefix sums.

    The first maximum in row-major order wins, which is the south-west
    tie-break. Weights are sample counts, so the grid total is the
    largest prefix sum and bounds every window sum. A weight whose sign
    bit is set, -0.0 included, raises GnbdimError: binning never writes
    one, and -0.0 + 0.0 is +0.0, so leaving out the unlisted rows could
    flip the sign of a zero prefix sum.

    The work is O(listed rows * n_cols). An unlisted row holds only
    +0.0: adding it to the running prefix changes no value, so prefix
    row r equals prefix row k(r), made from the first k(r) listed rows
    only. The sum of the window anchored at row a then depends only on
    (k(a), k(a + h_rows)), and of each run of anchors sharing that pair
    only the first, which wins the tie, is scored. From one scored
    anchor to the next, k(a) and k(a + h_rows) each move on by at most
    one listed row.

    The prefix table is never held whole. Anchors are scored one band at
    a time, and a band needs the prefix rows k(a) of its anchors, its
    bottoms, and k(a + h_rows), its tops: each a run of at most one row
    per anchor. While the window's listed rows fill at most half of the
    _BAND_BYTES of prefix rows, one buffer from the bottoms to the tops
    serves both and slides north from band to band. A taller window
    gives the bottoms and the tops each their own run, made from their
    own column carry, so every prefix row is made twice. The search
    holds at most _BAND_BYTES of prefix rows and as much again of window
    sums and gathered rows (but never fewer than two prefix rows and one
    anchor's), whatever h_rows and the number of listed rows. Every sum
    is added in the same order as over the full table, so the answer is
    the same to the bit.
    """
    weight = grid.weight
    rows, cols = grid.spec.n_rows, grid.spec.n_cols
    if not (1 <= w_cols <= cols and 1 <= h_rows <= rows):
        raise GnbdimError(f"window {w_cols}x{h_rows} does not fit the {cols}x{rows} grid")
    if weight.size and weight.view(np.int64).min() < 0:  # some sign bit is set
        negative = weight[np.signbit(weight)][0].item()
        raise GnbdimError(f"tile weights must not be negative, got {negative!r}")
    n_anchors = rows - h_rows + 1
    every_row = len(weight) == rows
    if every_row:  # every anchor starts a run
        anchor = k0 = range(n_anchors)
        k1 = range(h_rows, rows + 1)
    else:
        is_listed = np.zeros(rows, dtype=bool)
        is_listed[grid.rows] = True
        k = np.zeros(rows + 1, dtype=np.int64)  # k[r]: listed rows below row r
        np.add.accumulate(is_listed, dtype=np.int64, out=k[1:])
        # An anchor starts a run when a row enters or leaves its window.
        first = np.ones(n_anchors, dtype=bool)
        first[1:] = is_listed[: n_anchors - 1] | is_listed[h_rows:]
        anchor = np.flatnonzero(first)
        k0, k1 = k[anchor], k[anchor + h_rows]
    n_scored, span = len(anchor), min(h_rows, len(weight))
    # On an all-empty grid span is 0 and one anchor is scored.
    row_bytes = (cols + 1) * 8
    held = max(2, _BAND_BYTES // row_bytes)  # prefix rows
    # Per anchor: a row of window sums and, unless every row is listed,
    # a gathered top and bottom prefix row.
    per_anchor = (cols - w_cols + 1) * 8 + (0 if every_row else 2 * row_bytes)
    one_run = 2 * span <= held
    band = max(1, min(n_scored, held - span if one_run else held // 2, _BAND_BYTES // per_anchor))
    # A run is [buffer, base, made, carry]: buffer row j holds prefix row
    # base + j for rows base..made, and carry the column sums of the
    # weight rows below prefix row made. Column 0 and prefix row 0 stay
    # zero. One run needs up to band + span rows, two runs band rows each.
    prefix = np.zeros((band + span if one_run else 2 * band, cols + 1), dtype=np.float64)
    if one_run:
        bottom = top = [prefix, 0, 0, None]
    else:
        bottom, top = [prefix[:band], 0, 0, None], [prefix[band:], 0, 0, None]
    sums = np.empty((band, cols - w_cols + 1), dtype=np.float64)
    gathered = None if every_row else np.empty((2, band, cols + 1), dtype=np.float64)
    best = None
    # An overflow shows in the total, checked after the last band.
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_scored, band):
            n = min(band, n_scored - i0)
            q0, b1 = int(k0[i0]), int(k0[i0 + n - 1])  # the bottoms' prefix rows
            t0, q1 = int(k1[i0]), int(k1[i0 + n - 1])  # the tops'
            runs = ((top, q0, q1),) if one_run else ((bottom, q0, b1), (top, t0, q1))
            for run, lo_row, hi_row in runs:
                buf, base, made, carry = run
                while hi_row > made:  # a band may only move k0 on and need no new row
                    # A run that starts past made + 1 (the tops', at first) makes
                    # the rows below it too, for its carry only.
                    keep = lo_row if lo_row <= made else made + 1
                    if keep > base:  # slide the rows still needed to the front
                        buf[: made - keep + 1] = buf[keep - base : made - base + 1]
                        base = keep
                    stop = hi_row if hi_row < base + len(buf) else base + len(buf) - 1
                    new = buf[made - base + 1 : stop - base + 1, 1:]
                    src = weight[made:stop]
                    if cols < _ROW_CALL_COLS:  # one call adds down every column
                        if carry is None:
                            np.add.accumulate(src, axis=0, out=new)
                        else:  # carry + W[r] is the full table's out[r-1] + W[r]
                            np.add(carry, src[0], out=new[0])
                            new[1:] = src[1:]
                            np.add.accumulate(new, axis=0, out=new)
                    else:  # the same additions, a whole row per call: faster on wide rows
                        np.add(0.0 if carry is None else carry, src[0], out=new[0])
                        for r in range(1, len(new)):
                            np.add(new[r - 1], src[r], out=new[r])
                    if stop < hi_row or i0 + n < n_scored:
                        carry = new[-1].copy()
                    np.add.accumulate(new, axis=1, out=new)
                    made = stop
                run[1:] = base, made, carry
            bottoms, b_base = bottom[0], bottom[1]
            tops, t_base = top[0], top[1]
            if b1 - q0 == n - 1 and q1 - t0 == n - 1:  # k0 and k1 step by 1: slices
                lo = bottoms[q0 - b_base : q0 - b_base + n]
                hi = tops[t0 - t_base : t0 - t_base + n]
            else:  # "clip" writes straight into out; the indices are in range
                lo = np.take(bottoms, k0[i0 : i0 + n] - b_base, 0, gathered[0, :n], "clip")
                hi = np.take(tops, k1[i0 : i0 + n] - t_base, 0, gathered[1, :n], "clip")
            # In the order (a - b) - c + d, as over the full table.
            s = sums[:n]
            np.subtract(hi[:, w_cols:], lo[:, w_cols:], out=s)
            s -= hi[:, :-w_cols]
            s += lo[:, :-w_cols]
            flat = int(s.argmax())  # row-major: smallest row0 first, then col0
            value = s.item(flat)
            if best is None or value > best[0]:  # an equal later band loses the tie
                best = (value, i0 * s.shape[1] + flat)
    tops, t_base, made, _ = top
    total = float(tops[made - t_base, -1])  # prefix row k(n_rows): the grid total
    if not math.isfinite(total):
        raise GnbdimError(
            f"binned samples overflow: the grid's total weight is {total}, "
            "beyond the float range"
        )
    scored, col0 = divmod(best[1], sums.shape[1])
    return DeploymentArea(
        col0=col0,
        row0=int(anchor[scored]),
        w_cols=w_cols,
        h_rows=h_rows,
        total_weight=float(best[0]),
        area_km2=w_cols * h_rows * grid.spec.tile_km**2,
    )


def subscriber_density(area: DeploymentArea, subs_per_weight: float) -> float:
    """Subscribers per km2 inside the deployment area."""
    if subs_per_weight <= 0:
        raise GnbdimError(f"subs_per_weight must be > 0, got {subs_per_weight}")
    if area.area_km2 <= 0:
        raise ValueError("deployment area must have positive extent")
    return area.total_weight * subs_per_weight / area.area_km2


# --- exports ---------------------------------------------------------------


def grid_to_csv(grid: DensityGrid) -> str:
    """Row-major CSV of the tiles that hold a tower: row,col,weight,towers.

    Every other tile holds no weight, so the raster reads back from the
    listed tiles alone.
    """
    listed, cols = np.nonzero(grid.towers > 0)
    rows = listed if grid.rows is None else grid.rows[listed]
    lines = ["row,col,weight,towers"]
    lines += [
        f"{row},{col},{weight!r},{towers}"
        for row, col, weight, towers in zip(
            rows.tolist(),
            cols.tolist(),
            grid.weight[listed, cols].tolist(),
            grid.towers[listed, cols].tolist(),
        )
    ]
    return "\n".join(lines) + "\n"


def _area_ring(area: DeploymentArea, spec: GridSpec) -> list:
    """The area's outline as a closed ring of [lon, lat] corners."""
    x0, y0 = area.col0 * spec.tile_km, area.row0 * spec.tile_km
    x1 = (area.col0 + area.w_cols) * spec.tile_km
    y1 = (area.row0 + area.h_rows) * spec.tile_km
    corners_km = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
    return [list(unproject(x, y, spec)) for x, y in corners_km]


def area_to_geojson(area: DeploymentArea, spec: GridSpec) -> dict:
    """The deployment area as a single GeoJSON polygon feature; its
    properties are the area's fields."""
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [_area_ring(area, spec)]},
        "properties": dict(vars(area)),
    }
