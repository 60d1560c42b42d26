"""Differential tests of the banded window search.

``find_5gda`` makes the prefix table one band of window anchors at a
time. It must pick exactly the anchor and the window weight (to the bit)
that the full-table search it replaced picks, kept here as
``reference_find_5gda``, and raise the same overflow error, whatever the
band height. Its memory must stay far below the grid's own size.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnbdim import density
from gnbdim.density import DensityGrid, DeploymentArea, GridSpec, find_5gda
from gnbdim.errors import GnbdimError


def reference_find_5gda(grid: DensityGrid, w_cols: int, h_rows: int) -> DeploymentArea:
    """The full-table search: both prefix and window-sum tables at once."""
    rows, cols = grid.weight.shape
    if not (1 <= w_cols <= cols and 1 <= h_rows <= rows):
        raise GnbdimError(
            f"window {w_cols}x{h_rows} does not fit the {cols}x{rows} grid"
        )
    prefix = np.zeros((rows + 1, cols + 1), dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow shows in the total, checked next
        np.cumsum(grid.weight, axis=0, out=prefix[1:, 1:])
        np.cumsum(prefix[1:, 1:], axis=1, out=prefix[1:, 1:])
    total = float(prefix[-1, -1])
    if not math.isfinite(total):
        raise GnbdimError(
            f"binned samples overflow: the grid's total weight is {total}, "
            "beyond the float range"
        )
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


def grid_of(weights) -> DensityGrid:
    w = np.asarray(weights, dtype=np.float64)
    spec = GridSpec(origin_lon=0.0, origin_lat=0.0, n_cols=w.shape[1], n_rows=w.shape[0])
    return DensityGrid(spec=spec, weight=w, towers=np.zeros(w.shape, dtype=np.int64))


def _outcome(search, grid, w_cols, h_rows):
    """The anchor and the exact window weight, or the overflow message."""
    try:
        area = search(grid, w_cols, h_rows)
    except GnbdimError as exc:
        return str(exc)
    return area.col0, area.row0, area.total_weight.hex()


_WEIGHTS = {
    "counts": st.integers(0, 50).map(float),
    # Past 2**53 the prefix sums round, so the order of additions shows.
    "large": (st.integers(0, 10**17) | st.integers(2**53, 10**17)).map(float),
    "spread": st.just(0.0) | st.floats(1e-5, 1e300),
    "overflow": st.sampled_from([0.0, 0.0, 0.0, 1.0, 1e308]),  # sparse 1e308 cells
}


@st.composite
def searches(draw):
    """(weights, w_cols, h_rows, band_rows): any window, any band height."""
    rows, cols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    values = _WEIGHTS[draw(st.sampled_from(sorted(_WEIGHTS)))]
    flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    weights = np.array(flat, dtype=np.float64).reshape(rows, cols)
    w_cols, h_rows = draw(st.integers(1, cols)), draw(st.integers(1, rows))
    return weights, w_cols, h_rows, draw(st.integers(1, rows))


@settings(max_examples=400, deadline=None)
@given(searches())
@example((np.array([[0.0], [5.0], [0.0], [5.0]]), 1, 1, 1))  # equal maxima, bands 1 and 3
@example((np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 1.0]]), 2, 1, 1))
@example((np.ones((8, 3)), 2, 2, 1))  # uniform: every window ties, four bands
@example((np.arange(12.0).reshape(4, 3), 2, 4, 1))  # h_rows == rows: one anchor row
@example((np.array([[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]]), 2, 1, 1))  # single row
@example((np.array([[3.0], [1.0], [4.0], [1.0], [5.0], [9.0]]), 1, 2, 1))  # single column
@example((np.array([[1e308, 0.0], [0.0, 1e308]]), 1, 1, 1))  # overflows in the last band
def test_banded_search_matches_the_full_table(case):
    weights, w_cols, h_rows, band_rows = case
    grid = grid_of(weights)
    expected = _outcome(reference_find_5gda, grid, w_cols, h_rows)
    # A band is at least h_rows anchor rows, so band_rows <= h_rows gives
    # one band per h_rows rows and band_rows == rows a single band.
    band_bytes = band_rows * (weights.shape[1] + 1) * 8
    with mock.patch.object(density, "_BAND_BYTES", band_bytes):
        assert _outcome(find_5gda, grid, w_cols, h_rows) == expected


def test_search_memory_is_a_fraction_of_the_grid():
    weights = np.random.default_rng(41).integers(0, 1000, size=(2000, 2000)).astype(np.float64)
    grid = grid_of(weights)
    tracemalloc.start()
    try:
        find_5gda(grid, 50, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < weights.nbytes / 4
