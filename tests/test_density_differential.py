"""Differential tests of the banded window search.

``find_5gda`` makes the prefix table one band of window anchors at a
time, from the occupied tile rows only. It must pick exactly the anchor
and the window weight (to the bit) that the full-table search it
replaced picks, kept here as ``reference_find_5gda``, and raise the same
overflow error, whatever the band height and however many rows are
empty. Its memory must stay far below the grid's own size, and on a
mostly empty grid far below its dense band buffers.
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
# Outside what binning writes: a negative weight turns row skipping off.
_SIGNED = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.0, 1.0])


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


@st.composite
def sparse_searches(draw):
    """(weights, w_cols, h_rows, band_rows) with runs of empty rows.

    Runs of +0.0 rows alternate with runs of drawn rows, at either edge
    and longer or shorter than the window. Some draws put -0.0 into
    cells, in the drawn rows and in the runs meant to be empty.
    """
    cols = draw(st.integers(1, 6))
    runs = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    drawn_first = draw(st.booleans())
    is_drawn = np.repeat([(i % 2 == 0) == drawn_first for i in range(len(runs))], runs)
    rows = len(is_drawn)
    values = draw(st.sampled_from([*_WEIGHTS.values(), _SIGNED]))
    weights = np.zeros((rows, cols))
    for r in np.flatnonzero(is_drawn):
        weights[r] = draw(st.lists(values, min_size=cols, max_size=cols))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for r, c in draw(st.lists(cells, max_size=3)):
        weights[r, c] = -0.0
    w_cols, h_rows = draw(st.integers(1, cols)), draw(st.integers(1, rows))
    return weights, w_cols, h_rows, draw(st.integers(1, rows))


def _one_row(rows, cols, at, value=1.0):
    weights = np.zeros((rows, cols))
    weights[at] = value
    return weights


@settings(max_examples=400, deadline=None)
@given(sparse_searches())
@example((np.zeros((6, 3)), 2, 2, 1))  # all empty: one scored anchor
@example((_one_row(9, 3, 4), 2, 3, 1))  # a single occupied row
@example((_one_row(9, 3, 0), 1, 2, 1))  # ... at the bottom edge
@example((_one_row(9, 3, 8), 1, 2, 1))  # ... at the top edge
@example((_one_row(12, 2, [5, 6]), 1, 3, 1))  # empty runs longer than h_rows at both edges
@example((_one_row(12, 2, [0, 11]), 2, 2, 2))  # bands start inside the empty run
@example((_one_row(8, 2, [1, 6], -0.0), 1, 2, 1))  # rows of -0.0 are occupied
@example((np.array([[-1.0, 0.0], [0.0, 0.0], [-0.0, 1.0], [0.0, 0.0]]), 1, 2, 1))  # no skipping
def test_row_skipping_matches_the_full_table(case):
    weights, w_cols, h_rows, band_rows = case
    grid = grid_of(weights)
    expected = _outcome(reference_find_5gda, grid, w_cols, h_rows)
    band_bytes = band_rows * (weights.shape[1] + 1) * 8
    with mock.patch.object(density, "_BAND_BYTES", band_bytes):
        assert _outcome(find_5gda, grid, w_cols, h_rows) == expected


def test_search_memory_on_a_mostly_empty_grid():
    rows = cols = 2000
    w_cols = h_rows = 50
    weights = np.zeros((rows, cols))
    occupied = np.random.default_rng(43).choice(rows, size=10, replace=False)
    weights[occupied] = np.random.default_rng(44).integers(0, 1000, size=(10, cols))
    grid = grid_of(weights)
    tracemalloc.start()
    try:
        find_5gda(grid, w_cols, h_rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # What the search holds when every row is occupied: the prefix buffer
    # of band + h_rows rows and the band's window sums. Here it scores at
    # most 21 anchors, from 11 prefix rows.
    band = density._BAND_BYTES // ((cols + 1) * 8)
    dense = (band + h_rows) * (cols + 1) * 8 + band * (cols - w_cols + 1) * 8
    assert peak < dense / 2


class _RowLog(np.ndarray):
    """A weight raster that logs the rows the search reads from it."""

    def __getitem__(self, key):
        if self.ndim == 2 and isinstance(key, slice):
            self.read.update(range(*key.indices(len(self))))
        elif self.ndim == 2:
            self.read.update(np.asarray(key).tolist())
        return super().__getitem__(key)


def _rows_read(weights) -> set[int]:
    grid = grid_of(weights)
    grid.weight = grid.weight.view(_RowLog)
    grid.weight.read = set()
    find_5gda(grid, 1, 2)
    return grid.weight.read


def test_the_search_reads_only_occupied_rows():
    assert _rows_read(_one_row(8, 3, [1, 6])) == {1, 6}


def test_a_negative_weight_turns_row_skipping_off():
    # -0.0 + 0.0 is +0.0: skipping a +0.0 row could flip a prefix zero's sign.
    for row, negative in ((1, -1.0), (1, -0.0), (3, -0.0)):  # row 3 is otherwise empty
        weights = _one_row(8, 3, [1, 6])
        weights[row, 0] = negative
        assert _rows_read(weights) == set(range(8))
