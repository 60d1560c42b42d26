"""Differential tests of binning and the chunked window search.

``bin_records`` keeps only the tile rows that hold a record, and
``find_5gda`` carries the window's column sums from step to step over
the listed rows only, a chunk of steps at a time. Together they must pick
exactly the anchor and the window weight (to the bit) that the full-table
search over the full raster, ``reference_find_5gda``, picks, and reject
the same grids with the same message, however many rows are empty. The
input rule is that weights are whole sample counts that total
below 2**53, so that every sum is exact in any order; a grid that breaks
it raises, whatever else is drawn. The search's memory must stay far
below the grid's own size, and on a mostly empty grid below its chunk
budget; binning and searching a tall, mostly empty grid must stay far
below the size of its raster, and the search alone within one fixed
bound whatever the window height.
"""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnbdim import density
from gnbdim.density import (
    GridSpec,
    bin_records,
    find_5gda,
    unproject,
)
from gnbdim.errors import GnbdimError

from conftest import full_raster, grid_of, towers
from reference import reference_bin_records, reference_find_5gda


def breaks_the_rule(weights) -> bool:
    """Whether ``weights`` are not whole numbers totalling below 2**53.

    ``math.fsum`` rounds the exact total once, so it is below 2**53 exactly
    when the exact total is.
    """
    values = np.ravel(weights).tolist()
    try:
        total = math.fsum(values)
    except OverflowError:  # finite weights whose total passes the float range
        return True
    return not (total < 2**53 and all(value.is_integer() for value in values))


def _outcome(search, grid, w_cols, h_rows):
    """The anchor and the exact window weight, or the error message."""
    try:
        area = search(grid, w_cols, h_rows)
    except GnbdimError as exc:
        return str(exc)
    assert type(area.col0) is type(area.row0) is int  # written to JSON as they are
    return area.col0, area.row0, area.total_weight.hex()


_WEIGHTS = {
    "counts": st.integers(0, 50).map(float),
    # 196 tiles of up to 2**45 total below 2**53: large sums, compared to the bit.
    "exact": st.integers(0, 2**45).map(float),
    # Totals past 2**53, fractions and overflows break the rule and raise.
    "large": (st.integers(0, 10**17) | st.integers(2**53, 10**17)).map(float),
    "spread": st.just(0.0) | st.floats(1e-5, 1e300),
    "overflow": st.sampled_from([0.0, 0.0, 0.0, 1.0, 1e308]),  # sparse 1e308 cells
}


@st.composite
def searches(draw):
    """(weights, w_cols, h_rows): any window."""
    rows, cols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    values = _WEIGHTS[draw(st.sampled_from(sorted(_WEIGHTS)))]
    flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    weights = np.array(flat, dtype=np.float64).reshape(rows, cols)
    w_cols, h_rows = draw(st.integers(1, cols)), draw(st.integers(1, rows))
    return weights, w_cols, h_rows


@settings(max_examples=400, deadline=None)
@given(searches())
@example((np.array([[0.0], [5.0], [0.0], [5.0]]), 1, 1))  # equal maxima
@example((np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 1.0]]), 2, 1))
@example((np.ones((8, 3)), 2, 2))  # uniform: every window ties
@example((np.arange(12.0).reshape(4, 3), 2, 4))  # h_rows == rows: one anchor row
@example((np.array([[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]]), 2, 1))  # single row
@example((np.array([[3.0], [1.0], [4.0], [1.0], [5.0], [9.0]]), 1, 2))  # single column
@example((np.array([[1e308, 0.0], [0.0, 1e308]]), 1, 1))  # the total overflows
@example((np.arange(30.0).reshape(10, 3), 2, 6))
@example((np.array([[5.0], [0.0], [0.0]] * 3), 1, 3))  # equal maxima
@example((np.array([[2.0**52, 2.0**52 - 1]]), 2, 1))  # total 2**53 - 1: kept, exact
@example((np.array([[2.0**52], [2.0**52]]), 1, 2))  # total 2**53
@example((np.array([[2.0**52, 2.0**52 + 1]]), 2, 1))  # 2**53 + 1, which sums to 2**53
@example((np.array([[1.0, 0.5]]), 1, 1))  # a fraction
@example((np.array([[2.0], [math.nan]]), 1, 1))
@example((np.array([[0.0, math.inf]]), 1, 1))
def test_chunked_search_matches_the_full_table(case):
    weights, w_cols, h_rows = case
    grid = grid_of(weights)
    expected = _outcome(reference_find_5gda, grid, w_cols, h_rows)
    assert isinstance(expected, str) == breaks_the_rule(weights)
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
    """(weights, listed, w_cols, h_rows) with runs of empty rows.

    Runs of +0.0 rows alternate with runs of drawn rows, at either edge
    and longer or shorter than the window. The grid lists the drawn rows,
    some of which may hold only zeros, and no other row.
    """
    cols = draw(st.integers(1, 6))
    runs = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    drawn_first = draw(st.booleans())
    is_drawn = np.repeat([(i % 2 == 0) == drawn_first for i in range(len(runs))], runs)
    rows = len(is_drawn)
    values = _WEIGHTS[draw(st.sampled_from(sorted(_WEIGHTS)))]
    weights = np.zeros((rows, cols))
    listed = np.flatnonzero(is_drawn)
    for r in listed:
        weights[r] = draw(st.lists(values, min_size=cols, max_size=cols))
    w_cols, h_rows = draw(st.integers(1, cols)), draw(st.integers(1, rows))
    return weights, listed, w_cols, h_rows


def _one_row(rows, cols, at, value=1.0):
    weights = np.zeros((rows, cols))
    weights[at] = value
    return weights


def _counted_rows(rows, cols, at):
    """Zeros but for the rows ``at``, which count on from 1."""
    weights = np.zeros((rows, cols))
    weights[at] = np.arange(1.0, len(at) * cols + 1).reshape(len(at), cols)
    return weights


@settings(max_examples=400, deadline=None)
@given(sparse_searches())
@example((np.zeros((6, 3)), [], 2, 2))  # all empty: one scored anchor
@example((_one_row(9, 3, 4), [4], 2, 3))  # a single occupied row
@example((_one_row(9, 3, 0), [0], 1, 2))  # ... at the bottom edge
@example((_one_row(9, 3, 8), [8], 1, 2))  # ... at the top edge
@example((_one_row(12, 2, [5, 6]), [5, 6], 1, 3))  # empty runs past h_rows at both edges
@example((_one_row(12, 2, [0, 11]), [0, 11], 2, 2))
@example((_one_row(8, 2, [1, 6]), [1, 3, 6], 1, 2))  # a listed row of zeros
@example((np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), [0, 2], 1, 2))
@example((_counted_rows(14, 2, [1, 2, 5, 8, 9, 13]), [1, 2, 5, 8, 9, 13], 1, 6))
@example((_one_row(9, 2, [2, 6], 2.0**51 - 0.5), [2, 6], 1, 3))  # whole sums of fractions
@example((_one_row(9, 2, [2, 6], 2.0**51), [2, 6], 1, 3))  # total 2**53
@example((_one_row(9, 2, [2, 6], 2.0**51 - 1), [2, 6], 2, 9))  # total 2**53 - 4: kept
def test_search_over_the_listed_rows_matches_the_full_table(case):
    weights, listed, w_cols, h_rows = case
    expected = _outcome(reference_find_5gda, grid_of(weights), w_cols, h_rows)
    assert isinstance(expected, str) == breaks_the_rule(weights)
    assert _outcome(find_5gda, grid_of(weights, listed), w_cols, h_rows) == expected


def test_search_memory_on_a_mostly_empty_grid():
    rows = cols = 2000
    w_cols = h_rows = 50
    weights = np.zeros((rows, cols))
    occupied = np.random.default_rng(43).choice(rows, size=10, replace=False)
    weights[occupied] = np.random.default_rng(44).integers(0, 1000, size=(10, cols))
    grid = grid_of(weights, np.sort(occupied))
    tracemalloc.start()
    try:
        find_5gda(grid, w_cols, h_rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A fully occupied grid of 2000 columns fills the _CHUNK_BYTES of gathered
    # rows, a row in and a row out for each of 32 steps. Here the search makes
    # at most 21 steps: 10 rows enter, 10 leave, and anchor 0.
    assert peak < density._CHUNK_BYTES


def test_chunks_carry_the_sums_from_one_to_the_next():
    # 500 columns make chunks of 131 steps, so these grids take several, and
    # a 300-row window's anchor 0, its 300th step, lies past two whole chunks.
    rng = np.random.default_rng(59)
    weights = rng.integers(0, 3, size=(400, 500)).astype(np.float64)
    listed = np.sort(rng.choice(400, size=60, replace=False))
    sparse = np.zeros_like(weights)
    sparse[listed] = weights[listed]
    twins = np.zeros_like(weights)
    twins[[10, 11, 300, 301], 40:43] = 1.0  # equal maxima in the first and the third chunk
    assert density._CHUNK_BYTES // (16 * 500) < 299 // 2
    cases = [(weights, None), (sparse, listed), (twins, None), (twins, [10, 11, 300, 301])]
    for raster, rows in cases:
        for w_cols, h_rows in ((7, 7), (50, 300), (500, 1), (3, 2)):
            expected = _outcome(reference_find_5gda, grid_of(raster), w_cols, h_rows)
            assert _outcome(find_5gda, grid_of(raster, rows), w_cols, h_rows) == expected


class _RowLog(np.ndarray):
    """A weight block that logs the grid rows the search reads from it."""

    def __getitem__(self, key):
        if self.ndim == 2 and isinstance(key, slice):
            self.read.update(self.rows[key].tolist())
        elif self.ndim == 2:
            self.read.update(self.rows[np.asarray(key)].tolist())
        return super().__getitem__(key)


def _rows_read(weights, listed=None) -> set[int]:
    grid = grid_of(weights, listed)
    grid.weight = grid.weight.view(_RowLog)
    grid.weight.rows = grid.rows
    grid.weight.read = set()
    find_5gda(grid, 1, 2)
    return grid.weight.read


def test_the_search_reads_only_occupied_rows():
    weights = _one_row(8, 3, [1, 6])
    assert _rows_read(weights, [1, 6]) == {1, 6}
    assert _rows_read(weights, [1, 4, 6]) == {1, 4, 6}
    assert _rows_read(weights) == set(range(8))  # a raster lists every row


def test_a_weight_with_its_sign_bit_set_raises():
    # Binning writes none; -0.0 + 0.0 is +0.0, so skipping a +0.0 row could
    # flip a zero prefix sum's sign.
    for listed in (None, [1, 3, 6]):
        for row, value in ((1, -1.0), (1, -0.0), (3, -0.0), (6, -2.5)):
            weights = _one_row(8, 3, [1, 6])
            weights[row, 2] = value
            message = f"tile weights must not be negative, got {value!r}"
            with pytest.raises(GnbdimError, match=re.escape(message)):
                find_5gda(grid_of(weights, listed), 1, 2)


# Sample counts: small ones tie, past 2**53 the order of additions shows,
# and two of the largest int64 count in one tile or window pass 2**53.
_SAMPLES = {
    "ties": st.sampled_from([0, 0, 1, 2, 5]),
    "large": st.integers(0, 10**17),
    "int64_max": st.sampled_from([0, 1, 2**63 - 1]),
}


@st.composite
def binned_searches(draw):
    """(spec, records, w_cols, h_rows) on a tall grid with few occupied rows,
    its origin at the equator or at 87.7 W 41.8 N, its tiles 1 or 0.5 km.

    Each record sits at a tile center: in one of at most six tiles in at
    most four rows, so that tiles hold several records, or up to three
    tiles past an edge of the grid.
    """
    n_cols, n_rows = draw(st.integers(1, 8)), draw(st.integers(20, 200))
    origin_lon, origin_lat = draw(st.sampled_from([(0.0, 0.0), (-87.7, 41.8)]))
    tile_km = draw(st.sampled_from([1.0, 0.5]))
    spec = GridSpec(origin_lon, origin_lat, n_cols=n_cols, n_rows=n_rows, tile_km=tile_km)
    occupied = draw(st.lists(st.integers(0, n_rows - 1), max_size=4, unique=True))
    inside = st.nothing()
    if occupied:
        tile = st.tuples(st.sampled_from(occupied), st.integers(0, n_cols - 1))
        inside = st.sampled_from(draw(st.lists(tile, min_size=1, max_size=6)))
    outside = st.tuples(st.integers(-3, n_rows + 2), st.integers(-3, n_cols + 2)).filter(
        lambda tile: not (0 <= tile[0] < n_rows and 0 <= tile[1] < n_cols)
    )
    tiles = draw(st.lists(inside | outside, max_size=30))
    x_km = [(col + 0.5) * tile_km for _, col in tiles]
    y_km = [(row + 0.5) * tile_km for row, _ in tiles]
    lon, lat = unproject(np.array(x_km), np.array(y_km), spec)
    values = _SAMPLES[draw(st.sampled_from(sorted(_SAMPLES)))]
    samples = draw(st.lists(values, min_size=len(tiles), max_size=len(tiles)))
    w_cols, h_rows = draw(st.integers(1, n_cols)), draw(st.integers(1, n_rows))
    return spec, towers(lon, lat, samples), w_cols, h_rows


@settings(max_examples=300, deadline=None)
@given(binned_searches())
def test_binning_the_occupied_rows_matches_the_full_raster(case):
    spec, records, w_cols, h_rows = case
    grid = bin_records(records, spec)
    want = reference_bin_records(records, spec)
    assert np.array_equal(grid.rows, np.flatnonzero(want.towers.any(axis=1)))
    raster = full_raster(grid)
    assert raster.weight.tobytes() == want.weight.tobytes()
    assert np.array_equal(raster.towers, want.towers)
    assert grid.n_outside == want.n_outside
    expected = _outcome(reference_find_5gda, want, w_cols, h_rows)
    assert isinstance(expected, str) == breaks_the_rule(want.weight)
    assert _outcome(find_5gda, grid, w_cols, h_rows) == expected


def _tall_sparse_records():
    """20000 records in 120 rows of a 4000 x 4000 grid."""
    spec = GridSpec(origin_lon=0.0, origin_lat=0.0, n_cols=4000, n_rows=4000)
    rng = np.random.default_rng(47)
    rows = rng.choice(spec.n_rows, size=120, replace=False)
    n = 20_000
    x_km = rng.integers(0, spec.n_cols, size=n) + 0.5
    y_km = rows[rng.integers(0, len(rows), size=n)] + 0.5
    lon, lat = unproject(x_km, y_km, spec)
    return spec, towers(lon, lat, rng.integers(0, 1000, size=n).tolist())


def test_binning_and_search_memory_on_a_tall_sparse_grid():
    # The raster would be 4000 * 4000 * 8 bytes = 128 MB, twice over.
    spec, records = _tall_sparse_records()
    tracemalloc.start()
    try:
        grid = bin_records(records, spec)
        find_5gda(grid, 300, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid.rows) == 120
    assert peak < 16 << 20


def test_search_memory_does_not_grow_with_the_window_height():
    # The buffer of gathered rows is _CHUNK_BYTES whatever the window height.
    # Beside it the search holds the whole-number check's flags, a sixteenth
    # of it, and index arrays of a few bytes per grid row.
    spec, records = _tall_sparse_records()
    sparse = bin_records(records, spec)
    every_row = grid_of(np.random.default_rng(53).integers(0, 1000, (1200, 1000)))
    bound = density._CHUNK_BYTES + (1 << 18)
    for name, grid in (("sparse", sparse), ("every row", every_row)):
        for h_rows in (30, 120, 300, 1000):
            tracemalloc.start()
            try:
                find_5gda(grid, 300, h_rows)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (name, h_rows, peak)
