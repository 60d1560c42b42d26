"""The summary and area documents hold copies of the plan's records; outputs
are written all or none; ``locate_area`` returns the area of the call before
it only for the same table and the same filter, grid and window fields."""

from __future__ import annotations

import copy
import dataclasses
import gc
import logging
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnbdim import pipeline
from gnbdim.config import load_config_dict
from gnbdim.density import area_to_geojson
from gnbdim.errors import GnbdimError
from gnbdim.ingest import RADIOS, Cells, IngestReport, filter_records
from gnbdim.pipeline import (
    build_summary, dump_json, locate_area, run_dimension, sites_to_geojson, write_outputs,
)

from conftest import BASE_CONFIG, full_raster, tile_center_records, towers
from reference import reference_bin_records, reference_find_5gda

def test_summary_sections_are_copies(base_config, dense_records):
    outcome = run_dimension(base_config, dense_records)
    assert outcome.cost is not None
    report = IngestReport(rows_read=49, rows_kept=49, rows_rejected=0, reject_reasons={})
    records = (outcome.area, outcome.result, outcome.cost, report)
    before = [dict(vars(record)) for record in records]

    summary = build_summary(base_config, report, outcome, "0" * 64)
    sections = [summary[name] for name in ("deployment_area", "dimensioning", "cost", "ingest")]
    sections.append(area_to_geojson(outcome.area, base_config.grid)["properties"])
    for section in sections:
        for key in section:
            section[key] = "changed"

    assert [vars(record) for record in records] == before


@pytest.mark.parametrize("error", [ValueError("a writer's bug"), KeyboardInterrupt()])
def test_an_exception_in_a_writer_leaves_out_dir_as_it_was(tmp_path, error):
    (tmp_path / "a.txt").write_text("before", encoding="utf-8")

    def writer(path):
        path.write_text("half a file", encoding="utf-8")
        raise error

    with pytest.raises(type(error)) as caught:
        write_outputs(tmp_path, {"a.txt": "after", "records.csv": writer})
    assert caught.value is error
    assert [path.name for path in tmp_path.iterdir()] == ["a.txt"]
    assert (tmp_path / "a.txt").read_text(encoding="utf-8") == "before"


# --- the last area kept ------------------------------------------------------

_REPORT = IngestReport(rows_read=30, rows_kept=30, rows_rejected=0, reject_reasons={})
# The choices that decide an area: filters, the grid's origin longitude and
# the window, whose last choice is wider than the 6x5 grid.
_FILTERS = ({}, {"radio": "LTE"}, {"plmn": "20801"}, {"bbox": [0.0, 10.0, 0.03, 10.03]})
_ORIGINS = (0.0, -0.0)
_WINDOWS = ((2, 2), (3, 1), (6, 5), (7, 1))
_SUBS_PER_WEIGHT = (0.5, 2.0)  # a model choice, which the area does not depend on


def _table(seed: int) -> Cells:
    """30 towers of two radios and two PLMNs, some outside the grid."""
    rng = np.random.default_rng(seed)
    table = towers(rng.uniform(-0.01, 0.06, 30), rng.uniform(9.99, 10.05, 30),
                   rng.integers(0, 1000, 30))
    return dataclasses.replace(
        table,
        radio=rng.choice([RADIOS.index("LTE"), RADIOS.index("GSM")], 30).astype(np.int8),
        plmn=rng.choice(np.array(["310260", "20801"], dtype=object), 30),
    )


def _config(filters: int, origin: int, window: int, subs: int):
    doc = copy.deepcopy(BASE_CONFIG)
    doc["filters"] = _FILTERS[filters]
    doc["grid"].update(origin_lon=_ORIGINS[origin], origin_lat=10.0, n_cols=6, n_rows=5)
    w_cols, h_rows = _WINDOWS[window]
    doc["window"] = {"w_cols": 1, "h_rows": h_rows}
    doc["traffic"]["subs_per_weight"] = _SUBS_PER_WEIGHT[subs]
    return dataclasses.replace(load_config_dict(doc), w_cols=w_cols)  # past the loader's check


def _outcome(call):
    """What ``call()`` returns, or the GnbdimError it raises as its repr."""
    try:
        return call()
    except GnbdimError as exc:
        return repr(exc)


def _documents(cfg, outcome) -> tuple[str, str]:
    """summary.json without its timestamp, and sites.geojson."""
    summary = build_summary(cfg, _REPORT, outcome, "0" * 64)
    del summary["timestamp"]
    sites = sites_to_geojson(outcome.sites_lonlat, outcome.result.deployment_radius_km)
    return dump_json(summary), dump_json(sites)


def _with_no_area_kept(call):
    """``call()`` with the kept area emptied first, and put back after."""
    kept, pipeline._last = pipeline._last, None
    try:
        return _outcome(call)
    finally:
        pipeline._last = kept


_CALL = st.tuples(
    st.sampled_from(("run_dimension", "locate_area")),
    st.booleans(),  # the area choices of the call before
    st.tuples(
        st.sampled_from(("a", "b", "a copy")),
        st.integers(0, len(_FILTERS) - 1),
        st.integers(0, len(_ORIGINS) - 1),
        st.integers(0, len(_WINDOWS) - 1),
    ),
    st.integers(0, len(_SUBS_PER_WEIGHT) - 1),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_CALL, min_size=1, max_size=12))
@example([
    ("run_dimension", False, ("a", 0, 0, 0), 0),
    ("locate_area", True, None, 1),
    ("run_dimension", False, ("a", 0, 1, 0), 0),  # the origin -0.0
    ("run_dimension", False, ("a copy", 0, 1, 0), 1),
    ("run_dimension", False, ("a copy", 0, 1, 3), 0),  # wider than the grid
    ("locate_area", True, None, 0),
    ("run_dimension", False, ("a copy", 0, 1, 0), 0),
])
def test_a_kept_area_is_the_area_the_call_would_find(calls):
    """Each call gives the reference chain's area and grid, and the
    documents of a call with no area kept; it reuses the grid of the last
    call that found one exactly when its table and area choices are that
    call's, so -0.0 and 0.0, and a table and its equal copy, are told apart."""
    tables = {"a": _table(1), "b": _table(2)}
    tables["a copy"] = Cells(**{name: column.copy() for name, column in vars(tables["a"]).items()})
    last = None  # the area choices and the grid of the last call that found an area
    key = None
    for kind, again, drawn, subs in calls:
        key = key if again and key is not None else drawn
        name, *choices = key
        cfg, table = _config(*choices, subs), tables[name]
        ref_grid = reference_bin_records(
            filter_records(table, radio=cfg.radio, plmn=cfg.plmn, bbox=cfg.bbox), cfg.grid)
        ref_area = _outcome(lambda: reference_find_5gda(ref_grid, cfg.w_cols, cfg.h_rows))
        if kind == "locate_area":
            got = _outcome(lambda: locate_area(cfg, table))
        else:
            outcome = _outcome(lambda: run_dimension(cfg, table))
            fresh = _with_no_area_kept(lambda: run_dimension(cfg, table))
            if isinstance(fresh, str) or isinstance(outcome, str):
                assert outcome == fresh
            else:
                assert _documents(cfg, outcome) == _documents(cfg, fresh)
            got = outcome if isinstance(outcome, str) else (outcome.grid, outcome.area)
        if isinstance(ref_area, str):  # a window wider than the grid
            assert got == ref_area
            continue
        if isinstance(got, str):  # the plan's own refusal, after the area was found
            got = locate_area(cfg, table)
        grid, area = got
        assert area == ref_area
        assert repr(grid.spec) == repr(cfg.grid)
        raster = full_raster(grid)
        assert np.array_equal(raster.weight, ref_grid.weight)
        assert np.array_equal(raster.towers, ref_grid.towers)
        assert grid.n_outside == ref_grid.n_outside
        assert not any(a.flags.writeable for a in (grid.weight, grid.towers, grid.rows))
        if last is not None and last[0] == key:
            assert grid is last[1]
        else:
            assert last is None or grid is not last[1]
        last = (key, grid)


def test_the_kept_grid_dies_with_its_table(base_config):
    table = tile_center_records(base_config.grid, samples=100)
    grid, _ = locate_area(base_config, table)
    assert locate_area(base_config, table)[0] is grid
    kept = weakref.ref(grid)
    del table, grid
    gc.collect()
    assert kept() is None


def test_an_error_is_raised_on_every_call(base_config):
    cfg = dataclasses.replace(base_config, w_cols=base_config.grid.n_cols + 1)
    table = tile_center_records(base_config.grid, samples=100)
    for _ in range(3):
        with pytest.raises(GnbdimError, match="does not fit"):
            run_dimension(cfg, table)


def test_records_outside_the_grid_are_logged_on_every_call(caplog):
    cfg = _config(0, 0, 0, 0)
    table = _table(1)
    with caplog.at_level(logging.INFO, logger="gnbdim.pipeline"):
        for _ in range(2):
            locate_area(cfg, table)
    logged = [r.getMessage() for r in caplog.records if "outside the grid" in r.getMessage()]
    assert len(logged) == 2
