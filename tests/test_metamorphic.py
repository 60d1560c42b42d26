"""Metamorphic tests of the whole plan (Chen et al., "Metamorphic Testing:
A Review of Challenges and Opportunities", ACM Computing Surveys 51(1),
2018).

Each test changes one input in a way whose effect on the plan is known
exactly, over the reference scenario's neighbourhood, and checks that
effect:

- samples x2 with ``subs_per_weight`` /2: powers of two scale floats
  exactly, so the plan and its sites are identical;
- the input rows permuted: with integer samples whose total is below
  2**53 every tile sum is exact, so ``summary.json`` and
  ``sites.geojson`` are the same bytes, apart from the timestamp and the
  input hash;
- ``capex_per_site`` and ``opex_per_site_per_year`` xk: ``cost_per_bit``
  scales by k;
- ``subs_per_weight``, ``penetration_margin_db`` or
  ``demand_per_sub_mbps`` rising: ``n_sites_final`` never drops;
- the plan split in two: ``plan_area`` after ``locate_area`` is
  ``run_dimension``.
"""

from __future__ import annotations

import copy
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnbdim.cli import main
from gnbdim.config import load_config_dict
from gnbdim.density import unproject
from gnbdim.errors import GnbdimError
from gnbdim.pipeline import locate_area, plan_area, run_dimension

from conftest import BASE_CONFIG, full_raster, records_to_csv_text, towers

_SPEC = load_config_dict(copy.deepcopy(BASE_CONFIG)).grid


@st.composite
def scenarios(draw):
    """(config dict, tower positions in tiles, integer samples).

    Towers sit inside the tiles of a drawn set of grid rows, so whole
    tile rows are often empty; the window is any that fits the grid.
    """
    doc = copy.deepcopy(BASE_CONFIG)
    doc["window"] = {
        "w_cols": draw(st.integers(1, _SPEC.n_cols)),
        "h_rows": draw(st.integers(1, _SPEC.n_rows)),
    }
    rows = draw(st.sets(st.integers(0, _SPEC.n_rows - 1), min_size=1))
    offsets = st.sampled_from([0.25, 0.5, 0.75])
    tile = st.tuples(st.sampled_from(sorted(rows)), st.integers(0, _SPEC.n_cols - 1))
    spots = draw(st.lists(st.tuples(tile, offsets, offsets), min_size=1, max_size=40))
    positions = [(col + dx, row + dy) for (row, col), dx, dy in spots]
    counts = st.integers(0, 2000) | st.integers(0, 2**40)  # 40 * 2**40 < 2**53
    samples = draw(st.lists(counts, min_size=len(positions), max_size=len(positions)))
    # Tens to thousands of subscribers per km2, whatever the sample scale.
    scale = draw(st.floats(0.01, 5.0))
    doc["traffic"]["subs_per_weight"] = scale * 1000 / max(1000, *samples)
    return doc, positions, samples


def _towers(positions, samples):
    lon, lat = unproject(
        [x * _SPEC.tile_km for x, _ in positions], [y * _SPEC.tile_km for _, y in positions], _SPEC
    )
    return towers(lon, lat, samples)


def _plan(doc, positions, samples):
    """The outcome's result and sites, or the error the run raises."""
    try:
        outcome = run_dimension(load_config_dict(doc), _towers(positions, samples))
    except GnbdimError as exc:
        return repr(exc)
    return repr(outcome.result), outcome.sites_lonlat, outcome.cost


# Rows 0-2 and 5-6 hold no tower: the window search skips them.
_SPARSE = (
    {**BASE_CONFIG, "window": {"w_cols": 3, "h_rows": 2}},
    [(1.5, 3.5), (4.25, 3.75), (6.5, 4.5), (2.5, 4.25)],
    [40, 9, 1000, 40],
)


@settings(max_examples=40, deadline=None)
@given(scenarios())
@example(_SPARSE)
def test_twice_the_samples_at_half_the_subscribers_per_weight(case):
    doc, positions, samples = case
    halved = copy.deepcopy(doc)
    halved["traffic"]["subs_per_weight"] = doc["traffic"]["subs_per_weight"] / 2
    expected = _plan(doc, positions, samples)
    assert _plan(halved, positions, [2 * s for s in samples]) == expected


def _outputs(runner, doc, csv_text, work: Path):
    """Exit code, then summary.json without its timestamp and input hash,
    and sites.geojson; or the error output."""
    (work / "towers.csv").write_text(csv_text, encoding="utf-8")
    (work / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    result = runner.invoke(main, [
        "dimension", "--config", str(work / "run.json"),
        "--input", str(work / "towers.csv"), "--out", str(work / "out"),
    ])
    if result.exit_code != 0:
        return result.exit_code, result.output
    summary = json.loads((work / "out" / "summary.json").read_text(encoding="utf-8"))
    del summary["timestamp"], summary["input_sha256"]
    return 0, summary, (work / "out" / "sites.geojson").read_bytes()


@settings(max_examples=25, deadline=None)
@given(scenarios(), st.randoms(use_true_random=False))
@example(_SPARSE, random.Random(3))
def test_permuted_input_rows_give_the_same_outputs(case, rng):
    doc, positions, samples = case
    header, *lines = records_to_csv_text(_towers(positions, samples)).splitlines()
    shuffled = rng.sample(lines, len(lines))
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        expected = _outputs(runner, doc, "\n".join([header, *lines]) + "\n", tmp)
        actual = _outputs(runner, doc, "\n".join([header, *shuffled]) + "\n", tmp)
    assert actual == expected


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(0.01, 100.0))
@example(_SPARSE, 100000.0, 10000.0, 3.0)
# A subnormal cost_per_bit: 4.05e-322, and 8.05e-322 at twice the costs.
@example(({**BASE_CONFIG, "window": {"w_cols": 1, "h_rows": 1}}, [(0.25, 0.25)], [5]),
         0.0, 2.2250738585072014e-308, 2.0)
def test_site_costs_times_k_scale_cost_per_bit_by_k(case, capex, opex, k):
    doc, positions, samples = case
    doc = copy.deepcopy(doc)
    doc["cost"].update(capex_per_site=capex, opex_per_site_per_year=opex)
    scaled = copy.deepcopy(doc)
    scaled["cost"].update(capex_per_site=k * capex, opex_per_site_per_year=k * opex)
    base, after = _plan(doc, positions, samples), _plan(scaled, positions, samples)
    if isinstance(base, str) or base[2] is None:  # infeasible, or no traffic carried
        assert after == base
        return
    assert after[:2] == base[:2]
    # Below 2**-1022 floats keep fewer digits, so an absolute bound takes over
    # there: the rounding of each cost_per_bit and of k times one of them.
    assert math.isclose(
        after[2].cost_per_bit, k * base[2].cost_per_bit,
        rel_tol=1e-12, abs_tol=(k + 1) * 2**-1074,
    )


# Knobs whose rise must not lower n_sites_final: (section, low, high), the
# range each rises over. subs_per_weight is a factor on the scenario's own
# value, which puts tens to thousands of subscribers on a km2.
_RISING = {
    "subs_per_weight": ("traffic", 0.01, 200.0),
    "penetration_margin_db": ("link_budget", 20.0, 40.0),
    "demand_per_sub_mbps": ("traffic", 0.2, 5.0),
}


def _size(doc, positions, samples):
    """The plan's final site count as a sort key; a plan the run refuses
    (an infeasible model, or a site lattice over the guard) ranks above all."""
    try:
        outcome = run_dimension(load_config_dict(doc), _towers(positions, samples))
    except GnbdimError:
        return (1, 0)
    return (0, outcome.result.n_sites_final)


@pytest.mark.parametrize("key", _RISING)
@settings(max_examples=50, deadline=None)
@given(case=scenarios(), where=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
@example(case=_SPARSE, where=[0.0, 1.0])
def test_sites_never_drop_as_the_knob_rises(key, case, where):
    doc, positions, samples = case
    section, low, high = _RISING[key]
    sizes = []
    for u in sorted(where):  # spread over the range on a log scale
        value = low * (high / low) ** u
        if key == "subs_per_weight":
            value *= doc[section][key]
        changed = copy.deepcopy(doc)
        changed[section][key] = value
        sizes.append(_size(changed, positions, samples))
    assert sizes[0] <= sizes[1]


def _stages(plan, doc, positions, samples):
    """Every field of the outcome of ``plan`` on a table of its own, the
    grid as its full raster; or the error it raises."""
    try:
        outcome = plan(load_config_dict(doc), _towers(positions, samples))
    except GnbdimError as exc:
        return repr(exc)
    raster = full_raster(outcome.grid)
    return (
        repr(raster.spec), raster.weight.tolist(), raster.towers.tolist(), raster.n_outside,
        outcome.area, outcome.rho, repr(outcome.result), outcome.cost, outcome.sites_lonlat,
    )


@settings(max_examples=40, deadline=None)
@given(scenarios())
@example(_SPARSE)
def test_plan_area_after_locate_area_is_run_dimension(case):
    expected = _stages(run_dimension, *case)
    assert _stages(lambda cfg, records: plan_area(cfg, *locate_area(cfg, records)), *case) == expected
