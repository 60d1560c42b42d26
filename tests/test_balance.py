import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gnbdim.balance import (
    MAX_ITER,
    BalanceThresholds,
    Classification,
    classify,
    final_plan,
    interference_margin_db,
    iterate_balance,
)
from gnbdim.capacity import (
    TrafficModel,
    capacity_radius,
    cell_capacity_mbps,
    max_subs_per_cell,
    offered_load,
)
from gnbdim.coverage import (
    BRACKET_MAX_KM,
    BRACKET_MIN_KM,
    LinkBudget,
    abg,
    free_space,
    hexagon_area_km2,
    invert_to_radius,
    mapl_db,
    path_loss_db,
)
from gnbdim.errors import LoadTooHighError
from gnbdim.nr import FrequencyRange, NrConfig, bandwidth_part, prb_hz

from conftest import BASE_CONFIG
from reference import reference_iterate_balance, residual_scan_fixed_point


def make_link(**overrides) -> LinkBudget:
    """The reference scenario's link budget, ``overrides`` put in."""
    return LinkBudget(**{**BASE_CONFIG["link_budget"], **overrides})


def make_nr() -> NrConfig:
    return NrConfig(
        fr=FrequencyRange("FR1", 3.5),
        bwps=(bandwidth_part(mu=1, bw_mhz=100, n_prb=250),),
        channel_bw_mhz=100,
    )


def make_traffic(**overrides) -> TrafficModel:
    values = dict(
        demand_per_sub_mbps=1.0, target_load=1.0, se_bps_per_hz=4.0, overhead_fraction=0.14
    )
    values.update(overrides)
    return TrafficModel(**values)


class TestInterferenceMargin:
    def test_zero_load(self):
        assert interference_margin_db(0.0, 0.6) == 0.0

    def test_half_load(self):
        assert interference_margin_db(0.5, 0.6) == pytest.approx(1.5490195998574319)

    def test_pole(self):
        with pytest.raises(LoadTooHighError):
            interference_margin_db(1.0 / 0.6, 0.6)
        with pytest.raises(LoadTooHighError):
            interference_margin_db(1.6667, 0.6)

    def test_eta_zero_decouples(self):
        assert interference_margin_db(0.9, 0.0) == 0.0

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            interference_margin_db(-0.1, 0.6)

    def test_strictly_increasing_and_convex(self):
        eta = 0.6
        loads = np.linspace(0.0, 0.9 / eta, 200)
        margins = [interference_margin_db(float(x), eta) for x in loads]
        first = np.diff(margins)
        assert (first > 0).all()
        assert (np.diff(first) > 0).all()


class TestClassify:
    TH = BalanceThresholds()

    def test_coverage_beyond_capacity_is_under_dimensioned(self):
        assert classify(6.82, 1.07, self.TH) is Classification.UNDER_DIMENSIONED

    def test_within_tolerance_is_balanced(self):
        # |1.0 - 1.0746| / 1.0746 = 0.0694 <= 0.10
        assert classify(1.0, 1.0746, self.TH) is Classification.BALANCED

    def test_capacity_beyond_coverage_is_over_dimensioned(self):
        assert classify(1.0, 1.5, self.TH) is Classification.OVER_DIMENSIONED

    def test_equal_radii_always_balanced(self):
        th = BalanceThresholds(eps_radius=1e-9)
        assert classify(3.3, 3.3, th) is Classification.BALANCED

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            r_cov = float(rng.uniform(0.05, 20.0))
            r_cap = float(rng.uniform(0.05, 20.0))
            k = float(rng.uniform(0.01, 100.0))
            assert classify(r_cov, r_cap, self.TH) is classify(k * r_cov, k * r_cap, self.TH)

    def test_infinite_capacity_radius_is_over_dimensioned(self):
        assert classify(1.0, math.inf, self.TH) is Classification.OVER_DIMENSIONED


class TestIterateBalance:
    def test_reference_scenario_converges_to_the_scanned_fixed_point(self):
        link, cfg, traffic = make_link(), make_nr(), make_traffic()
        th = BalanceThresholds(eps_load=0.002)
        result = iterate_balance(link, free_space(), 3500, cfg, traffic, 100.0, 49.0, th)
        assert result.converged
        assert result.iterations <= th.max_iter
        assert abs(result.actual_load - result.assumed_load) <= th.eps_load

        capacity = cell_capacity_mbps(cfg, traffic)
        r_cap = capacity_radius(capacity, traffic, 100.0)
        oracle = residual_scan_fixed_point(
            link, free_space(), 3500, traffic, 100.0, r_cap, capacity, th.eta, 360e3
        )
        assert abs(result.assumed_load - oracle) <= 0.005

    def test_reference_scenario_site_counts(self):
        result = iterate_balance(
            make_link(), free_space(), 3500, make_nr(), make_traffic(), 100.0, 49.0
        )
        assert result.converged
        assert result.n_sites_coverage == 19
        assert result.n_sites_capacity == 16
        assert result.n_sites_final == 19
        assert result.classification is Classification.BALANCED

    def test_no_subscribers_is_exact_and_coverage_only(self):
        result = iterate_balance(
            make_link(), free_space(), 3500, make_nr(), make_traffic(), 0.0, 49.0
        )
        assert result.converged
        assert result.actual_load == 0.0
        assert result.assumed_load == 0.0
        assert result.n_sites_capacity == 0
        assert math.isinf(result.r_cap_km)
        assert result.classification is Classification.OVER_DIMENSIONED
        # Margin-free budget: MAPL equals the budget at zero interference.
        expected = mapl_db(replace(make_link(), interference_margin_db=0.0), 360e3)
        assert result.mapl_db == pytest.approx(expected)

    def test_damping_choices_reach_the_same_fixed_point(self):
        # Moderate density keeps the undamped map contractive, so both
        # damping settings converge and must agree (path independence).
        common = dict(
            link=make_link(), model=free_space(), f_mhz=3500, cfg=make_nr(),
            traffic=make_traffic(), rho_subs_per_km2=30.0, area_km2=49.0,
        )
        full = iterate_balance(thresholds=BalanceThresholds(damping=1.0, eps_load=0.001), **common)
        half = iterate_balance(thresholds=BalanceThresholds(damping=0.5, eps_load=0.001), **common)
        assert full.converged and half.converged
        assert abs(full.assumed_load - half.assumed_load) <= 0.05

    def test_step_count_is_capped(self):
        assert BalanceThresholds(max_iter=MAX_ITER).max_iter == MAX_ITER
        with pytest.raises(ValueError, match=re.escape(f"max_iter must be in [1, {MAX_ITER}]")):
            BalanceThresholds(max_iter=MAX_ITER + 1)

    def test_non_convergence_is_reported_not_raised(self):
        th = BalanceThresholds(eps_load=1e-12, max_iter=2)
        result = iterate_balance(
            make_link(), free_space(), 3500, make_nr(), make_traffic(), 100.0, 49.0, th
        )
        assert not result.converged
        assert result.iterations == 2

    def test_non_converged_report_is_the_evaluated_load(self):
        # Undamped with eta=0.99 the map flips between two loads for good; the
        # reported assumed_load must be the one mapl_db and actual_load came from.
        link, cfg, traffic = make_link(), make_nr(), make_traffic()
        th = BalanceThresholds(damping=1.0, eta=0.99)
        result = iterate_balance(link, free_space(), 3500, cfg, traffic, 100.0, 49.0, th)
        assert not result.converged
        margin = interference_margin_db(result.assumed_load, th.eta)
        mapl = mapl_db(replace(link, interference_margin_db=margin), 360e3)
        r_cov = invert_to_radius(free_space(), 3500, mapl)
        actual = offered_load(
            min(r_cov, result.r_cap_km), 100.0, traffic, cell_capacity_mbps(cfg, traffic)
        )
        assert (result.mapl_db, result.r_cov_km, result.actual_load) == (mapl, r_cov, actual)
        assert result.actual_load != result.assumed_load

    def test_more_subscribers_never_fewer_sites(self):
        counts = []
        for rho in (5.0, 20.0, 50.0, 100.0, 200.0, 400.0):
            result = iterate_balance(
                make_link(), free_space(), 3500, make_nr(), make_traffic(), rho, 49.0
            )
            counts.append(result.n_sites_final)
        assert counts == sorted(counts)

    def test_one_site_fewer_violates_a_leg(self):
        traffic = make_traffic()
        cfg = make_nr()
        for rho in (30.0, 100.0, 250.0):
            r = iterate_balance(make_link(), free_space(), 3500, cfg, traffic, rho, 49.0)
            short = r.n_sites_final - 1
            capacity_short = short * r.max_subs_per_cell < 49.0 * rho
            coverage_short = short * hexagon_area_km2(r.r_cov_km) < 49.0
            assert capacity_short or coverage_short


def _free_space_coverage_radius(link: LinkBudget, load: float, eta: float) -> float:
    margin = interference_margin_db(load, eta)
    mapl = mapl_db(replace(link, interference_margin_db=margin), 360e3)
    return invert_to_radius(free_space(), 3500, mapl)


@settings(max_examples=200, deadline=None)
@given(
    penetration_db=st.floats(0.0, 40.0),
    rho_share=st.floats(0.01, 1.0),
    target_load=st.floats(0.3, 1.0),
    eta=st.floats(0.05, 0.95),
    eps_load=st.floats(-9.0, -2.0).map(lambda k: 10.0**k),
    damping_share=st.floats(0.05, 0.95),
)
def test_free_space_coverage_root_is_exact(
    penetration_db, rho_share, target_load, eta, eps_load, damping_share
):
    # In free space the coverage radius goes as r0 * sqrt(1 - eta*L), so where
    # coverage sets the radius the offered load is A*(1 - eta*L), A its value
    # at L = 0, and the root is L* = A / (1 + A*eta). Then offered - L is
    # (1 + A*eta) * (L* - L), so a converged load lies within
    # eps_load / (1 + A*eta) of L*.
    link = make_link(penetration_margin_db=penetration_db)
    cfg, traffic = make_nr(), make_traffic(target_load=target_load)
    capacity = cell_capacity_mbps(cfg, traffic)
    n_subs = max_subs_per_cell(capacity, traffic)
    r0 = _free_space_coverage_radius(link, 0.0, eta)
    # r_cov(L*)^2 = r0^2 / (1 + A*eta) <= r_cap^2 = n_subs / (rho * HEX_AREA_FACTOR)
    # holds up to this density, as A grows with rho.
    rho_max = n_subs / (
        hexagon_area_km2(r0) * (1.0 - eta * n_subs * traffic.demand_per_sub_mbps / capacity)
    )
    rho = rho_share * rho_max
    r_cap = capacity_radius(capacity, traffic, rho)
    a = offered_load(r0, rho, traffic, capacity)
    root = a / (1.0 + a * eta)
    damping = min(1.0, damping_share * 2.0 / (1.0 + a * eta))  # the damped step contracts
    assume(root < 0.999 / eta)  # the load clamp leaves the root alone
    assume(_free_space_coverage_radius(link, root, eta) <= r_cap)  # rounding at rho_max
    th = BalanceThresholds(eps_load=eps_load, damping=damping, eta=eta, max_iter=1000)
    result = iterate_balance(link, free_space(), 3500, cfg, traffic, rho, 49.0, th)
    assert result.converged
    # Below the root the capacity radius may still bind, and offered(L) is
    # then not A*(1 - eta*L).
    assume(result.r_cov_km <= r_cap)
    bound = eps_load / (1.0 + a * eta)
    assert abs(result.assumed_load - root) <= bound + 1e-12


def test_reference_scenario_root_is_exact():
    link, cfg, traffic = make_link(), make_nr(), make_traffic()
    capacity = cell_capacity_mbps(cfg, traffic)
    a = offered_load(_free_space_coverage_radius(link, 0.0, 0.6), 100.0, traffic, capacity)
    root = a / (1.0 + a * 0.6)
    th = BalanceThresholds(eps_load=1e-6, eta=0.6)
    result = iterate_balance(link, free_space(), 3500, cfg, traffic, 100.0, 49.0, th)
    assert result.converged and result.r_cov_km <= result.r_cap_km
    assert abs(result.assumed_load - root) <= th.eps_load / (1.0 + a * 0.6) + 1e-12


def _outcome(run, *args):
    """The result's repr, or the class and message of what the run raised."""
    try:
        return repr(run(*args))
    except Exception as exc:  # the fast loop must raise exactly what the reference does
        return type(exc), str(exc)


@st.composite
def balance_cases(draw):
    """Arguments of iterate_balance over both propagation models.

    The offered load never exceeds the target load by more than rounding
    (the capacity radius caps it), so the load the run starts from is its
    highest and MAPL only rises after the first step. The first step's
    MAPL is drawn near 0 dB and near either end of the bracket, and within
    the first margin under the top end, which a falling load pushes MAPL
    past mid-run. The density sets the first step's offered load to 1e-3
    to 10 times the target. Steps may be undamped, eta reaches the
    noise-rise pole, and there may be no subscribers, too few per cell, or
    few steps.
    """
    if draw(st.booleans()):
        model = free_space()
    else:
        model = abg(draw(st.floats(10.0, 60.0)), draw(st.floats(-60.0, 80.0)),
                    draw(st.floats(0.0, 4.0)))
    f_mhz = draw(st.floats(500.0, 40000.0))
    traffic = make_traffic(
        # Above about 300 Mbit/s no subscriber fits into a cell.
        demand_per_sub_mbps=draw(st.floats(-2.0, 3.0).map(lambda k: 10.0**k)),
        target_load=draw(st.floats(0.05, 1.0)),
    )
    th = BalanceThresholds(
        eps_load=draw(st.floats(-9.0, -0.5).map(lambda k: 10.0**k)),
        max_iter=draw(st.integers(1, 5) | st.integers(1, 300)),
        damping=draw(st.just(1.0) | st.floats(0.01, 1.0)),
        # Past 0.999 the load clamp 0.999/eta can bind below a load of 1,
        # and 1 - 1e-10 puts a first load of 1 on the noise-rise pole.
        eta=draw(st.sampled_from([0.0, 0.99, 1.0 - 1e-10]) | st.floats(0.0, 0.999)
                 | st.floats(0.999, 1.0, exclude_max=True)),
    )
    load = traffic.target_load
    margin_db = 0.0 if th.eta * load >= 1.0 - 1e-9 else interference_margin_db(load, th.eta)
    lo_db = path_loss_db(model, f_mhz, BRACKET_MIN_KM)
    hi_db = path_loss_db(model, f_mhz, BRACKET_MAX_KM)
    first_mapl_db = draw(
        st.floats(lo_db, hi_db)
        | st.floats(hi_db - margin_db, hi_db)
        | st.sampled_from([0.0, lo_db, hi_db]).flatmap(lambda at: st.floats(at - 5.0, at + 5.0))
    )
    sensitivity_prbs = draw(st.integers(1, 250))
    link = make_link(penetration_margin_db=draw(st.floats(0.0, 40.0)),
                     sensitivity_prbs=sensitivity_prbs)
    # tx_power_dbm enters the budget with weight 1.
    budget_db = mapl_db(link, sensitivity_prbs * prb_hz(1))
    link = replace(link, tx_power_dbm=link.tx_power_dbm + first_mapl_db + margin_db - budget_db)
    r_km = invert_to_radius(model, f_mhz, min(max(first_mapl_db, lo_db), hi_db))
    capacity = cell_capacity_mbps(make_nr(), traffic)
    ratio = draw(st.floats(-3.0, 1.0).map(lambda k: 10.0**k))
    rho = ratio * load * capacity / (hexagon_area_km2(r_km) * traffic.demand_per_sub_mbps)
    rho = draw(st.just(0.0) | st.just(rho))
    return link, model, f_mhz, make_nr(), traffic, rho, 49.0, th


@settings(max_examples=300, deadline=None)
@given(balance_cases())
# The undamped 2-cycle at eta 0.99: all 100 steps, no convergence.
@example((make_link(), free_space(), 3500, make_nr(), make_traffic(), 100.0, 49.0,
          BalanceThresholds(damping=1.0, eta=0.99)))
# Where the capacity radius binds, the offered load is 0.99977: over the
# load clamp 0.999/eta = 0.9995, which then sets the next load.
@example((make_link(), free_space(), 3500, make_nr(), make_traffic(demand_per_sub_mbps=0.13),
          1e4, 49.0, BalanceThresholds(eps_load=1e-9, eta=0.9995)))
def test_fixed_point_matches_the_whole_budget_reference(case):
    expected = _outcome(reference_iterate_balance, *case)
    assert _outcome(iterate_balance, *case) == expected


class TestFinalPlan:
    def test_coverage_limited_plan(self):
        traffic = make_traffic(target_load=0.9)
        capacity = 309.6
        plan = final_plan(1.0, 1.5, 49.0, 100.0, traffic, capacity)
        assert plan.deployment_radius_km == 1.0
        assert plan.n_sites_final == 19
        assert plan.utilization < traffic.target_load

    def test_takes_the_larger_site_count(self):
        # 19 coverage sites vs 17 capacity sites over 49 km2.
        traffic = make_traffic()
        plan = final_plan(1.0, 1.0746, 49.0, 100.0, traffic, 300.0)
        assert plan.n_sites_final == max(19, 17)

    def test_utilization_is_a_valid_ratio(self):
        traffic = make_traffic()
        plan = final_plan(1.0, 1.0746, 49.0, 100.0, traffic, 300.0)
        offered_total = 49.0 * 100.0 * traffic.demand_per_sub_mbps
        assert plan.utilization == pytest.approx(
            offered_total / (plan.n_sites_final * 300.0)
        )
        assert 0 < plan.utilization <= 1
