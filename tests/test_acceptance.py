"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from gnbdim.balance import (
    BalanceThresholds,
    Classification,
    classify,
    interference_margin_db,
    iterate_balance,
)
from gnbdim.capacity import (
    TrafficModel,
    capacity_radius,
    cell_capacity_mbps,
    offered_load,
)
from gnbdim.cli import main
from gnbdim.config import load_config_dict
from gnbdim.coverage import (
    HEX_AREA_FACTOR,
    LinkBudget,
    abg,
    free_space,
    invert_to_radius,
    mapl_db,
    path_loss_db,
)
from gnbdim.density import DensityGrid, GridSpec, bin_records, find_5gda
from gnbdim.economics import compare_areas, cost_per_bit
from gnbdim.nr import FrequencyRange, NrConfig, bandwidth_part, prb_count, scs_khz, slot_ms
from gnbdim.pipeline import run_dimension

from conftest import records_to_csv_text, tile_center_records


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_numerology_tables():
    slots = [slot_ms(mu) for mu in range(5)]
    spacings = [scs_khz(mu) for mu in range(5)]
    ok = slots == [1.0, 0.5, 0.25, 0.125, 0.0625] and spacings == [15, 30, 60, 120, 240]
    check(
        "1 numerology tables",
        ok,
        "slot 1ms/2^mu exact; spacing 15*2^mu kHz (mu=1 -> 30)",
    )


def test_criterion_2_path_loss_round_trip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        if rng.integers(2):
            model = free_space()
        else:
            model = abg(
                alpha=float(rng.uniform(20.0, 42.0)),
                beta_db=float(rng.uniform(12.0, 38.0)),
                gamma=float(rng.uniform(1.5, 3.0)),
            )
        f = float(rng.uniform(500.0, 40000.0))
        d = float(rng.uniform(0.02, 50.0))
        r = invert_to_radius(model, f, path_loss_db(model, f, d))
        worst = max(worst, abs(r - d) / d)
    check("2 path-loss round trip", worst < 1e-6, f"worst rel err {worst:.2e}")


def _brute_force_window(weights: np.ndarray, w: int, h: int):
    rows, cols = weights.shape
    best = None
    for r0 in range(rows - h + 1):
        for c0 in range(cols - w + 1):
            total = weights[r0 : r0 + h, c0 : c0 + w].sum()
            if best is None or total > best[2]:
                best = (c0, r0, total)
    return best


def test_criterion_3_window_search_matches_brute_force():
    rng = np.random.default_rng(3)
    cases = 0
    for _ in range(200):
        rows = int(rng.integers(1, 21))
        cols = int(rng.integers(1, 21))
        weights = rng.integers(0, 1000, size=(rows, cols)).astype(np.float64)
        spec = GridSpec(origin_lon=0.0, origin_lat=0.0, n_cols=cols, n_rows=rows)
        grid = DensityGrid(spec=spec, weight=weights, towers=np.zeros_like(weights, dtype=np.int64))
        for w in range(1, min(5, cols) + 1):
            for h in range(1, min(5, rows) + 1):
                area = find_5gda(grid, w, h)
                c0, r0, total = _brute_force_window(weights, w, h)
                assert (area.col0, area.row0, area.total_weight) == (c0, r0, total)
                cases += 1
    check("3 max-weight window equals brute force", True, f"{cases} exact matches")


def test_criterion_4_classification_properties():
    th = BalanceThresholds()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        r_cov = float(rng.uniform(0.05, 30.0))
        r_cap = float(rng.uniform(0.05, 30.0))
        k = float(rng.uniform(0.01, 100.0))
        c = classify(r_cov, r_cap, th)
        rel = abs(r_cov - r_cap) / max(r_cov, r_cap)
        if rel <= th.eps_radius:
            ok &= c is Classification.BALANCED
        elif r_cov > r_cap:
            ok &= c is Classification.UNDER_DIMENSIONED
        else:
            ok &= c is Classification.OVER_DIMENSIONED
        ok &= classify(k * r_cov, k * r_cap, th) is c
    # Tolerance band edges, both sides.
    ok &= classify(1.0, 1.0, th) is Classification.BALANCED
    ok &= classify(1.0 - 1e-9, 1.0 / (1 - th.eps_radius), th) is not Classification.BALANCED
    check("4 classification rules and scale invariance", ok, "1000 cases")


def _random_feasible_case(rng):
    eta = float(rng.uniform(0.0, 0.6))
    target = float(rng.uniform(0.2, 0.8))
    mu = int(rng.integers(0, 3))
    bw = float(rng.choice([20, 40, 50, 60, 80, 100]))
    f_mhz = float(rng.choice([700.0, 2100.0, 3500.0]))
    if rng.integers(2):
        model = free_space()
    else:
        model = abg(
            alpha=float(rng.uniform(22.0, 40.0)),
            beta_db=float(rng.uniform(15.0, 35.0)),
            gamma=float(rng.uniform(1.8, 2.5)),
        )
    traffic = TrafficModel(
        demand_per_sub_mbps=1.0,  # rescaled below
        target_load=target,
        se_bps_per_hz=float(rng.uniform(1.0, 7.0)),
        overhead_fraction=float(rng.uniform(0.0, 0.25)),
    )
    cfg = NrConfig(
        fr=FrequencyRange("FR1", f_mhz / 1000.0),
        bwps=(bandwidth_part(mu=mu, bw_mhz=bw),),
        channel_bw_mhz=100,
    )
    capacity = cell_capacity_mbps(cfg, traffic)
    # Demand sized so a cell holds a comfortable number of subscribers.
    demand = target * capacity / float(rng.uniform(20.0, 500.0))
    traffic = replace(traffic, demand_per_sub_mbps=demand)

    # Anchor the zero-interference coverage radius, then load the area so the
    # offered load at that radius sits strictly inside the scan range.
    r0 = float(rng.uniform(0.3, 4.0))
    u = float(rng.uniform(0.1, 0.85))
    rho = u * capacity / (HEX_AREA_FACTOR * r0 * r0 * demand)

    bw_hz = 12 * scs_khz(mu) * 1e3
    base = LinkBudget(
        tx_power_dbm=43.0,
        tx_antenna_gain_dbi=17.0,
        tx_losses_db=3.0,
        rx_antenna_gain_dbi=0.0,
        rx_losses_db=0.0,
        noise_figure_db=7.0,
        required_sinr_db=5.0,
        shadow_margin_db=7.0,
        penetration_margin_db=0.0,
    )
    budget_at_zero_margin = mapl_db(base, bw_hz)
    pen = budget_at_zero_margin - path_loss_db(model, f_mhz, r0)
    if pen >= 0:
        link = replace(base, penetration_margin_db=pen)
    else:
        link = replace(base, required_sinr_db=base.required_sinr_db + pen)
    return link, model, f_mhz, cfg, traffic, rho, eta, bw_hz, capacity


def _residual_scan(link, model, f_mhz, traffic, rho, r_cap, capacity, eta, bw_hz):
    best_load, best_res = 0.0, math.inf
    for i in range(200):  # load grid 0, 0.005, ..., 0.995
        load = i * 0.005
        margin = interference_margin_db(load, eta)
        m = mapl_db(replace(link, interference_margin_db=margin), bw_hz)
        r_cov = invert_to_radius(model, f_mhz, m)
        actual = offered_load(min(r_cov, r_cap), rho, traffic, capacity)
        res = abs(actual - load)
        if res < best_res:
            best_load, best_res = load, res
    return best_load


def test_criterion_5_fixed_point_convergence():
    rng = np.random.default_rng(5)
    worst_gap = 0.0
    worst_iters = 0
    for _ in range(100):
        link, model, f_mhz, cfg, traffic, rho, eta, bw_hz, capacity = _random_feasible_case(rng)
        th = BalanceThresholds(eps_load=0.002, max_iter=100, damping=0.5, eta=eta)
        result = iterate_balance(link, model, f_mhz, cfg, traffic, rho, 49.0, th)
        assert result.converged, "fixed point must converge within 100 iterations"
        assert abs(result.actual_load - result.assumed_load) <= 0.05
        r_cap = capacity_radius(capacity, traffic, rho)
        oracle = _residual_scan(link, model, f_mhz, traffic, rho, r_cap, capacity, eta, bw_hz)
        gap = abs(result.assumed_load - oracle)
        assert gap <= 0.005 + 1e-12, f"converged load {result.assumed_load} vs scan {oracle}"
        worst_gap = max(worst_gap, gap)
        worst_iters = max(worst_iters, result.iterations)
    check(
        "5 fixed-point convergence vs residual scan",
        True,
        f"100 cases, max |load - scan| {worst_gap:.4f}, max iterations {worst_iters}",
    )


def test_criterion_6_dense_area_carries_bits_cheaper(base_config):
    dense = run_dimension(base_config, tile_center_records(base_config.grid, samples=100))
    sparse = run_dimension(base_config, tile_center_records(base_config.grid, samples=10))
    assert dense.rho == 100.0 and sparse.rho == 10.0
    cmp = compare_areas(dense.cost, sparse.cost)
    ok = (
        dense.cost.cost_per_bit < sparse.cost.cost_per_bit
        and cmp.cheaper == "dense"
        and cmp.ratio_sparse_over_dense >= 2.0
    )
    check(
        "6 dense area has lower cost per bit",
        ok,
        f"sparse/dense ratio {cmp.ratio_sparse_over_dense:.2f}",
    )


def test_criterion_7_conservation_and_monotonicity(base_config):
    import dataclasses

    ok = True

    # Binning conserves sample mass exactly for integer weights.
    rng = np.random.default_rng(7)
    records = tile_center_records(base_config.grid, samples=1)
    records = dataclasses.replace(
        records,
        samples=np.array([int(rng.integers(0, 100_000)) for _ in range(len(records))]),
    )
    grid = bin_records(records, base_config.grid)
    ok &= grid.weight.sum() == float(sum(records.samples))

    # PRB count: non-increasing in mu, non-decreasing in bandwidth.
    for bw in (5, 20, 50, 100):
        counts = []
        for mu in range(5):
            try:
                counts.append(prb_count(bw, mu))
            except Exception:
                counts.append(0)
        ok &= counts == sorted(counts, reverse=True)
    for mu in range(5):
        counts = [prb_count(bw, mu) for bw in (20, 40, 60, 80, 100)]
        ok &= counts == sorted(counts)

    # Site counts never drop as the job gets harder.
    from gnbdim.capacity import sites_for_capacity
    from gnbdim.coverage import sites_for_coverage

    radii = np.linspace(3.0, 0.2, 30)
    cov_counts = [sites_for_coverage(49.0, float(r)) for r in radii]
    ok &= cov_counts == sorted(cov_counts)
    cap_counts = [sites_for_capacity(49.0, float(rho), 300) for rho in np.linspace(1, 500, 40)]
    ok &= cap_counts == sorted(cap_counts)

    # Time-frequency duality: spacing times slot duration is constant.
    ok &= all(scs_khz(mu) * slot_ms(mu) == 15.0 for mu in range(5))

    check("7 conservation and monotonicity suites", ok)


def test_criterion_8_end_to_end_determinism(tmp_path, base_config_dict, base_config):
    towers = tmp_path / "towers.csv"
    towers.write_text(
        records_to_csv_text(tile_center_records(base_config.grid, samples=100)),
        encoding="utf-8",
    )
    base_config_dict["input"] = str(towers)
    base_config_dict["out"] = str(tmp_path / "out")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(base_config_dict), encoding="utf-8")

    runner = CliRunner()
    outputs = []
    for _ in range(2):
        result = runner.invoke(main, ["dimension", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        outputs.append((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))

    def without_timestamp(text: str) -> list[str]:
        return [line for line in text.split("\n") if '"timestamp"' not in line]

    ok = without_timestamp(outputs[0]) == without_timestamp(outputs[1])
    check("8 summary.json byte-identical modulo timestamp", ok)
