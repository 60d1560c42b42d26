"""Reconcile the coverage and capacity legs through a damped load fixed point.

The two legs couple through one variable: the cell load assumed by the
link budget. A higher assumed load raises the interference margin, which
shrinks the coverage radius, which lowers the offered load actually seen
by a cell. The loop damps the assumed load toward the offered load until
the two agree within tolerance; non-convergence is reported, not raised.

Classification follows the cell-range comparison: coverage range larger
than capacity range means under-dimensioned, the reverse means
over-dimensioned, and radii within a relative tolerance are balanced.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import capacity as cap
from . import coverage as cov
from .errors import LoadTooHighError
from .nr import NrConfig, prb_hz

DEFAULT_ETA = 0.6  # neighbor-coupling factor of the noise-rise margin
MAX_ITER = 10**6  # fixed-point steps a run may ask for: a few seconds of them
_POLE_GUARD = 1e-9


class Classification(enum.Enum):
    BALANCED = "balanced"
    UNDER_DIMENSIONED = "under_dimensioned"
    OVER_DIMENSIONED = "over_dimensioned"


@dataclass(frozen=True)
class BalanceThresholds:
    """Stopping rules and tolerances for the fixed-point loop."""

    eps_radius: float = 0.10  # relative, on the cell-range difference
    eps_load: float = 0.05  # absolute, on the load difference
    max_iter: int = 100
    damping: float = 0.5
    eta: float = DEFAULT_ETA

    def __post_init__(self) -> None:
        if self.eps_radius <= 0:
            raise ValueError("eps_radius must be > 0")
        if self.eps_load <= 0:
            raise ValueError("eps_load must be > 0")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")
        if not 1 <= self.max_iter <= MAX_ITER:
            raise ValueError(f"max_iter must be in [1, {MAX_ITER}]")
        if not 0 <= self.eta < 1:
            raise ValueError("eta must be in [0, 1)")


@dataclass(frozen=True)
class FinalPlan:
    """The site plan; each field is also a :class:`DimensioningResult` field."""

    deployment_radius_km: float
    n_sites_coverage: int
    n_sites_capacity: int  # 0 without subscribers
    n_sites_final: int
    max_subs_per_cell: int  # 0 without subscribers
    utilization: float


@dataclass(frozen=True)
class DimensioningResult:
    r_cov_km: float
    r_cap_km: float
    assumed_load: float
    actual_load: float
    classification: Classification
    n_sites_coverage: int
    n_sites_capacity: int
    n_sites_final: int
    iterations: int
    converged: bool
    mapl_db: float
    cell_capacity_mbps: float
    max_subs_per_cell: int
    deployment_radius_km: float
    utilization: float


def interference_margin_db(load: float, eta: float = DEFAULT_ETA) -> float:
    """Noise-rise margin -10*log10(1 - eta*load); 0 at no load, pole at 1/eta."""
    if load < 0:
        raise ValueError(f"load must be >= 0, got {load}")
    if eta == 0.0:
        return 0.0
    if eta * load >= 1.0 - _POLE_GUARD:
        raise LoadTooHighError(
            f"eta*load = {eta * load:.4f} at or beyond the noise-rise pole"
        )
    return -10.0 * math.log10(1.0 - eta * load)


def classify(
    r_cov_km: float, r_cap_km: float, thresholds: BalanceThresholds
) -> Classification:
    """Compare cell ranges; radii within eps_radius (relative) are balanced."""
    if r_cov_km <= 0 or r_cap_km <= 0:
        raise ValueError("radii must be positive")
    if math.isinf(r_cov_km) or math.isinf(r_cap_km):
        if r_cov_km == r_cap_km:
            return Classification.BALANCED
    else:
        rel = abs(r_cov_km - r_cap_km) / max(r_cov_km, r_cap_km)
        if rel <= thresholds.eps_radius:
            return Classification.BALANCED
    if r_cov_km > r_cap_km:
        return Classification.UNDER_DIMENSIONED
    return Classification.OVER_DIMENSIONED


def final_plan(
    r_cov_km: float,
    r_cap_km: float,
    area_km2: float,
    rho_subs_per_km2: float,
    traffic: cap.TrafficModel,
    capacity_mbps: float,
) -> FinalPlan:
    """Deploy at the smaller radius; site count must satisfy both legs."""
    n_cov = cov.sites_for_coverage(area_km2, r_cov_km)
    if rho_subs_per_km2 > 0:
        n_subs = cap.max_subs_per_cell(capacity_mbps, traffic)
        n_capy = cap.sites_for_capacity(area_km2, rho_subs_per_km2, n_subs)
    else:
        n_subs = n_capy = 0
    n_final = max(n_cov, n_capy)
    offered_total = area_km2 * rho_subs_per_km2 * traffic.demand_per_sub_mbps
    utilization = offered_total / (n_final * capacity_mbps)
    return FinalPlan(
        deployment_radius_km=min(r_cov_km, r_cap_km),
        n_sites_coverage=n_cov,
        n_sites_capacity=n_capy,
        n_sites_final=n_final,
        max_subs_per_cell=n_subs,
        utilization=utilization,
    )


def iterate_balance(
    link: cov.LinkBudget,
    model: cov.PropagationModel,
    f_mhz: float,
    cfg: NrConfig,
    traffic: cap.TrafficModel,
    rho_subs_per_km2: float,
    area_km2: float,
    thresholds: BalanceThresholds | None = None,
) -> DimensioningResult:
    """Run the damped fixed point between the coverage and capacity legs.

    The cell-edge sensitivity bandwidth is ``link.sensitivity_prbs`` PRBs of
    the first bandwidth part (the cell-edge service reference). Non-convergence
    within ``max_iter`` comes back as ``converged=False``, never an error,
    with the last load evaluated and the results computed at it.

    What does not depend on the load, the budget before its interference
    margin and the path-loss inverse, is computed once before the first
    step, so a bad bandwidth or frequency raises before any step does.
    """
    th = thresholds or BalanceThresholds()
    capacity = cap.cell_capacity_mbps(cfg, traffic)
    bw_hz = link.sensitivity_prbs * prb_hz(cfg.bwps[0].mu)
    budget = cov.budget_before_interference_db(link, bw_hz)
    radius_km = cov.radius_inverse(model, f_mhz)

    if rho_subs_per_km2 > 0:
        r_cap = cap.capacity_radius(capacity, traffic, rho_subs_per_km2)
        ceiling = 0.999 / th.eta if th.eta > 0 else math.inf  # the load stays below the pole
        load = traffic.target_load
        converged = False
        # max_iter >= 1, so the loop binds every name the result reads.
        for iterations in range(1, th.max_iter + 1):
            assumed = load  # reported with what is computed from it, not the next update
            mapl = cov.mapl_from_budget_db(budget, interference_margin_db(assumed, th.eta))
            r_cov = radius_km(mapl)
            actual = cap.offered_load(min(r_cov, r_cap), rho_subs_per_km2, traffic, capacity)
            if abs(actual - assumed) <= th.eps_load:
                converged = True
                break
            load = assumed + th.damping * (min(max(actual, 0.0), ceiling) - assumed)
    else:
        # No subscribers: the capacity leg puts no constraint on the plan, and
        # the offered load is identically zero, so the fixed point is exact.
        r_cap = math.inf
        assumed = actual = 0.0
        mapl = cov.mapl_from_budget_db(budget, 0.0)
        r_cov = radius_km(mapl)
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
