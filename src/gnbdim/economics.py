"""Cost-per-bit economics: utilization drives the unit cost of capacity.

CAPEX is amortized straight-line; the duty fraction converts busy-hour
utilization into a year-round average so annual bits are not overstated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .balance import DimensioningResult
from .errors import GnbdimError, ZeroTrafficError

SECONDS_PER_YEAR = 31_536_000  # 365 days
DEFAULT_DUTY_FRACTION = 0.35


@dataclass(frozen=True)
class CostModel:
    capex_per_site: float
    capex_amortization_years: float
    opex_per_site_per_year: float

    def __post_init__(self) -> None:
        if self.capex_per_site < 0:
            raise ValueError("capex_per_site must be >= 0")
        if self.opex_per_site_per_year < 0:
            raise ValueError("opex_per_site_per_year must be >= 0")
        if self.capex_amortization_years <= 0:
            raise ValueError("capex_amortization_years must be > 0")


@dataclass(frozen=True)
class CostReport:
    annual_cost: float
    annual_bits: float
    cost_per_bit: float | None
    mean_utilization: float


def annual_cost(n_sites: int, cost: CostModel) -> float:
    """Yearly cash cost of ``n_sites``: amortized CAPEX plus OPEX."""
    if n_sites < 0:
        raise ValueError("n_sites must be >= 0")
    per_site = cost.capex_per_site / cost.capex_amortization_years + cost.opex_per_site_per_year
    return n_sites * per_site


def cost_per_bit(
    result: DimensioningResult,
    capacity_mbps: float,
    cost: CostModel,
    duty_fraction: float = DEFAULT_DUTY_FRACTION,
) -> CostReport:
    """Annual cost over annual bits actually carried by the deployed network."""
    if capacity_mbps <= 0:
        raise ValueError("capacity_mbps must be > 0")
    if not 0 < duty_fraction <= 1:
        raise ValueError("duty_fraction must be in (0, 1]")
    cost_year = annual_cost(result.n_sites_final, cost)
    bits_year = (
        result.n_sites_final
        * capacity_mbps
        * result.utilization
        * duty_fraction
        * SECONDS_PER_YEAR
        * 1e6
    )
    if bits_year == 0:
        raise ZeroTrafficError("no traffic carried, cost per bit is undefined")
    return CostReport(
        annual_cost=cost_year,
        annual_bits=bits_year,
        cost_per_bit=cost_year / bits_year,
        mean_utilization=result.utilization,
    )


@dataclass(frozen=True)
class AreaComparison:
    cheaper: str  # "dense", "sparse", or "equal"
    ratio_sparse_over_dense: float


def compare_areas(dense: CostReport, sparse: CostReport) -> AreaComparison:
    """Which area carries bits cheaper, and by what factor."""
    if dense.cost_per_bit is None or sparse.cost_per_bit is None:
        raise GnbdimError("both reports need a defined cost per bit")
    ratio = sparse.cost_per_bit / dense.cost_per_bit
    if ratio > 1.0:
        cheaper = "dense"
    elif ratio < 1.0:
        cheaper = "sparse"
    else:
        cheaper = "equal"
    return AreaComparison(cheaper=cheaper, ratio_sparse_over_dense=ratio)
