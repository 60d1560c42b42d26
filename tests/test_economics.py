from dataclasses import replace

import pytest

from gnbdim.balance import Classification, DimensioningResult
from gnbdim.economics import (
    CostModel,
    CostReport,
    annual_cost,
    compare_areas,
    cost_per_bit,
)
from gnbdim.errors import GnbdimError, ZeroTrafficError


def make_result(
    n_sites: int, utilization: float, capacity_mbps: float = 309.6
) -> DimensioningResult:
    return DimensioningResult(
        r_cov_km=1.0,
        r_cap_km=1.1,
        assumed_load=utilization,
        actual_load=utilization,
        classification=Classification.BALANCED,
        n_sites_coverage=n_sites,
        n_sites_capacity=n_sites,
        n_sites_final=n_sites,
        iterations=3,
        converged=True,
        mapl_db=110.0,
        cell_capacity_mbps=capacity_mbps,
        max_subs_per_cell=300,
        deployment_radius_km=1.0,
        utilization=utilization,
    )


COST = CostModel(capex_per_site=100000.0, capex_amortization_years=10.0, opex_per_site_per_year=10000.0)
FULL_DUTY = replace(COST, duty_fraction=1.0)


class TestAnnualCost:
    def test_zero_sites(self):
        assert annual_cost(0, COST) == 0.0

    def test_one_site(self):
        assert annual_cost(1, COST) == pytest.approx(20000.0)

    def test_linear_in_sites(self):
        assert annual_cost(7, COST) == pytest.approx(7 * annual_cost(1, COST))

    def test_additive_over_disjoint_sets(self):
        assert annual_cost(4, COST) + annual_cost(9, COST) == pytest.approx(annual_cost(13, COST))

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            CostModel(100000.0, 0.0, 10000.0)
        with pytest.raises(ValueError):
            CostModel(-1.0, 10.0, 10000.0)
        with pytest.raises(ValueError, match="cost_multiplier must be > 0"):
            replace(COST, cost_multiplier=0.0)

    def test_multiplier_scales_both_costs(self):
        # Exactly: each per-site cost is scaled before CAPEX is amortized.
        scaled = replace(COST, cost_multiplier=2.5)
        assert annual_cost(3, scaled) == 3 * (100000.0 * 2.5 / 10.0 + 10000.0 * 2.5)


class TestCostPerBit:
    def test_reference_chain(self):
        report = cost_per_bit(make_result(1, 0.3), FULL_DUTY)
        assert report.annual_cost == pytest.approx(20000.0)
        assert report.annual_bits == pytest.approx(309.6e6 * 0.3 * 31_536_000)
        assert report.cost_per_bit == pytest.approx(6.828120582205982e-12, rel=1e-9)
        assert report.mean_utilization == 0.3

    def test_zero_utilization_is_undefined(self):
        with pytest.raises(ZeroTrafficError):
            cost_per_bit(make_result(1, 0.0), FULL_DUTY)

    def test_doubling_utilization_halves_cost(self):
        low = cost_per_bit(make_result(3, 0.2), COST)
        high = cost_per_bit(make_result(3, 0.4), COST)
        assert low.cost_per_bit == pytest.approx(2 * high.cost_per_bit)

    def test_strictly_decreasing_in_utilization(self):
        values = [
            cost_per_bit(make_result(5, u), COST).cost_per_bit
            for u in (0.1, 0.2, 0.4, 0.7, 0.95)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("result, cost", [
        (make_result(19, 0.5), replace(COST, capex_amortization_years=1e-320)),
        (make_result(19, 0.5), replace(COST, capex_per_site=1.7e308)),
        (make_result(19, 0.5, capacity_mbps=1e300), COST),  # annual bits overflow
    ])
    def test_non_finite_cost_or_bits_is_an_error(self, result, cost):
        with pytest.raises(GnbdimError, match="^cost section gives 19 sites .* must be finite$"):
            cost_per_bit(result, cost)

    def test_duty_fraction_bounds(self):
        # The duty fraction is the cost model's, which checks its range.
        with pytest.raises(ValueError, match="duty_fraction must be in"):
            replace(COST, duty_fraction=0.0)
        with pytest.raises(ValueError, match="duty_fraction must be in"):
            replace(COST, duty_fraction=1.5)


class TestCompareAreas:
    def test_utilization_ratio(self):
        dense = cost_per_bit(make_result(4, 0.9), COST)
        sparse = cost_per_bit(make_result(4, 0.1), COST)
        cmp = compare_areas(dense, sparse)
        assert cmp.cheaper == "dense"
        assert cmp.ratio_sparse_over_dense == pytest.approx(9.0)

    def test_identical_reports(self):
        report = cost_per_bit(make_result(4, 0.5), COST)
        cmp = compare_areas(report, report)
        assert cmp.cheaper == "equal"
        assert cmp.ratio_sparse_over_dense == 1.0

    def test_undefined_cost_rejected(self):
        defined = cost_per_bit(make_result(4, 0.5), COST)
        undefined = CostReport(
            annual_cost=1000.0, annual_bits=0.0, cost_per_bit=None, mean_utilization=0.0
        )
        with pytest.raises(GnbdimError, match="both reports need a defined cost per bit"):
            compare_areas(defined, undefined)

    def test_antisymmetry(self):
        a = cost_per_bit(make_result(2, 0.8), COST)
        b = cost_per_bit(make_result(5, 0.3, capacity_mbps=250.0), COST)
        assert compare_areas(a, b).ratio_sparse_over_dense == pytest.approx(
            1.0 / compare_areas(b, a).ratio_sparse_over_dense
        )
