import math

import pytest

from gnbdim.capacity import (
    TrafficModel,
    capacity_radius,
    cell_capacity_mbps,
    max_subs_per_cell,
    offered_load,
    sites_for_capacity,
)
from gnbdim.coverage import HEX_AREA_FACTOR
from gnbdim.errors import ZeroSubscribersError
from gnbdim.nr import FrequencyRange, NrConfig, bandwidth_part


def single_bwp_config(n: int = 1) -> NrConfig:
    bwp = bandwidth_part(mu=1, bw_mhz=50, n_prb=125)
    return NrConfig(fr=FrequencyRange("FR1", 3.5), bwps=(bwp,) * n, channel_bw_mhz=100)


def traffic(**overrides) -> TrafficModel:
    values = dict(
        demand_per_sub_mbps=1.0, target_load=1.0, se_bps_per_hz=4.0, overhead_fraction=0.14
    )
    values.update(overrides)
    return TrafficModel(**values)


class TestCellCapacity:
    def test_single_bwp(self):
        cfg = NrConfig(
            fr=FrequencyRange("FR1", 3.5),
            bwps=(bandwidth_part(mu=1, bw_mhz=100, n_prb=250),),
            channel_bw_mhz=100,
        )
        # 250 * 12 * 30 kHz * 4 b/s/Hz * 0.86
        assert cell_capacity_mbps(cfg, traffic()) == pytest.approx(309.6)

    def test_unit_spectral_efficiency_equals_occupied_bandwidth(self):
        cfg = NrConfig(
            fr=FrequencyRange("FR1", 3.5),
            bwps=(bandwidth_part(mu=1, bw_mhz=100, n_prb=250),),
            channel_bw_mhz=100,
        )
        t = traffic(se_bps_per_hz=1.0, overhead_fraction=0.0)
        assert cell_capacity_mbps(cfg, t) == pytest.approx(90.0)

    def test_additive_over_bwps(self):
        one = cell_capacity_mbps(single_bwp_config(1), traffic())
        two = cell_capacity_mbps(single_bwp_config(2), traffic())
        assert two == pytest.approx(2 * one)


class TestCapacityRadius:
    def test_known_radius(self):
        r = capacity_radius(300.0, traffic(), 100.0)
        assert r == pytest.approx(math.sqrt(3.0 / HEX_AREA_FACTOR))
        assert r == pytest.approx(1.0746, abs=1e-4)

    def test_inverse_square_in_density(self):
        r1 = capacity_radius(300.0, traffic(), 50.0)
        r2 = capacity_radius(300.0, traffic(), 200.0)
        assert r1 / r2 == pytest.approx(2.0)

    def test_demand_exceeding_capacity(self):
        with pytest.raises(ZeroSubscribersError):
            capacity_radius(300.0, traffic(demand_per_sub_mbps=400.0), 100.0)

    def test_monotone_in_density_and_capacity(self):
        radii = [capacity_radius(300.0, traffic(), rho) for rho in (10, 50, 100, 400)]
        assert radii == sorted(radii, reverse=True)
        radii = [capacity_radius(c, traffic(), 100.0) for c in (100, 200, 300, 600)]
        assert radii == sorted(radii)


class TestSitesForCapacity:
    def test_known_count(self):
        assert sites_for_capacity(49.0, 100.0, 300) == 17

    def test_single_cell(self):
        assert sites_for_capacity(2.0, 100.0, 300) == 1

    def test_halving_capacity_never_lowers_count(self):
        for max_subs in (4, 10, 100, 301):
            assert sites_for_capacity(49.0, 100.0, max_subs // 2 or 1) >= sites_for_capacity(
                49.0, 100.0, max_subs
            )

    def test_no_capacity_deficit(self):
        for area, rho, subs in [(49.0, 100.0, 300), (10.0, 37.0, 11), (3.3, 999.0, 5)]:
            n = sites_for_capacity(area, rho, subs)
            assert n * subs >= area * rho


class TestOfferedLoad:
    def test_consistent_with_capacity_radius(self):
        t = traffic()
        r = capacity_radius(300.0, t, 100.0)
        assert offered_load(r, 100.0, t, 300.0) == pytest.approx(1.0)

    def test_zero_density(self):
        assert offered_load(1.0, 0.0, traffic(), 300.0) == 0.0

    def test_linear_in_density(self):
        t = traffic()
        assert offered_load(1.0, 200.0, t, 300.0) == pytest.approx(
            2 * offered_load(1.0, 100.0, t, 300.0)
        )

    def test_may_exceed_one(self):
        assert offered_load(5.0, 100.0, traffic(), 300.0) > 1.0


def test_load_at_capacity_radius_stays_within_floor_slack():
    # offered(capacity_radius(C)) lands in [target - demand/C, target]:
    # the floor on max_subs can only shave off less than one subscriber.
    t = traffic(target_load=0.7)
    for capacity in (37.0, 123.4, 300.0, 1000.0):
        for rho in (3.0, 100.0, 777.0):
            r = capacity_radius(capacity, t, rho)
            load = offered_load(r, rho, t, capacity)
            assert t.target_load - t.demand_per_sub_mbps / capacity <= load <= t.target_load + 1e-12


def test_max_subs_floor():
    assert max_subs_per_cell(300.0, traffic()) == 300
    assert max_subs_per_cell(300.5, traffic()) == 300
    assert max_subs_per_cell(309.6, traffic(target_load=0.5)) == 154
