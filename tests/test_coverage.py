import math

import numpy as np
import pytest

from gnbdim.coverage import (
    BRACKET_MAX_KM,
    BRACKET_MIN_KM,
    HEX_AREA_FACTOR,
    LinkBudget,
    abg,
    free_space,
    hexagon_area_km2,
    invert_to_radius,
    mapl_db,
    noise_floor_dbm,
    path_loss_db,
    sites_for_coverage,
)
from gnbdim.errors import GnbdimError, NegativeMaplError


def make_link(**overrides) -> LinkBudget:
    values = dict(
        tx_power_dbm=43.0,
        tx_antenna_gain_dbi=17.0,
        tx_losses_db=3.0,
        rx_antenna_gain_dbi=0.0,
        rx_losses_db=0.0,
        noise_figure_db=7.0,
        required_sinr_db=-1.0,
        shadow_margin_db=8.0,
        penetration_margin_db=0.0,
        interference_margin_db=0.0,
    )
    values.update(overrides)
    return LinkBudget(**values)


class TestNoiseFloor:
    def test_one_hertz_anchor(self):
        assert noise_floor_dbm(1.0, 0.0) == -174.0

    def test_prb_bandwidth(self):
        # -174 + 10*log10(3.6e5) + 7
        assert noise_floor_dbm(360e3, 7.0) == pytest.approx(-111.43697499232712)

    def test_decade_rule(self):
        base = noise_floor_dbm(1e6, 5.0)
        assert noise_floor_dbm(1e7, 5.0) - base == pytest.approx(10.0)

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(GnbdimError, match="bandwidth must be positive"):
            noise_floor_dbm(0.0, 7.0)


class TestMapl:
    def test_term_by_term(self):
        # 43 + 17 - 3 - (noise_floor + (-1)) - 8 over one 30 kHz-SCS PRB
        assert mapl_db(make_link(), 360e3) == pytest.approx(161.43697499232712)

    def test_two_term_case(self):
        # Sensitivity pinned at -100 dBm: 1 Hz floor plus 74 dB SINR.
        link = make_link(
            tx_power_dbm=0.0, tx_antenna_gain_dbi=0.0, tx_losses_db=0.0,
            noise_figure_db=0.0, required_sinr_db=74.0, shadow_margin_db=0.0,
        )
        assert mapl_db(link, 1.0) == pytest.approx(100.0)

    def test_infeasible_margins(self):
        with pytest.raises(NegativeMaplError):
            mapl_db(make_link(penetration_margin_db=250.0), 360e3)

    def test_decreasing_in_margins_increasing_in_power(self):
        base = mapl_db(make_link(), 360e3)
        assert mapl_db(make_link(shadow_margin_db=9.0), 360e3) == pytest.approx(base - 1)
        assert mapl_db(make_link(penetration_margin_db=1.0), 360e3) == pytest.approx(base - 1)
        assert mapl_db(make_link(interference_margin_db=1.0), 360e3) == pytest.approx(base - 1)
        assert mapl_db(make_link(tx_power_dbm=44.0), 360e3) == pytest.approx(base + 1)


class TestPathLoss:
    def test_free_space_at_one_km(self):
        assert path_loss_db(free_space(), 3500, 1.0) == pytest.approx(103.33136088700552)

    def test_free_space_distance_decade(self):
        m = free_space()
        assert path_loss_db(m, 700, 20.0) - path_loss_db(m, 700, 2.0) == pytest.approx(20.0)

    def test_free_space_at_edge_distance(self):
        assert path_loss_db(free_space(), 3500, 6.82) == pytest.approx(120.00704838013511)

    def test_abg_term_by_term(self):
        m = abg(alpha=34.0, beta_db=20.0, gamma=2.0)
        expected = 20.0 + 34.0 * math.log10(1500.0) + 20.0 * math.log10(3.5)
        assert path_loss_db(m, 3500, 1.5) == pytest.approx(expected)

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(GnbdimError, match="distance must be positive"):
            path_loss_db(free_space(), 3500, 0.0)
        with pytest.raises(GnbdimError, match="frequency must be positive"):
            path_loss_db(free_space(), 0.0, 1.0)

    @pytest.mark.parametrize("model", [free_space(), abg(34.0, 20.0, 2.0)])
    def test_strictly_increasing_in_distance(self, model):
        distances = np.geomspace(0.011, 99.0, 200)
        losses = [path_loss_db(model, 3500, d) for d in distances]
        assert all(b > a for a, b in zip(losses, losses[1:]))


class TestInversion:
    def test_round_trip_of_known_loss(self):
        r = invert_to_radius(free_space(), 3500, 103.33136088700552)
        assert r == pytest.approx(1.0, rel=1e-6)

    def test_random_round_trips(self):
        rng = np.random.default_rng(7)
        models = [free_space(), abg(34.0, 20.0, 2.0), abg(21.0, 32.4, 2.3)]
        for _ in range(200):
            model = models[rng.integers(len(models))]
            f = float(rng.uniform(600, 30000))
            d = float(rng.uniform(0.02, 50.0))
            r = invert_to_radius(model, f, path_loss_db(model, f, d))
            assert abs(r - d) / d < 1e-6

    def test_unreachable_low(self):
        with pytest.raises(GnbdimError, match=r"maps outside \[0\.01, 100\.0\] km"):
            invert_to_radius(free_space(), 3500, 10.0)

    def test_unreachable_high(self):
        with pytest.raises(GnbdimError, match=r"maps outside \[0\.01, 100\.0\] km"):
            invert_to_radius(free_space(), 3500, 250.0)

    def test_bracket_endpoints_are_invertible(self):
        m = free_space()
        for d in (BRACKET_MIN_KM, BRACKET_MAX_KM):
            r = invert_to_radius(m, 3500, path_loss_db(m, 3500, d))
            assert r == pytest.approx(d, rel=1e-6)


class TestSites:
    def test_unit_radius_over_seven_by_seven(self):
        assert sites_for_coverage(49.0, 1.0) == 19

    def test_single_cell_suffices(self):
        assert sites_for_coverage(2.0, 1.0) == 1

    def test_never_a_coverage_deficit(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            area = float(rng.uniform(0.5, 500.0))
            radius = float(rng.uniform(0.05, 10.0))
            n = sites_for_coverage(area, radius)
            assert n * hexagon_area_km2(radius) >= area

    def test_doubling_area_never_lowers_count(self):
        for area in (1.0, 5.0, 49.0, 120.0):
            assert sites_for_coverage(2 * area, 1.0) >= sites_for_coverage(area, 1.0)

    def test_hexagon_area_factor(self):
        assert HEX_AREA_FACTOR == pytest.approx(3.0 * math.sqrt(3.0) / 2.0)
