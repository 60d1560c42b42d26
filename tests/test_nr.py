import pytest

from gnbdim.errors import GnbdimError
from gnbdim.nr import (
    BandwidthPart,
    FrequencyRange,
    NrConfig,
    bandwidth_part,
    prb_count,
    scs_khz,
    slot_ms,
    validate_bandwidth,
)


def test_subcarrier_spacing_table():
    assert [scs_khz(mu) for mu in range(5)] == [15, 30, 60, 120, 240]


def test_slot_duration_table():
    assert [slot_ms(mu) for mu in range(5)] == [1.0, 0.5, 0.25, 0.125, 0.0625]


@pytest.mark.parametrize("mu", [-1, 5, 2.0, "1"])
def test_bad_mu_rejected(mu):
    with pytest.raises(GnbdimError, match=r"numerology mu must be an integer in \[0, 4\]"):
        scs_khz(mu)
    with pytest.raises(GnbdimError, match=r"numerology mu must be an integer in \[0, 4\]"):
        slot_ms(mu)


def test_spacing_doubles_per_step():
    for mu in range(4):
        assert scs_khz(mu + 1) == 2 * scs_khz(mu)


def test_time_frequency_duality():
    # Spacing times slot duration is invariant across numerologies.
    assert all(scs_khz(mu) * slot_ms(mu) == 15.0 for mu in range(5))


class TestValidateBandwidth:
    def test_fr1_member(self):
        validate_bandwidth("FR1", 100)

    def test_fr2_member(self):
        validate_bandwidth("FR2", 400)

    def test_non_member(self):
        with pytest.raises(GnbdimError, match="400 MHz is not an allowed FR1 channel bandwidth"):
            validate_bandwidth("FR1", 400)

    def test_override_set(self):
        validate_bandwidth("FR1", 7, allowed={"FR1": (7, 14)})
        with pytest.raises(GnbdimError, match="100 MHz is not an allowed FR1 channel bandwidth"):
            validate_bandwidth("FR1", 100, allowed={"FR1": (7, 14)})

    def test_unknown_range(self):
        with pytest.raises(GnbdimError, match="unknown frequency range 'FR3'"):
            validate_bandwidth("FR3", 100)


class TestPrbCount:
    @pytest.mark.parametrize(
        "bw,mu,expected", [(100, 1, 250), (5, 0, 25), (5, 4, 1)]
    )
    def test_known_counts(self, bw, mu, expected):
        assert prb_count(bw, mu, 0.1) == expected

    def test_nothing_fits(self):
        with pytest.raises(GnbdimError, match="no PRB fits"):
            prb_count(5, 4, 0.9)

    def test_bad_guard(self):
        with pytest.raises(ValueError):
            prb_count(100, 1, 1.0)
        with pytest.raises(ValueError):
            prb_count(100, 1, -0.1)

    def test_non_increasing_in_mu(self):
        for bw in (5, 20, 50, 100):
            counts = []
            for mu in range(5):
                try:
                    counts.append(prb_count(bw, mu))
                except GnbdimError:
                    counts.append(0)
            assert counts == sorted(counts, reverse=True)

    def test_non_decreasing_in_bandwidth(self):
        for mu in range(5):
            counts = [prb_count(bw, mu) for bw in (20, 40, 60, 80, 100)]
            assert counts == sorted(counts)

    def test_occupancy_never_exceeds_usable_bandwidth(self):
        for bw in (5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100):
            for mu in range(5):
                for guard in (0.0, 0.1, 0.2, 0.25):
                    try:
                        n = prb_count(bw, mu, guard)
                    except GnbdimError:
                        continue
                    occupied = n * 12 * scs_khz(mu) * 1e3
                    usable = (1 - guard) * bw * 1e6
                    # Allowance matches the float nudge inside prb_count.
                    assert occupied <= usable + 1e-9 * 12 * scs_khz(mu) * 1e3


class TestTypes:
    def test_frequency_range_consistency(self):
        FrequencyRange("FR1", 3.5)
        FrequencyRange("FR2", 28.0)
        with pytest.raises(ValueError):
            FrequencyRange("FR1", 28.0)
        with pytest.raises(ValueError):
            FrequencyRange("FR2", 3.5)
        # TS 38.104 Table 5.1-1: FR1 is 410 MHz to 7.125 GHz, FR2 24.25 to 71 GHz.
        for band, ghz in (("FR1", 0.41), ("FR1", 6.5), ("FR1", 7.125), ("FR2", 24.25),
                          ("FR2", 71.0)):
            assert FrequencyRange(band, ghz).carrier_ghz == ghz
        for band, ghz in (("FR1", 0.1), ("FR1", 7.2), ("FR2", 6.5), ("FR2", 24.0),
                          ("FR2", 72.0), ("FR1", float("nan"))):
            with pytest.raises(ValueError, match=f"^carrier_ghz must be in .* for {band}"):
                FrequencyRange(band, ghz)

    def test_bwp_prbs_must_fit(self):
        with pytest.raises(ValueError):
            BandwidthPart(mu=1, bw_mhz=5, n_prb=100)

    def test_nr_config_checks_bwp_sum(self):
        fr = FrequencyRange("FR1", 3.5)
        b60 = bandwidth_part(mu=1, bw_mhz=60)
        b50 = bandwidth_part(mu=1, bw_mhz=50)
        NrConfig(fr=fr, bwps=(b60,), channel_bw_mhz=100)
        with pytest.raises(ValueError):
            NrConfig(fr=fr, bwps=(b60, b50), channel_bw_mhz=100)

    def test_nr_config_defaults_to_widest_channel(self):
        cfg = NrConfig(
            fr=FrequencyRange("FR1", 3.5),
            bwps=(bandwidth_part(mu=1, bw_mhz=50),),
        )
        assert cfg.channel_bw_mhz == 100.0

    def test_nr_config_requires_a_bwp(self):
        with pytest.raises(ValueError):
            NrConfig(fr=FrequencyRange("FR1", 3.5), bwps=())

    def test_bwp_bandwidth_must_be_allowed(self):
        with pytest.raises(GnbdimError, match="60 MHz is not an allowed FR2 channel bandwidth"):
            NrConfig(
                fr=FrequencyRange("FR2", 28.0),
                bwps=(bandwidth_part(mu=3, bw_mhz=60),),
            )
