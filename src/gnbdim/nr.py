"""NR numerology, bandwidth parts, and the derived time/frequency grid.

Subcarrier spacing is generated as 15 * 2^mu kHz and slot duration as
1 / 2^mu ms, so their product is an invariant 15 kHz*ms for every mu.
PRB counts come from a guard-fraction formula rather than lookup tables;
a per-(bandwidth, mu) override can be supplied where standard-exact
values are wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import GnbdimError

MU_MIN = 0
MU_MAX = 4

# Carrier ranges in GHz (3GPP TS 38.104 Table 5.1-1; FR2 is Rel-17 FR2-1 and FR2-2).
CARRIER_RANGES_GHZ = {"FR1": (0.41, 7.125), "FR2": (24.25, 71.0)}

# Allowed channel bandwidths (MHz) per frequency range; overridable in config.
FR1_BANDWIDTHS_MHZ = (5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100)
FR2_BANDWIDTHS_MHZ = (50, 100, 200, 400)

SUBCARRIERS_PER_PRB = 12
DEFAULT_GUARD_FRACTION = 0.1


def _check_mu(mu: int) -> None:
    if not isinstance(mu, int) or not MU_MIN <= mu <= MU_MAX:
        raise GnbdimError(f"numerology mu must be an integer in [{MU_MIN}, {MU_MAX}], got {mu!r}")


def scs_khz(mu: int) -> int:
    """Subcarrier spacing in kHz for numerology ``mu``: 15 * 2^mu."""
    _check_mu(mu)
    return 15 * (1 << mu)


def prb_hz(mu: int) -> float:
    """Bandwidth of one PRB in Hz for numerology ``mu``: 12 subcarriers."""
    return SUBCARRIERS_PER_PRB * scs_khz(mu) * 1e3


def slot_ms(mu: int) -> float:
    """Slot duration in ms for numerology ``mu``: 1 / 2^mu (also the TTI)."""
    _check_mu(mu)
    return 1.0 / (1 << mu)


def allowed_bandwidths_mhz(
    fr_band: str, allowed: dict[str, tuple[float, ...]] | None = None
) -> tuple[float, ...]:
    """Allowed channel bandwidths of the range; ``allowed`` overrides per range."""
    if allowed and fr_band in allowed:
        return allowed[fr_band]
    if fr_band == "FR1":
        return FR1_BANDWIDTHS_MHZ
    if fr_band == "FR2":
        return FR2_BANDWIDTHS_MHZ
    raise GnbdimError(f"unknown frequency range {fr_band!r}")


def validate_bandwidth(
    fr_band: str,
    bw_mhz: float,
    allowed: dict[str, tuple[float, ...]] | None = None,
) -> None:
    """Raise unless ``bw_mhz`` is an allowed channel bandwidth for the range."""
    table = allowed_bandwidths_mhz(fr_band, allowed)
    if bw_mhz not in table:
        raise GnbdimError(
            f"{bw_mhz} MHz is not an allowed {fr_band} channel bandwidth {sorted(table)}"
        )


def prb_count(bw_mhz: float, mu: int, guard_fraction: float = DEFAULT_GUARD_FRACTION) -> int:
    """PRBs fitting into ``bw_mhz`` after reserving a guard fraction.

    floor((1 - guard) * bw_hz / (12 * scs_hz)); the 1e-9 nudge keeps exact
    integer quotients from landing one ulp below the integer.
    """
    if not 0 <= guard_fraction < 1:
        raise ValueError(f"guard_fraction must be in [0, 1), got {guard_fraction}")
    usable_hz = (1.0 - guard_fraction) * bw_mhz * 1e6
    n = math.floor(usable_hz / prb_hz(mu) + 1e-9)
    if n < 1:
        raise GnbdimError(f"no PRB fits: {bw_mhz} MHz at mu={mu} with guard {guard_fraction}")
    return n


@dataclass(frozen=True)
class FrequencyRange:
    """Carrier frequency and its NR range, inside CARRIER_RANGES_GHZ."""

    band: str
    carrier_ghz: float

    def __post_init__(self) -> None:
        if self.band not in CARRIER_RANGES_GHZ:
            raise ValueError(f"band must be 'FR1' or 'FR2', got {self.band!r}")
        lo, hi = CARRIER_RANGES_GHZ[self.band]
        if not lo <= self.carrier_ghz <= hi:
            raise ValueError(
                f"carrier_ghz must be in [{lo}, {hi}] GHz for {self.band}, got {self.carrier_ghz}"
            )

    @property
    def carrier_mhz(self) -> float:
        return self.carrier_ghz * 1e3


@dataclass(frozen=True)
class BandwidthPart:
    """An adjacent block of PRBs configured with a single numerology."""

    mu: int
    bw_mhz: float
    n_prb: int
    purpose: str = ""

    def __post_init__(self) -> None:
        _check_mu(self.mu)
        if self.n_prb < 1:
            raise GnbdimError("bandwidth part must hold at least one PRB")
        if self.occupied_bw_hz > self.bw_mhz * 1e6:
            raise ValueError(
                f"{self.n_prb} PRBs at mu={self.mu} exceed {self.bw_mhz} MHz"
            )

    @property
    def occupied_bw_hz(self) -> float:
        return prb_hz(self.mu) * self.n_prb


def bandwidth_part(
    mu: int,
    bw_mhz: float,
    purpose: str = "",
    guard_fraction: float = DEFAULT_GUARD_FRACTION,
    n_prb: int | None = None,
) -> BandwidthPart:
    """Build a bandwidth part, deriving the PRB count unless overridden."""
    if n_prb is None:
        n_prb = prb_count(bw_mhz, mu, guard_fraction)
    return BandwidthPart(mu=mu, bw_mhz=bw_mhz, n_prb=n_prb, purpose=purpose)


@dataclass(frozen=True)
class NrConfig:
    """Carrier-level radio configuration: range, channel, and its BWPs."""

    fr: FrequencyRange
    bwps: tuple[BandwidthPart, ...]
    channel_bw_mhz: float = 0.0  # 0 means "use the widest allowed channel"
    allowed: dict[str, tuple[float, ...]] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.bwps:
            raise ValueError("at least one bandwidth part is required")
        if self.channel_bw_mhz == 0.0:
            widest = max(allowed_bandwidths_mhz(self.fr.band, self.allowed))
            object.__setattr__(self, "channel_bw_mhz", float(widest))
        validate_bandwidth(self.fr.band, self.channel_bw_mhz, self.allowed)
        for bwp in self.bwps:
            validate_bandwidth(self.fr.band, bwp.bw_mhz, self.allowed)
        total = sum(bwp.bw_mhz for bwp in self.bwps)
        if total > self.channel_bw_mhz:
            raise ValueError(
                f"bandwidth parts total {total} MHz exceed the "
                f"{self.channel_bw_mhz} MHz channel"
            )
