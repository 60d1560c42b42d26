"""Link budget analysis: MAPL, propagation models, coverage site count.

The budget is direction-agnostic (one worst-link budget, no UL/DL split).
Both propagation models are linear in log-distance: free space is the
alpha-beta-gamma (ABG) model with alpha 20, beta 32.45 dB and gamma 2
(Sun et al., VTC 2016-Spring). So path loss is one ABG expression, and
its inversion to a cell radius is one exponent, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import GnbdimError, NegativeMaplError

THERMAL_NOISE_DBM_PER_HZ = -174.0

# Regular hexagon with circumradius R has area (3*sqrt(3)/2) * R^2.
HEX_AREA_FACTOR = 3.0 * math.sqrt(3.0) / 2.0

# Radii a MAPL may invert to; covers any plausible macro cell.
BRACKET_MIN_KM = 0.01
BRACKET_MAX_KM = 100.0

# Free space as ABG: (alpha, beta_db, gamma).
FREE_SPACE_ABG = (20.0, 32.45, 2.0)


@dataclass(frozen=True)
class LinkBudget:
    """Powers, gains, and margins between gNB and cell-edge terminal (dB/dBm)."""

    tx_power_dbm: float
    tx_antenna_gain_dbi: float
    tx_losses_db: float
    rx_antenna_gain_dbi: float
    rx_losses_db: float
    noise_figure_db: float
    required_sinr_db: float
    shadow_margin_db: float
    penetration_margin_db: float
    interference_margin_db: float = 0.0
    sensitivity_prbs: int = 1  # cell-edge bandwidth, in PRBs of the first part

    def __post_init__(self) -> None:
        if self.sensitivity_prbs < 1:
            raise ValueError("sensitivity_prbs must be >= 1")
        for name in (
            "tx_losses_db",
            "rx_losses_db",
            "noise_figure_db",
            "shadow_margin_db",
            "penetration_margin_db",
            "interference_margin_db",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class PropagationModel:
    """Free-space or alpha-beta-gamma distance/frequency power law.

    For the ABG form, ``alpha`` is the dB slope per decade of distance
    (ten times the path-loss exponent), ``beta_db`` the 1 m offset and
    ``gamma`` the frequency exponent.
    """

    kind: str
    alpha: float = 0.0
    beta_db: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("free_space", "abg"):
            raise ValueError(f"kind must be 'free_space' or 'abg', got {self.kind!r}")
        if self.kind == "free_space":  # its parameters are FREE_SPACE_ABG
            for name in ("alpha", "beta_db", "gamma"):
                value = getattr(self, name)
                if value != 0:
                    raise ValueError(f"{name} must be 0 or left out for free_space, got {value}")
        elif self.alpha <= 0:
            raise ValueError("alpha must be > 0 for abg")
        elif self.gamma < 0:
            raise ValueError("gamma must be >= 0 for abg")


def free_space() -> PropagationModel:
    return PropagationModel(kind="free_space")


def abg(alpha: float, beta_db: float, gamma: float) -> PropagationModel:
    return PropagationModel(kind="abg", alpha=alpha, beta_db=beta_db, gamma=gamma)


def noise_floor_dbm(bw_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power over ``bw_hz`` plus receiver noise figure."""
    if bw_hz <= 0:
        raise GnbdimError(f"bandwidth must be positive, got {bw_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bw_hz) + noise_figure_db


def budget_before_interference_db(link: LinkBudget, bw_hz: float) -> float:
    """The link budget over ``bw_hz`` before its interference margin.

    Sensitivity is the noise floor plus the required SINR; everything else
    is gains minus losses minus margins, summed left to right.
    """
    sensitivity = noise_floor_dbm(bw_hz, link.noise_figure_db) + link.required_sinr_db
    return (
        link.tx_power_dbm
        + link.tx_antenna_gain_dbi
        - link.tx_losses_db
        + link.rx_antenna_gain_dbi
        - link.rx_losses_db
        - sensitivity
        - link.shadow_margin_db
        - link.penetration_margin_db
    )


def mapl_from_budget_db(budget_db: float, interference_margin_db: float) -> float:
    """The MAPL a budget leaves after its interference margin; never negative."""
    mapl = budget_db - interference_margin_db
    if mapl < 0:
        raise NegativeMaplError(
            f"link budget infeasible: margins leave MAPL at {mapl:.2f} dB"
        )
    return mapl


def mapl_db(link: LinkBudget, bw_hz: float) -> float:
    """Maximum allowed path loss for the cell-edge service over ``bw_hz``."""
    return mapl_from_budget_db(
        budget_before_interference_db(link, bw_hz), link.interference_margin_db
    )


def _abg_terms(model: PropagationModel, f_mhz: float) -> tuple[float, float, float]:
    """``(alpha, beta_db, frequency term in dB)`` of ``model`` at ``f_mhz``."""
    if f_mhz <= 0:
        raise GnbdimError(f"frequency must be positive, got {f_mhz}")
    if model.kind == "free_space":
        alpha, beta_db, gamma = FREE_SPACE_ABG
    else:
        alpha, beta_db, gamma = model.alpha, model.beta_db, model.gamma
    return alpha, beta_db, 10.0 * gamma * math.log10(f_mhz / 1000.0)


def path_loss_db(model: PropagationModel, f_mhz: float, d_km: float) -> float:
    """Path loss of ``model`` at frequency ``f_mhz`` and distance ``d_km``.

    ABG referenced to d0 = 1 m and 1 GHz.
    """
    alpha, beta_db, freq_db = _abg_terms(model, f_mhz)
    if d_km <= 0:
        raise GnbdimError(f"distance must be positive, got {d_km}")
    return beta_db + alpha * math.log10(d_km * 1000.0) + freq_db


def radius_inverse(model: PropagationModel, f_mhz: float) -> Callable[[float], float]:
    """The map from a MAPL to the distance in km at which ``model`` reaches
    it at ``f_mhz``, in closed form; its bracket and terms are computed once.

    The MAPL must map into [BRACKET_MIN_KM, BRACKET_MAX_KM]; that is checked
    first, so a NaN or huge MAPL raises there and never reaches the exponent.
    """
    lo, hi = BRACKET_MIN_KM, BRACKET_MAX_KM
    lo_db, hi_db = path_loss_db(model, f_mhz, lo), path_loss_db(model, f_mhz, hi)
    alpha, beta_db, freq_db = _abg_terms(model, f_mhz)

    def radius_km(mapl_db: float) -> float:
        if not lo_db <= mapl_db <= hi_db:
            raise GnbdimError(
                f"MAPL {mapl_db:.2f} dB maps outside [{lo}, {hi}] km at {f_mhz} MHz"
            )
        d_m = 10.0 ** ((mapl_db - beta_db - freq_db) / alpha)
        return d_m / 1000.0

    return radius_km


def invert_to_radius(model: PropagationModel, f_mhz: float, mapl_db: float) -> float:
    """Distance in km at which ``model`` reaches ``mapl_db``: see :func:`radius_inverse`."""
    return radius_inverse(model, f_mhz)(mapl_db)


def hexagon_area_km2(radius_km: float) -> float:
    return HEX_AREA_FACTOR * radius_km * radius_km


def sites_for_coverage(area_km2: float, radius_km: float) -> int:
    """Omni sites on a hexagonal tessellation covering ``area_km2``."""
    if area_km2 <= 0 or radius_km <= 0:
        raise ValueError("area and radius must be positive")
    return math.ceil(area_km2 / hexagon_area_km2(radius_km))
