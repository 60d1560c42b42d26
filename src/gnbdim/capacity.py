"""Capacity dimensioning: NR configuration to cell capacity, then to cell range.

Capacity is average spectral efficiency times occupied bandwidth, summed
over bandwidth parts, minus a signalling overhead fraction. Subscribers
are assumed uniformly distributed, so the capacity cell range follows
from how many of them one cell can absorb at the target load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coverage import HEX_AREA_FACTOR, hexagon_area_km2
from .errors import ZeroSubscribersError
from .nr import NrConfig

DEFAULT_OVERHEAD_FRACTION = 0.14


@dataclass(frozen=True)
class TrafficModel:
    """Busy-hour demand model for a uniform subscriber population."""

    demand_per_sub_mbps: float
    target_load: float = 1.0
    se_bps_per_hz: float = 4.0
    overhead_fraction: float = DEFAULT_OVERHEAD_FRACTION

    def __post_init__(self) -> None:
        if self.demand_per_sub_mbps <= 0:
            raise ValueError("demand_per_sub_mbps must be > 0")
        if not 0 < self.target_load <= 1:
            raise ValueError("target_load must be in (0, 1]")
        if self.se_bps_per_hz <= 0:
            raise ValueError("se_bps_per_hz must be > 0")
        if not 0 <= self.overhead_fraction < 1:
            raise ValueError("overhead_fraction must be in [0, 1)")


def cell_capacity_mbps(cfg: NrConfig, traffic: TrafficModel) -> float:
    """Sum of BWP throughputs: n_prb * 12 * scs * SE * (1 - overhead)."""
    total_bps = sum(
        bwp.occupied_bw_hz * traffic.se_bps_per_hz for bwp in cfg.bwps
    ) * (1.0 - traffic.overhead_fraction)
    return total_bps / 1e6


def max_subs_per_cell(capacity_mbps: float, traffic: TrafficModel) -> int:
    """Subscribers one cell absorbs at the target load (floor)."""
    n = math.floor(traffic.target_load * capacity_mbps / traffic.demand_per_sub_mbps)
    if n < 1:
        raise ZeroSubscribersError(
            f"one subscriber at {traffic.demand_per_sub_mbps} Mbit/s exceeds "
            f"{traffic.target_load:.2f} x {capacity_mbps:.1f} Mbit/s cell capacity"
        )
    return n


def capacity_radius(
    capacity_mbps: float, traffic: TrafficModel, rho_subs_per_km2: float
) -> float:
    """Hexagon circumradius whose cell holds max_subs at density ``rho``."""
    if rho_subs_per_km2 <= 0:
        raise ValueError("rho_subs_per_km2 must be > 0")
    n = max_subs_per_cell(capacity_mbps, traffic)
    cell_area = n / rho_subs_per_km2
    return math.sqrt(cell_area / HEX_AREA_FACTOR)


def sites_for_capacity(area_km2: float, rho_subs_per_km2: float, max_subs: int) -> int:
    """Sites needed so every subscriber in the area has cell capacity."""
    if max_subs < 1:
        raise ValueError("max_subs must be >= 1")
    return math.ceil(area_km2 * rho_subs_per_km2 / max_subs)


def offered_load(
    radius_km: float,
    rho_subs_per_km2: float,
    traffic: TrafficModel,
    capacity_mbps: float,
) -> float:
    """Offered traffic of one cell over its capacity; may exceed 1."""
    offered_mbps = (
        hexagon_area_km2(radius_km) * rho_subs_per_km2 * traffic.demand_per_sub_mbps
    )
    return offered_mbps / capacity_mbps
