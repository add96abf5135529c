"""Exhaustive-sweep and genie baselines for the beam-tracking comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mobility import ChannelState
from .ris import RisConfiguration, optimal_config
from .wavefield import LinkGeometry


@dataclass(frozen=True)
class SweepSpec:
    """Exhaustive sweep of the second element's phase over (0, 360) degrees."""

    resolution_deg: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.resolution_deg <= 360.0:
            raise ValueError(f"resolution must be in (0, 360], got {self.resolution_deg}")

    @property
    def slots_per_sweep(self) -> int:
        return int(math.ceil(360.0 / self.resolution_deg))


def sweep_configs(sweep: SweepSpec, geom: LinkGeometry, config_id_base: int = 0):
    """Configurations phi_k = k * phi2 for phi2 on the half-open degree grid."""
    for i, phi2_deg in enumerate(np.arange(0.0, 360.0, sweep.resolution_deg)):
        yield RisConfiguration(slope=np.deg2rad(phi2_deg), n_ris=geom.n_ris,
                               config_id=config_id_base + i)


def exhaustive_sweep(
    probe: Callable[[RisConfiguration], float],
    sweep: SweepSpec,
    geom: LinkGeometry,
    config_id_base: int = 0,
) -> tuple[RisConfiguration, int]:
    """Probe every swept configuration once and return the strongest.

    Costs exactly ceil(360/resolution) probe slots. Ties keep the first
    (lowest-phi2) configuration.
    """
    best_cfg = None
    best_rss = -math.inf
    count = 0
    for cfg in sweep_configs(sweep, geom, config_id_base):
        rss = probe(cfg)
        count += 1
        if rss > best_rss:
            best_rss = rss
            best_cfg = cfg
    return best_cfg, count


def oracle_config(channel: ChannelState, geom: LinkGeometry, config_id: int = 0) -> RisConfiguration:
    """Genie configuration: phase-aligned to the ground-truth departure angle.

    Consumes zero training slots; used as the zero-overhead upper bound.
    """
    return optimal_config(geom.theta1, channel.theta2, geom, config_id=config_id)
