"""Exhaustive-sweep baseline for the beam-tracking comparison.

The sweep trains on every configuration phi_k = k*phi2 with phi2 on a
half-open degree grid over [0, 360). The timeline engine probes the grid's
slopes as one slice of training slots and installs the strongest; the genie
baseline is the aligned law itself (:func:`ristrack.ris.optimal_config` at the
true angle) and needs nothing here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SweepSpec:
    """Exhaustive sweep of the second element's phase over [0, 360) degrees."""

    resolution_deg: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.resolution_deg <= 360.0:
            raise ValueError(f"resolution must be in (0, 360], got {self.resolution_deg}")

    @property
    def slopes(self) -> np.ndarray:
        """Swept slopes phi2 = 0, res, 2*res, ... below 360 degrees, in radians.

        The grid lies in [0, 2*pi), so the slopes are already wrapped.
        """
        return np.deg2rad(np.arange(0.0, 360.0, self.resolution_deg))
