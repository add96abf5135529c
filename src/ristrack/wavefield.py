"""Link geometry and phase wrapping, shared by every module.

Angles are radians everywhere inside the library; degree conversion happens
only at the configuration/CLI boundary. Element indexing is zero-based, so a
steering phase written with an (n-1) exponent elsewhere becomes index k here.

Both wraps reduce modulo the double TWO_PI exactly as ``np.mod`` does:
``fmod``, which is exact, then TWO_PI added once to a negative remainder (one
rounding) and a zero remainder made +0. Arrays go through ``np.mod``; scalars
(Python or numpy floats, 0-d arrays) use the float ``%``, which runs the same
``fmod`` and fix-up and still returns ``float``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LinkGeometry:
    """Static scene: arrays, carrier and the fixed AP-RIS hop.

    Defaults follow the reference evaluation setup: a 16-antenna AP, a
    64-element RIS at half-wavelength spacing, 45 deg arrival angle on the
    AP-RIS path and 10 dB transmit SNR over unit-power noise; the AP-RIS
    path gain is 1, so ``snr_linear`` and ``n_tx`` set the signal scale. The
    carrier wavelength defaults to 5 mm (60 GHz); ``spacing=None`` means half
    a wavelength, so a replaced wavelength moves the default spacing with it.
    """

    n_tx: int = 16
    n_ris: int = 64
    wavelength: float = 0.005
    spacing: float | None = None
    theta1: float = np.deg2rad(45.0)
    r1: float = 4.0
    snr_linear: float = 10.0

    def __post_init__(self):
        if self.n_tx < 1:
            raise ValueError(f"n_tx must be >= 1, got {self.n_tx}")
        if self.n_ris < 2:
            # one element has no beam to track: every event would be spent on
            # single noisy samples crossing the threshold
            raise ValueError(f"n_ris must be >= 2, got {self.n_ris}")
        # written so that NaN fails every check
        for name, value in (("wavelength", self.wavelength), ("spacing", self.spacing_d),
                            ("r1", self.r1), ("snr_linear", self.snr_linear)):
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        half_pi = np.pi / 2
        if not -half_pi < self.theta1 < half_pi:
            raise ValueError("theta1 must lie in (-pi/2, pi/2)")

    @property
    def spacing_d(self) -> float:
        """Element spacing in metres: ``spacing``, or half a wavelength when unset."""
        return self.wavelength / 2.0 if self.spacing is None else self.spacing

    @property
    def kd(self) -> float:
        """Per-element phase slope 2*pi*d/lambda (radians per unit sin-angle)."""
        return TWO_PI * self.spacing_d / self.wavelength

    @property
    def beamformer_gain(self) -> float:
        """Scalar c = sqrt(SNR)*|a_AP| = sqrt(SNR * n_tx) of the fixed AP beamformer.

        The beamformer is matched to the AP-RIS path, so the AP's own steering
        angle cancels and does not enter the link.
        """
        return float(np.sqrt(self.snr_linear * self.n_tx))


def wrap_two_pi(phases):
    """Wrap phases modulo 2*pi, as np.mod does: into [0, 2*pi], not [0, 2*pi).

    A negative remainder closer to 0 than half an ulp of TWO_PI rounds to
    TWO_PI itself when TWO_PI is added to it; every other phase lands in
    [0, 2*pi).
    """
    if isinstance(phases, float) or np.ndim(phases) == 0:  # float covers np.float64
        return float(phases) % TWO_PI
    return np.mod(np.asarray(phases, dtype=float), TWO_PI)


def wrap_principal(x):
    """Wrap angles to the principal interval (-pi, pi]."""
    if isinstance(x, float) or np.ndim(x) == 0:
        return -((-float(x) + math.pi) % TWO_PI - math.pi)
    y = np.negative(np.asarray(x, dtype=float))
    y += np.pi
    out = np.mod(y, TWO_PI)
    out -= np.pi
    return np.negative(out, out=out)
