"""Link geometry, array-response and phase-wrapping primitives shared by every module.

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

# Phases closer to 0 (mod 2*pi) than this snap to exactly 0 so that equality
# tests across different update paths are deterministic.
PHASE_SNAP = 1e-12


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


def steering_vector(angle: float, count: int, spacing_d: float, wavelength: float) -> np.ndarray:
    """Uniform-linear-array response at `angle` (radians from broadside).

    Entry k equals exp(-1j * (2*pi*spacing_d/wavelength) * k * sin(angle));
    the first entry is exactly 1.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if spacing_d <= 0 or wavelength <= 0:
        raise ValueError("spacing_d and wavelength must be > 0")
    k = np.arange(count)
    return np.exp(-1j * (TWO_PI * spacing_d / wavelength) * k * np.sin(angle))


def unit_phasors(y: np.ndarray) -> np.ndarray:
    """cos(y) + 1j*sin(y) for real phases `y`.

    These are the bits of np.exp(1j * y), without its complex pass.
    """
    out = np.empty(y.shape, dtype=complex)
    np.cos(y, out=out.real)
    np.sin(y, out=out.imag)
    return out


def wrap_two_pi(phases):
    """Wrap phases to [0, 2*pi), snapping values within 1e-12 of the seam to 0."""
    if isinstance(phases, float) or np.ndim(phases) == 0:  # float covers np.float64
        out = float(phases) % TWO_PI
        return 0.0 if out < PHASE_SNAP or out > TWO_PI - PHASE_SNAP else out
    out = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    return np.where((out < PHASE_SNAP) | (out > TWO_PI - PHASE_SNAP), 0.0, out)


def wrap_principal(x):
    """Wrap angles to the principal interval (-pi, pi]."""
    if isinstance(x, float) or np.ndim(x) == 0:
        return -((-float(x) + math.pi) % TWO_PI - math.pi)
    y = np.negative(np.asarray(x, dtype=float))
    y += np.pi
    out = np.mod(y, TWO_PI)
    out -= np.pi
    return np.negative(out, out=out)
