"""Ground-truth user trajectory and per-slot RIS-UE channel evolution.

A walk segment is anchored at point A, described by the initial departure
angle theta2, the initial RIS-UE distance r2, the walking-direction angle
psi_a (measured at A between the A->RIS ray and the walking direction) and a
length. Slot t (t = 1..n) corresponds to displacement s = v*t*t0 along the
segment, so the anchor itself is the state just before the first slot. A walk
is a chain of segments, each anchored at the previous one's last slot, and
must keep theta2 inside the front half-plane (-pi/2, pi/2) at every slot.

The per-element geometry follows the triangle RIS-A-user: distances come from
the law of cosines about A, the departure angle from the law of cosines about
the RIS with the sign of the increment set by the side the user walks to
(positive for sin(psi_a) >= 0). Both are cross-checked against a planar
Cartesian polyline in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .wavefield import TWO_PI, LinkGeometry

_ACOS_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class ChannelState:
    """RIS-UE channel at one slot: complex gain, departure angle, distance."""

    beta: complex
    theta2: float
    r2: float
    slot_index: int = 0

    def __post_init__(self):
        if self.r2 <= 0:
            raise ValueError(f"r2 must be > 0, got {self.r2}")
        if abs(self.beta) == 0:
            raise ValueError("beta must be nonzero")


@dataclass(frozen=True)
class TrajectorySpec:
    """The first straight walk segment plus the initial channel anchor.

    The initial gain has Rayleigh magnitude (scale ``rayleigh_scale``) and
    uniform phase, drawn from ``rng_seed``.
    """

    theta2_init: float = np.deg2rad(20.0)
    r2_init: float = 4.0
    psi_a: float = np.deg2rad(110.0)
    speed_v: float = 0.6
    slot_duration_t0: float = 15.6e-6
    path_length: float = 3.0
    rng_seed: int | None = None
    rayleigh_scale: float = 1.0 / math.sqrt(2.0)  # unit mean-square magnitude

    def __post_init__(self):
        if self.speed_v <= 0:
            raise ValueError(f"speed_v must be > 0, got {self.speed_v}")
        if self.slot_duration_t0 <= 0:
            raise ValueError(f"slot_duration_t0 must be > 0, got {self.slot_duration_t0}")
        if self.path_length <= 0:
            raise ValueError(f"path_length must be > 0, got {self.path_length}")
        if self.r2_init <= 0:
            raise ValueError(f"r2_init must be > 0, got {self.r2_init}")
        if not -np.pi / 2 < self.theta2_init < np.pi / 2:
            raise ValueError("theta2_init must lie in (-pi/2, pi/2)")
        if self.rayleigh_scale <= 0:
            raise ValueError("rayleigh_scale must be > 0")


def slot_count(spec: TrajectorySpec) -> int:
    """Number of slots needed to cover the segment: ceil(length / (v*t0))."""
    return int(math.ceil(spec.path_length / (spec.speed_v * spec.slot_duration_t0)))


def _walk_geometry(theta0: float, r0: float, psi: float, s):
    """theta2 and r2 after walking a straight line `s` metres from (theta0, r0)."""
    r2 = np.sqrt(r0**2 + np.square(s) - 2.0 * r0 * s * np.cos(psi))
    arg = (r0**2 + np.square(r2) - np.square(s)) / (2.0 * r0 * r2)
    if np.any(np.abs(arg) > 1.0 + _ACOS_CLAMP_TOL):
        raise ValueError("degenerate triangle: acos argument outside [-1, 1]")
    arg = np.clip(arg, -1.0, 1.0)
    sign = 1.0 if math.sin(psi) >= 0.0 else -1.0
    return theta0 + sign * np.arccos(arg), r2


def _draw_beta(spec: TrajectorySpec) -> complex:
    rng = np.random.default_rng(spec.rng_seed)
    mag = rng.rayleigh(spec.rayleigh_scale)
    phase = rng.uniform(0.0, TWO_PI)
    return complex(mag * np.exp(1j * phase))


class Trajectory:
    """Per-slot channel states of a walk of one or more straight segments.

    ``traj[i]`` is slot i+1's :class:`ChannelState`; the underlying
    ``theta2``, ``r2`` and ``beta`` arrays are exposed for vectorised
    consumers. ``anchor`` is the state just before slot 1.
    """

    def __init__(self, anchor: ChannelState, theta2, r2, beta):
        self.anchor = anchor
        self.theta2 = np.asarray(theta2, dtype=float)
        self.r2 = np.asarray(r2, dtype=float)
        self.beta = np.asarray(beta, dtype=complex)
        for arr in (self.theta2, self.r2, self.beta):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.theta2.shape[0]

    def __getitem__(self, i: int) -> ChannelState:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return ChannelState(
            beta=complex(self.beta[i]),
            theta2=float(self.theta2[i]),
            r2=float(self.r2[i]),
            slot_index=i + 1,
        )


def generate_path(
    spec: TrajectorySpec,
    continuations: tuple[tuple[float, float], ...],
    geom: LinkGeometry,
) -> Trajectory:
    """Ground-truth channel of `spec`'s segment chained with (psi_a, length) continuations.

    Each segment starts at the previous segment's last slot, so the arrays
    are continuous by construction. Within a segment the gain chain
    telescopes: |beta|*(r1+r2) is invariant and the phase advances by
    2*pi*(r2(t)-r2_start)/lambda. Equal seeds give identical trajectories.

    Raises ValueError for a segment length that is not finite and > 0, and
    when theta2 leaves the front half-plane (-pi/2, pi/2) at any slot.
    """
    anchor = ChannelState(beta=_draw_beta(spec), theta2=spec.theta2_init, r2=spec.r2_init)
    theta0, r0, b0 = anchor.theta2, anchor.r2, anchor.beta
    parts = []
    for k, (psi, length) in enumerate(((spec.psi_a, spec.path_length), *continuations), 1):
        if not (math.isfinite(length) and length > 0):
            raise ValueError(f"segment {k} of the walk: length must be finite and > 0, "
                             f"got {length}")
        t = np.arange(1, slot_count(replace(spec, path_length=length)) + 1, dtype=float)
        s = spec.speed_v * spec.slot_duration_t0 * t
        theta2, r2 = _walk_geometry(theta0, r0, psi, s)
        if not -np.pi / 2 < theta2.min() <= theta2.max() < np.pi / 2:  # also on NaN
            i = int(np.argmax(~(np.abs(theta2) < np.pi / 2)))
            slot = sum(len(part[0]) for part in parts) + i + 1
            raise ValueError(f"theta2 leaves the front half-plane (-90, 90) deg at slot {slot}: "
                             f"{np.rad2deg(theta2[i]):.9g} deg")
        # closed form of the one-slot law: beta scales by (r1+r2_prev)/(r1+r2_next)
        # and rotates by the extra travel phase 2*pi*(r2_next-r2_prev)/lambda
        rho_prod = (geom.r1 + r0) / (geom.r1 + r2)
        beta = b0 * rho_prod * np.exp(1j * TWO_PI * (r2 - r0) / geom.wavelength)
        parts.append((theta2, r2, beta))
        theta0, r0, b0 = float(theta2[-1]), float(r2[-1]), complex(beta[-1])
    # a straight walk keeps its arrays rather than copying them
    theta2, r2, beta = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return Trajectory(anchor, theta2, r2, beta)
