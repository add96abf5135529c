"""Ground-truth user trajectory and per-slot RIS-UE channel evolution.

A walk segment is anchored at point A, described by the initial departure
angle theta2, the initial RIS-UE distance r2, the walking-direction angle
psi_a (measured at A between the A->RIS ray and the walking direction) and a
length. Slot t (t = 1..n) corresponds to displacement s = v*t*t0 along the
segment, so the anchor itself is the state just before the first slot.

The per-element geometry follows the triangle RIS-A-user: distances come from
the law of cosines about A, the departure angle from the law of cosines about
the RIS with the sign of the increment set by the side the user walks to
(positive for sin(psi_a) >= 0). Both are cross-checked against a planar
Cartesian oracle in the test suite.
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
    """One straight walk segment plus the initial channel anchor.

    ``beta_init=None`` draws the initial gain with Rayleigh magnitude
    (scale ``rayleigh_scale``) and uniform phase from ``rng_seed``.
    """

    theta2_init: float = np.deg2rad(20.0)
    r2_init: float = 4.0
    psi_a: float = np.deg2rad(110.0)
    speed_v: float = 0.6
    slot_duration_t0: float = 15.6e-6
    path_length: float = 3.0
    beta_init: complex | None = None
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


def _r2_of_displacement(spec: TrajectorySpec, s):
    return np.sqrt(
        spec.r2_init**2 + np.square(s) - 2.0 * spec.r2_init * s * np.cos(spec.psi_a)
    )


def _theta2_of(spec: TrajectorySpec, s, r2t):
    arg = (spec.r2_init**2 + np.square(r2t) - np.square(s)) / (2.0 * spec.r2_init * r2t)
    if np.any(np.abs(arg) > 1.0 + _ACOS_CLAMP_TOL):
        raise ValueError("degenerate triangle: acos argument outside [-1, 1]")
    arg = np.clip(arg, -1.0, 1.0)
    sign = 1.0 if math.sin(spec.psi_a) >= 0.0 else -1.0
    return spec.theta2_init + sign * np.arccos(arg)


def _draw_beta(spec: TrajectorySpec) -> complex:
    if spec.beta_init is not None:
        return complex(spec.beta_init)
    rng = np.random.default_rng(spec.rng_seed)
    mag = rng.rayleigh(spec.rayleigh_scale)
    phase = rng.uniform(0.0, TWO_PI)
    return complex(mag * np.exp(1j * phase))


class Trajectory:
    """Per-slot channel states of one or more chained segments.

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

    def final_state(self) -> ChannelState:
        return self[len(self) - 1]


def generate_trajectory(spec: TrajectorySpec, geom: LinkGeometry) -> Trajectory:
    """Ground-truth channel for one segment, slots 1..slot_count.

    The gain chain telescopes: |beta|*(r1+r2) is invariant along the walk and
    the phase advances by 2*pi*(r2(t)-r2(1))/lambda relative to the anchor.
    Equal seeds give identical trajectories.
    """
    n = slot_count(spec)
    beta0 = _draw_beta(spec)
    t = np.arange(1, n + 1, dtype=float)
    s = spec.speed_v * spec.slot_duration_t0 * t
    r2 = _r2_of_displacement(spec, s)
    theta2 = _theta2_of(spec, s, r2)
    # closed form of the one-slot law: beta scales by (r1+r2_prev)/(r1+r2_next)
    # and rotates by the extra travel phase 2*pi*(r2_next-r2_prev)/lambda
    rho_prod = (geom.r1 + spec.r2_init) / (geom.r1 + r2)
    beta = beta0 * rho_prod * np.exp(1j * TWO_PI * (r2 - spec.r2_init) / geom.wavelength)
    anchor = ChannelState(beta=beta0, theta2=spec.theta2_init, r2=spec.r2_init, slot_index=0)
    return Trajectory(anchor, theta2, r2, beta)


def follow_on_spec(base: TrajectorySpec, traj: Trajectory, psi_a: float, path_length: float) -> TrajectorySpec:
    """Spec for the next straight segment, anchored at the final state of `traj`."""
    last = traj.final_state()
    return replace(
        base,
        theta2_init=last.theta2,
        r2_init=last.r2,
        psi_a=psi_a,
        path_length=path_length,
        beta_init=last.beta,
        rng_seed=None,
    )


def generate_path(
    spec: TrajectorySpec,
    continuations: tuple[tuple[float, float], ...],
    geom: LinkGeometry,
) -> Trajectory:
    """Chain the primary segment with (psi_a, length) continuations.

    Each continuation starts exactly at the previous segment's final state, so
    the concatenated arrays are continuous by construction.
    """
    parts = [generate_trajectory(spec, geom)]
    prev_spec = spec
    for psi_a, length in continuations:
        prev_spec = follow_on_spec(prev_spec, parts[-1], psi_a, length)
        parts.append(generate_trajectory(prev_spec, geom))
    if len(parts) == 1:
        return parts[0]
    return Trajectory(
        parts[0].anchor,
        np.concatenate([p.theta2 for p in parts]),
        np.concatenate([p.r2 for p in parts]),
        np.concatenate([p.beta for p in parts]),
    )
