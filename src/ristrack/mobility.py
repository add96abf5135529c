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

What a seed adds to a walk is its draw, the initial gain: along a segment
the gain has a closed form in r2, and it is linear in the initial gain. A
:class:`Walk` holds theta2 and r2 (8 bytes per slot each, read-only) and
where each segment starts, and for one geometry its channel: the gain
chained from an initial gain of 1, with the geometry's seed-free factors.
A :class:`Trajectory` is the walk, which every seed of it shares, and the
seed's initial gain b0, which scales the walk's channel: that is the one
gain there is. `generate_path` builds both, and ``traj[:end]`` cuts a
trajectory to its walk's first `end` slots, ``walk[:end]``, which views the
walk's columns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .wavefield import TWO_PI, LinkGeometry

_ACOS_CLAMP_TOL = 1e-9
_RAYLEIGH_SCALE = 1.0 / math.sqrt(2.0)  # of |b0|: E|b0|^2 = 2 * scale^2 = 1


@dataclass(frozen=True)
class ChannelState:
    """RIS-UE channel at one slot: complex gain, departure angle, distance."""

    beta: complex
    theta2: float
    r2: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.r2 < np.inf:
            raise ValueError(f"r2 must be finite and > 0, got {self.r2}")
        if not -np.inf < self.theta2 < np.inf:
            raise ValueError(f"theta2 must be finite, got {self.theta2}")
        if not (cmath.isfinite(self.beta) and self.beta != 0):
            raise ValueError(f"beta must be nonzero and finite, got {self.beta}")


@dataclass(frozen=True)
class TrajectorySpec:
    """The first straight walk segment plus the draw of the initial gain.

    The initial gain has Rayleigh magnitude of unit mean square, E|b0|^2 =
    1, and uniform phase, drawn from ``rng_seed``.
    """

    theta2_init: float = np.deg2rad(20.0)
    r2_init: float = 4.0
    psi_a: float = np.deg2rad(110.0)
    speed_v: float = 0.6
    slot_duration_t0: float = 15.6e-6
    path_length: float = 3.0
    rng_seed: int | None = None

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("speed_v", "slot_duration_t0", "path_length", "r2_init"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not -np.pi / 2 < self.theta2_init < np.pi / 2:
            raise ValueError("theta2_init must lie in (-pi/2, pi/2)")
        if not -np.inf < self.psi_a < np.inf:
            raise ValueError(f"psi_a must be finite, got {self.psi_a}")


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
    mag = rng.rayleigh(_RAYLEIGH_SCALE)
    phase = rng.uniform(0.0, TWO_PI)
    return complex(mag * np.exp(1j * phase))


def _segment_gain(b0: complex, r0: float, r2: np.ndarray, geom: LinkGeometry) -> np.ndarray:
    """beta at the distances `r2` of a segment that starts from gain b0 at r0.

    The closed form of the one-slot law: beta scales by (r1+r0)/(r1+r2) and
    rotates by the extra travel phase 2*pi*(r2-r0)/lambda. These are the bits
    of (b0 * rho_prod) * np.exp(1j * 2*pi*(r2 - r0) / lambda), elementwise,
    so a slot has the same bits in any block or cut that holds it. The
    product is not taken in place: numpy rounds a one-element complex product
    written over one of its operands differently.
    """
    rho_prod = (geom.r1 + r0) / (geom.r1 + r2)
    return np.multiply(b0 * rho_prod, np.exp(1j * (TWO_PI * (r2 - r0) * (1.0 / geom.wavelength))))


# slots per block of a channel build, and of the engine's passes over a whole
# run: a full-length temporary would hold another column
_BLOCK = 65536


class Walk:
    """What the seeds of a walk share: theta2 and r2 at every slot and where each segment starts.

    `generate_path` builds a walk on read-only columns of its own, and
    ``walk[:end]`` cuts one. ``r0`` is the distance just before slot 1.
    ``uncut_slots`` is the slot count of the walk that was generated, which a
    cut keeps: the receiver noise is drawn for that many slots, so a cut's
    noise is the whole walk's first slots. A walk also keeps its channel
    under one geometry (see `channel`).
    """

    def __init__(self, theta2: np.ndarray, r2: np.ndarray, starts: tuple[int, ...],
                 r0: float, uncut_slots: int):
        self.theta2, self.r2, self.starts = theta2, r2, starts
        self.r0, self.uncut_slots = r0, uncut_slots
        self._channel = (None, None, None)  # the last geometry asked, its kdu and channel

    def __len__(self) -> int:
        return self.theta2.shape[0]

    def __getitem__(self, cut: slice) -> Walk:
        """The first `end` slots: views of these columns and the segment starts below `end`."""
        if not isinstance(cut, slice) or cut.start not in (None, 0) or cut.step not in (None, 1):
            raise ValueError("a walk is cut only by a prefix slice [:end]")
        end = cut.indices(len(self))[1]
        return Walk(self.theta2[:end], self.r2[:end],
                    tuple(s for s in self.starts if s < end) or (0,), self.r0,
                    self.uncut_slots)

    def channel(self, geom: LinkGeometry) -> tuple[np.ndarray, np.ndarray]:
        """kdu and the channel of a unit initial gain under `geom`, read-only.

        kdu = kd*(sin(theta1) - sin(theta2)), and the channel is
        exp(-j*(N-1)*kdu/2) * (c * u), u being the gain of `_segment_gain`
        from an initial gain of 1 at r0, each later segment starting from the
        segment before at its last slot: a trajectory's gain is its initial
        gain times u. The channel is built block by block, its products out
        of place. Both are kept for the last geometry asked, the channel only
        from its second request on: a walk that one trajectory simulates holds
        no more than it.
        """
        kept_geom, kdu, channel = self._channel
        if kept_geom != geom:
            # the old geometry's columns are not held while these are built
            self._channel = (None, None, None)
            kdu = geom.kd * (np.sin(geom.theta1) - np.sin(self.theta2))
            kdu.setflags(write=False)
        elif channel is not None:
            return kdu, channel
        n = len(self)
        c = geom.beamformer_gain
        channel = np.empty(n, dtype=complex)
        gain, ref, bounds = 1.0 + 0.0j, self.r0, self.starts + (n,)
        # exp * (c * u), out of place: complex products round by FMA, so
        # the order shows in the last bit, and so does a one-element product
        # written over one of its operands
        for a, b in zip(bounds, bounds[1:]):
            if a:  # from the segment before at its last slot
                gain, ref = complex(unit[-1]), float(self.r2[a - 1])
            for lo in range(a, b, _BLOCK):
                hi = min(b, lo + _BLOCK)
                pexp = np.exp(1j * ((-0.5 * (geom.n_ris - 1)) * kdu[lo:hi]))
                unit = _segment_gain(gain, ref, self.r2[lo:hi], geom)
                np.multiply(pexp, np.multiply(c, unit), out=channel[lo:hi])
        channel.setflags(write=False)
        self._channel = (geom, kdu, channel if kept_geom == geom else None)
        return kdu, channel


class Trajectory:
    """A seed's channel along a walk of one or more straight segments.

    ``b0`` is the seed's initial gain, the gain just before slot 1, and
    ``walk`` the :class:`Walk`, whose read-only ``theta2`` and ``r2`` and
    segment ``starts`` are exposed here too. That is all a trajectory is: a
    run builds its gain under the run's geometry, b0 times the walk's
    unit-gain channel (`Walk.channel`), so a trajectory runs under any
    geometry. ``traj[:end]`` is the trajectory with the same b0 on the
    walk's first `end` slots, ``walk[:end]``. `generate_path` builds a
    trajectory on the walk it keeps, so every seed of a walk gets the same
    one.

    ``columns`` holds the engine's slot columns for the (geometry, noise seed)
    it was last simulated under, or None.
    """

    def __init__(self, b0: complex, walk: Walk):
        if not (cmath.isfinite(b0) and b0 != 0):  # also on NaN
            raise ValueError(f"b0 must be nonzero and finite, got {b0}")
        self.b0, self.walk = b0, walk
        self.theta2, self.r2, self.starts = walk.theta2, walk.r2, walk.starts
        self.columns = None

    def __len__(self) -> int:
        return self.theta2.shape[0]

    def __getitem__(self, cut: slice) -> Trajectory:
        return Trajectory(self.b0, self.walk[cut])


# the last walk generated, under the spec fields it reads and its continuations
_LAST_WALK: dict[tuple, Walk] = {}


def _walk(spec: TrajectorySpec, continuations) -> Walk:
    """The walk of `spec` and its continuations, the last one kept for the next seed.

    The seed only draws the initial gain, so every draw of a walk gets the
    same one. A walk that fails a check raises on every call and is not
    kept.
    """
    key = (replace(spec, rng_seed=None), tuple(map(tuple, continuations)))
    walk = _LAST_WALK.get(key)
    if walk is not None:
        return walk
    _LAST_WALK.clear()  # the old walk is not held while the new one is built
    theta0, r0 = spec.theta2_init, spec.r2_init
    parts = []
    bounds = [0]
    for k, (psi, length) in enumerate(((spec.psi_a, spec.path_length), *continuations), 1):
        if not (math.isfinite(length) and length > 0):
            raise ValueError(f"segment {k} of the walk: length must be finite and > 0, "
                             f"got {length}")
        t = np.arange(1, slot_count(replace(spec, path_length=length)) + 1, dtype=float)
        s = spec.speed_v * spec.slot_duration_t0 * t
        theta2, r2 = _walk_geometry(theta0, r0, psi, s)
        if not -np.pi / 2 < theta2.min() <= theta2.max() < np.pi / 2:  # also on NaN
            i = int(np.argmax(~(np.abs(theta2) < np.pi / 2)))
            raise ValueError(f"theta2 leaves the front half-plane (-90, 90) deg at slot "
                             f"{bounds[-1] + i + 1}: {np.rad2deg(theta2[i]):.9g} deg")
        parts.append((theta2, r2))
        bounds.append(bounds[-1] + t.size)
        theta0, r0 = float(theta2[-1]), float(r2[-1])
    # a straight walk keeps its arrays rather than copying them
    theta2, r2 = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    for arr in (theta2, r2):
        arr.setflags(write=False)
    walk = _LAST_WALK[key] = Walk(theta2, r2, tuple(bounds[:-1]), spec.r2_init, bounds[-1])
    return walk


def generate_path(
    spec: TrajectorySpec,
    continuations: tuple[tuple[float, float], ...],
    geom: LinkGeometry,
) -> Trajectory:
    """The trajectory of `spec`'s segment chained with (psi_a, length) continuations.

    Each segment starts at the previous segment's last slot, so the arrays
    are continuous by construction. Equal seeds give identical trajectories.
    `geom` is not read: a trajectory is its walk and its initial gain, and a
    run builds the gain under its own geometry (`Walk.channel`).

    The seed only draws the initial gain, so the :class:`Walk` (theta2, r2
    and the segment starts) is built once for the last walk generated, and
    the trajectories of all its draws share it with the channel it keeps.
    Each call only draws its gain; no column is built.

    Raises ValueError for a segment length that is not finite and > 0, and
    when theta2 leaves the front half-plane (-pi/2, pi/2) at any slot.
    """
    return Trajectory(_draw_beta(spec), _walk(spec, continuations))
