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
A :class:`Trajectory` references the walk, which every seed of it shares,
and holds each segment's initial gain, evaluating the gain whenever it is
read; the engine instead scales the walk's channel by the anchor's gain.
`generate_path` builds both, and ``traj[:end]`` cuts a trajectory to its
walk's first `end` slots, ``walk[:end]``, which views the walk's columns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .wavefield import TWO_PI, LinkGeometry, unit_phasors

_ACOS_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class ChannelState:
    """RIS-UE channel at one slot: complex gain, departure angle, distance."""

    beta: complex
    theta2: float
    r2: float
    slot_index: int = 0

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
        # written so that NaN fails every check
        for name in ("speed_v", "slot_duration_t0", "path_length", "r2_init", "rayleigh_scale"):
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
    mag = rng.rayleigh(spec.rayleigh_scale)
    phase = rng.uniform(0.0, TWO_PI)
    return complex(mag * np.exp(1j * phase))


def _segment_gain(b0: complex, r0: float, r2: np.ndarray, geom: LinkGeometry,
                  out: np.ndarray | None = None) -> np.ndarray:
    """beta at the distances `r2` of a segment that starts from gain b0 at r0, into `out`.

    The closed form of the one-slot law: beta scales by (r1+r0)/(r1+r2) and
    rotates by the extra travel phase 2*pi*(r2-r0)/lambda. These are the bits
    of (b0 * rho_prod) * np.exp(1j * 2*pi*(r2 - r0) / lambda), elementwise,
    so one slot evaluated alone has the bits it has in a whole column. The
    product is not taken in place: numpy rounds a one-element complex product
    written over one of its operands differently.
    """
    rho_prod = (geom.r1 + r0) / (geom.r1 + r2)
    return np.multiply(b0 * rho_prod, unit_phasors(TWO_PI * (r2 - r0) * (1.0 / geom.wavelength)),
                       out=out)


def _chain(b0: complex, r0: float, r2: np.ndarray, starts: tuple[int, ...],
           geom: LinkGeometry) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """Each segment's initial gain from b0 at r0, and the distance just before its first slot.

    A later segment starts from the closed form of the segment before at its
    last slot, evaluated on that slot alone.
    """
    gains, refs = [b0], [r0]
    for lo in starts[1:]:
        gains.append(complex(_segment_gain(gains[-1], refs[-1], r2[lo - 1:lo], geom)[0]))
        refs.append(float(r2[lo - 1]))
    return tuple(gains), tuple(refs)


def _gain_range(gains: tuple[complex, ...], refs: tuple[float, ...], r2: np.ndarray,
                starts: tuple[int, ...], geom: LinkGeometry, lo: int, hi: int) -> np.ndarray:
    """The gain chained from `gains` at slots [lo, hi), segment by segment, in one new column."""
    out = np.empty(hi - lo, dtype=complex)
    bounds = starts + (r2.shape[0],)
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        a, b = max(a, lo), min(b, hi)
        if a < b:
            _segment_gain(gains[k], refs[k], r2[a:b], geom, out[a - lo:b - lo])
    return out


# slots per block of a channel build: a full-length temporary would hold
# another column of the walk
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
        if cut.start not in (None, 0) or cut.step not in (None, 1):
            raise ValueError("a walk is cut only by a prefix slice [:end]")
        end = cut.indices(len(self))[1]
        return Walk(self.theta2[:end], self.r2[:end],
                    tuple(s for s in self.starts if s < end) or (0,), self.r0,
                    self.uncut_slots)

    def channel(self, geom: LinkGeometry) -> tuple[np.ndarray, np.ndarray]:
        """kdu and the channel of a unit initial gain under `geom`, read-only.

        kdu = kd*(sin(theta1) - sin(theta2)), and the channel is
        exp(-j*(N-1)*kdu/2) * (c*alpha * u), u being the gain chained with
        `_segment_gain` from an initial gain of 1 at r0: a trajectory's gain
        is its initial gain times u up to rounding. The channel is built block
        by block, its products out of place. Both are kept for the last
        geometry asked, the channel only from its second request on: a walk
        that one trajectory simulates holds no more than it.
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
        gains, refs = _chain(1.0 + 0.0j, self.r0, self.r2, self.starts, geom)
        c_alpha = geom.beamformer_gain * geom.alpha
        channel = np.empty(n, dtype=complex)
        # exp * (c*alpha * u), out of place: complex products round by FMA, so
        # the order shows in the last bit, and so does a one-element product
        # written over one of its operands
        for lo in range(0, n, _BLOCK):
            hi = min(n, lo + _BLOCK)
            pexp = unit_phasors((-0.5 * (geom.n_ris - 1)) * kdu[lo:hi])
            unit = _gain_range(gains, refs, self.r2, self.starts, geom, lo, hi)
            amp = np.multiply(c_alpha, unit)
            np.multiply(pexp, amp, out=channel[lo:hi])
        channel.setflags(write=False)
        self._channel = (geom, kdu, channel if kept_geom == geom else None)
        return kdu, channel


class Trajectory:
    """Per-slot channel states of a walk of one or more straight segments.

    ``traj[i]`` is slot i+1's :class:`ChannelState` and ``traj[:end]`` the
    trajectory on the walk's first `end` slots, ``walk[:end]``. ``walk`` is
    the :class:`Walk`, whose read-only ``theta2`` and ``r2`` and segment
    ``starts`` are exposed here too; ``anchor`` is the state just before
    slot 1, at the walk's ``r0``. `generate_path` builds a trajectory on the
    walk it keeps, so every seed of a walk gets the same one.

    The gain is not stored: ``beta`` evaluates it at every slot whenever it
    is read and keeps nothing, so read it into a local before indexing it in
    a loop. Within a segment it follows the closed form of `_segment_gain`
    under `geom` from the segment's initial gain, ``segment_gains``: the
    anchor's for the first segment, and for each later one the closed form
    of the segment before at its last slot. Of `geom` the gain reads r1 and
    the wavelength only, and `run_timeline` runs a trajectory only under a
    geometry that has the same two. ``traj[i]`` evaluates slot i alone, with
    the bits it has in ``beta``.

    ``columns`` holds the engine's slot columns for the (geometry, noise seed)
    it was last simulated under, or None.
    """

    def __init__(self, anchor: ChannelState, walk: Walk, geom: LinkGeometry):
        if anchor.r2 != walk.r0:
            raise ValueError(f"the anchor must sit where the walk starts: r2 {anchor.r2} "
                             f"against the walk's r0 {walk.r0}")
        self.anchor, self.walk, self.geom = anchor, walk, geom
        self.theta2, self.r2, self.starts = walk.theta2, walk.r2, walk.starts
        self.columns = None
        self.segment_gains, self._refs = _chain(anchor.beta, anchor.r2, self.r2, self.starts,
                                                geom)

    def __len__(self) -> int:
        return self.theta2.shape[0]

    def beta_range(self, lo: int, hi: int) -> np.ndarray:
        """beta at slots [lo, hi), segment by segment, in one new column."""
        return _gain_range(self.segment_gains, self._refs, self.r2, self.starts, self.geom,
                           lo, hi)

    @property
    def beta(self) -> np.ndarray:
        """The complex gain at every slot, a new writable column on each read."""
        return self.beta_range(0, len(self))

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return Trajectory(self.anchor, self.walk[i], self.geom)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return ChannelState(
            beta=complex(self.beta_range(i, i + 1)[0]),
            theta2=float(self.theta2[i]),
            r2=float(self.r2[i]),
            slot_index=i + 1,
        )


# the last walk generated, under its spec without the seed and its continuations
_LAST_WALK: dict[tuple, Walk] = {}


def _walk(spec: TrajectorySpec, continuations) -> Walk:
    """The walk of `spec` and its continuations, the last one kept for the next seed.

    Nothing in a walk depends on the seed, so every seed of a scenario gets
    the same one. A walk that fails a check raises on every call and is not
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
    """Ground-truth channel of `spec`'s segment chained with (psi_a, length) continuations.

    Each segment starts at the previous segment's last slot, so the arrays
    are continuous by construction. Within a segment the gain chain
    telescopes: |beta|*(r1+r2) is invariant and the phase advances by
    2*pi*(r2(t)-r2_start)/lambda. Equal seeds give identical trajectories.

    The seed only draws the initial gain, so the :class:`Walk` (theta2, r2
    and the segment starts) is built once for the last walk generated, and
    the trajectories of all its seeds share it with the channel it keeps
    (`Walk.channel`). Each call draws its gain and chains the segments'
    initial gains, one slot per segment; no gain column is built (see
    :class:`Trajectory`).

    Raises ValueError for a segment length that is not finite and > 0, and
    when theta2 leaves the front half-plane (-pi/2, pi/2) at any slot.
    """
    anchor = ChannelState(beta=_draw_beta(spec), theta2=spec.theta2_init, r2=spec.r2_init)
    return Trajectory(anchor, _walk(spec, continuations), geom)
