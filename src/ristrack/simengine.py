"""Slot-accurate timeline: status state machine, signaling accounting, metrics.

The timeline walks the trajectory slot by slot. Within a status the RIS
configuration is fixed and slots carry downlink data; the received strength is
normalised to a reference captured at the first data slot after each
(re)configuration. When the normalised strength first drops below the policy
threshold the slot is accounted as a below-threshold data slot and a tracking
event runs: one uplink feedback slot, the policy's downlink training slots
(none for the genie), one closing feedback slot, then data resumes with the
new configuration. The user keeps moving during signaling, and the
instantaneous rate of every non-data slot is zero.

A status is scanned in fixed windows of slots: each window's received samples
are evaluated under the status configuration in one call, and in the window
that holds the trigger slot the samples past that slot are discarded, since
those slots belong to the event and to the next status. So at most one window
of samples is thrown away per event; the window size sets speed, not the
slot kinds or ids.

Every scan window and training slice is evaluated by one function,
`_received_samples`, from three read-only columns of the trajectory that do
not depend on the tracker: kd*(sin(theta1) - sin(theta2)), the amplitude
times exp(-j*(N-1)*kd*(sin(theta1) - sin(theta2))/2), and the receiver
noise. They are built once per (trajectory, geometry, noise seed) and kept
while the trajectory lives, so all trackers of a seed share them. A sample
is then exp(j*(N-1)*slope/2) * phase * D(slope - kd*u) + noise, with the
real Dirichlet kernel D of :mod:`ristrack.ris`; a scan window computes one
complex exponential, not one per slot.

Training is one slice of slots. The policy supplies the slopes of its
candidate configurations: the proposed tracker one per candidate of the
two-dimensional search (the differential update law applied to the current
configuration), the exhaustive sweep its degree grid. The event's i-th
training slot is received under candidate i with that slot's channel, all
of them in one evaluation; candidate i takes the i-th configuration id after
the last one used, and the strongest candidate is installed under its id.
When the trajectory ends mid-training the event stays counted but open: no
closing feedback slot and no new configuration.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .baselines import SweepSpec
from .mobility import Trajectory
from .ris import RisConfiguration, _dirichlet, optimal_config, update_config
from .tracking import SearchGrid, measure_observables, select_by_training, two_dim_search
from .wavefield import LinkGeometry

_SCAN_WINDOW = 1024  # slots per scan window; sets speed, not slot kinds or ids


class SlotKind(enum.IntEnum):
    DATA = 0
    DATA_BELOW_THRESHOLD = 1
    DL_TRAINING = 2
    UL_FEEDBACK = 3


@dataclass(frozen=True)
class OraclePolicy:
    """Genie reconfiguration at zero signaling cost."""

    gamma: float = 0.9

    @property
    def name(self) -> str:
        return "oracle"


@dataclass(frozen=True)
class ProposedPolicy:
    """Differential-update tracker driven by the two-dimensional search."""

    gamma: float = 0.9
    grid: SearchGrid = field(default_factory=SearchGrid)

    @property
    def name(self) -> str:
        return "proposed"


@dataclass(frozen=True)
class ExhaustivePolicy:
    """Sweep-everything baseline; gamma here is the sweep trigger threshold."""

    gamma: float = 0.5
    sweep: SweepSpec = field(default_factory=SweepSpec)

    @property
    def name(self) -> str:
        return f"exhaustive_{self.sweep.resolution_deg:g}deg"


@dataclass(frozen=True, eq=False)  # identity equality: arrays have no single truth value
class Timeline:
    """Column-oriented slot ledger: one read-only array per ledger column."""

    kind: np.ndarray
    rss: np.ndarray
    rss_normalized: np.ndarray
    inst_rate: np.ndarray
    cum_rate: np.ndarray
    config_id: np.ndarray
    status_id: np.ndarray
    theta2_true: np.ndarray
    policy_name: str
    gamma: float
    tracking_calls: int

    def __len__(self) -> int:
        return self.kind.shape[0]


@dataclass(frozen=True)
class RunMetrics:
    """Headline numbers of one timeline run.

    `avg_error_vs_oracle` is the mean over all slots of |inst_rate -
    oracle inst_rate| (NaN without an oracle run). It is not the gap between
    the final cumulative rates: slot-level swaps count in both directions
    (a retrained tracker beating an aged genie configuration adds as much as
    falling behind it), so for the proposed tracker it is about twice that gap.
    """

    cumulative_rate_series: np.ndarray
    pct_below_threshold: float
    tracking_calls: int
    avg_error_vs_oracle: float = math.nan


def instantaneous_rate(rss, noise_var: float):
    """Spectral efficiency log2(1 + rss/noise_var) of one data slot."""
    rss = np.asarray(rss, dtype=float)
    if np.any(rss < 0):
        raise ValueError("rss must be >= 0")
    if noise_var <= 0:
        raise ValueError("noise_var must be > 0")
    out = np.log2(1.0 + rss / noise_var)
    return float(out) if out.ndim == 0 else out


def cumulative_rate(rates) -> np.ndarray:
    """Running mean of per-slot instantaneous rates over all elapsed slots."""
    rates = np.asarray(rates, dtype=float)
    if rates.size == 0:
        raise ValueError("empty rate series")
    return np.cumsum(rates) / np.arange(1, rates.size + 1)


def overhead_report(records: Timeline, gamma: float,
                    oracle_records: Timeline | None = None) -> RunMetrics:
    """Signaling accounting: share of non-data slots and tracking-call count.

    Below-threshold, training and feedback slots all count as non-data. The
    slot kinds were fixed against the run's threshold when it was simulated,
    so `gamma` is not read here. When an oracle run over the same trajectory
    is supplied, the mean absolute instantaneous-rate gap is included.
    """
    pct = 100.0 * float(np.mean(records.kind != int(SlotKind.DATA)))
    err = math.nan
    if oracle_records is not None:
        if oracle_records.inst_rate.shape != records.inst_rate.shape:
            raise ValueError("oracle run must cover the same slots")
        err = float(np.mean(np.abs(records.inst_rate - oracle_records.inst_rate)))
    return RunMetrics(
        cumulative_rate_series=records.cum_rate,
        pct_below_threshold=pct,
        tracking_calls=records.tracking_calls,
        avg_error_vs_oracle=err,
    )


@dataclass(frozen=True, eq=False)
class _SlotColumns:
    """Tracker-independent columns of one (trajectory, geometry, noise) triple.

    `kdu` is kd * (sin(theta1) - sin(theta2)), so a slot's per-element step
    under slope s is s - kdu; `phase` is the slot's amplitude times
    exp(-j*(N-1)*kdu/2), the slope-free half of the Dirichlet phase; `noise`
    is the slot's receiver noise.
    """

    kdu: np.ndarray
    phase: np.ndarray
    noise: np.ndarray
    n_ris: int


# one entry per live trajectory: (geometry, noise seed, noise on) and its columns
_COLUMNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _slot_columns(trajectory: Trajectory, geom: LinkGeometry, noise_seed: int | None,
                  noise_enabled: bool) -> _SlotColumns:
    """The trajectory's columns, built once per (geometry, noise seed, noise on).

    They are kept as long as the trajectory lives, so every tracker of a seed
    shares one evaluation of its channel and noise. An unseeded noise draw is
    fresh on every call and never kept.
    """
    key = (geom, noise_seed, noise_enabled)
    kept = _COLUMNS.get(trajectory)
    if kept is not None and kept[0] == key:
        return kept[1]
    n = len(trajectory)
    kdu = geom.kd * (np.sin(geom.theta1) - np.sin(trajectory.theta2))
    amp = geom.beamformer_gain * geom.alpha * trajectory.beta
    phase = amp * np.exp(-0.5j * (geom.n_ris - 1) * kdu)
    if noise_enabled:
        rng = np.random.default_rng(noise_seed)
        scale = math.sqrt(geom.noise_var / 2.0)
        noise = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    else:
        noise = np.zeros(n, dtype=complex)
    for arr in (kdu, phase, noise):
        arr.setflags(write=False)
    cols = _SlotColumns(kdu, phase, noise, geom.n_ris)
    if noise_seed is not None or not noise_enabled:
        _COLUMNS[trajectory] = (key, cols)
    return cols


def _received_samples(cols: _SlotColumns, lo: int, hi: int, slope) -> np.ndarray:
    """Received samples of slots [lo, hi) under `slope`, one for all or one per slot.

    Every scan window and training slice goes through here: the Dirichlet
    form exp(j*(N-1)*s/2) * phase * D(s - kdu) + noise, where the slope's
    half of the phase is one scalar for a scan window.
    """
    d, _ = _dirichlet(slope - cols.kdu[lo:hi], cols.n_ris)
    turn = np.exp(0.5j * (cols.n_ris - 1) * np.asarray(slope))
    return turn * cols.phase[lo:hi] * d + cols.noise[lo:hi]


def run_timeline(
    trajectory: Trajectory,
    policy,
    geom: LinkGeometry,
    noise_seed: int | None = None,
    noise_enabled: bool = True,
    threshold_mode: str = "normalized",
) -> Timeline:
    """Drive one policy over a trajectory and return the slot ledger.

    `threshold_mode="normalized"` compares strength against the status
    reference (portable thresholds in (0, 1]); `"absolute"` compares raw
    strength. Either way a fresh status re-evaluates from the slot after its
    reference slot, so at most one event fires per trigger. A status is
    scanned in fixed windows of `_SCAN_WINDOW` slots; samples past the trigger
    slot are discarded, and those slots are evaluated again as signaling or
    under the next configuration. Identical inputs and seeds give
    bit-identical ledgers.
    """
    n = len(trajectory)
    if n == 0:
        raise ValueError("empty trajectory")
    if threshold_mode not in ("normalized", "absolute"):
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    normalized = threshold_mode == "normalized"
    if normalized and not 0.0 < policy.gamma <= 1.0:
        raise ValueError("normalized mode needs gamma in (0, 1]")
    if not normalized and policy.gamma <= 0:
        raise ValueError("absolute mode needs gamma > 0")

    theta2 = trajectory.theta2
    cols = _slot_columns(trajectory, geom, noise_seed, noise_enabled)

    kind = np.zeros(n, dtype=np.int8)
    rss = np.zeros(n, dtype=float)
    rss_norm = np.zeros(n, dtype=float)
    config_col = np.zeros(n, dtype=np.int32)
    status_col = np.zeros(n, dtype=np.int32)

    is_oracle = isinstance(policy, OraclePolicy)
    is_proposed = isinstance(policy, ProposedPolicy)

    # initial access leaves the surface aligned to the first slot's channel
    config = optimal_config(geom.theta1, float(theta2[0]), geom, config_id=0)
    next_config_id = 1
    status = 1
    events = 0
    believed_sin = math.sin(float(theta2[0]))
    believed_r = geom.r1 + float(trajectory.r2[0])

    # slots [lo, hi) of the current status, normalised to its reference
    def write(lo: int, hi: int, k: SlotKind, power, cfg_id) -> None:
        kind[lo:hi] = int(k)
        rss[lo:hi] = power
        rss_norm[lo:hi] = power / rss_ref
        config_col[lo:hi] = cfg_id
        status_col[lo:hi] = status

    cursor = 0
    while cursor < n:
        ref_idx = cursor
        rss_ref = -1.0
        y_ref = 0j
        t2 = -1
        y_t2 = 0j
        scan = cursor
        while scan < n:
            hi = min(n, scan + _SCAN_WINDOW)
            y = _received_samples(cols, scan, hi, config.slope)
            power = np.abs(y) ** 2
            if rss_ref < 0:
                rss_ref = max(float(power[0]), 1e-300)
                y_ref = complex(y[0])
            write(scan, hi, SlotKind.DATA, power, config.config_id)
            start = max(scan, ref_idx + 1)
            if start < hi:
                level = rss_norm[scan:hi] if normalized else power
                below = np.nonzero(level[start - scan :] < policy.gamma)[0]
                if below.size:
                    t2 = start + int(below[0])
                    y_t2 = complex(y[t2 - scan])
                    break
            scan = hi

        if t2 < 0:
            break

        events += 1
        status += 1
        kind[t2] = int(SlotKind.DATA_BELOW_THRESHOLD)
        status_col[t2] = status
        cursor = t2 + 1

        if is_oracle:
            if cursor < n:
                config = optimal_config(geom.theta1, float(theta2[cursor]), geom,
                                        config_id=next_config_id)
                next_config_id += 1
            continue

        if cursor >= n:
            break
        write(cursor, cursor + 1, SlotKind.UL_FEEDBACK, 0.0, config.config_id)
        cursor += 1

        if is_proposed:
            theta_ref = math.asin(max(-1.0, min(1.0, believed_sin)))
            obs = measure_observables(y_ref, y_t2, believed_r, theta_ref)
            candidates = two_dim_search(obs, policy.grid, geom)
            slopes = np.array([update_config(config, c.w_cand, geom).slope
                               for c in candidates])
        else:
            slopes = policy.sweep.slopes
        # training slot cursor+i measures candidate i while the user keeps moving
        hi = min(n, cursor + slopes.size)
        power = np.abs(_received_samples(cols, cursor, hi, slopes[: hi - cursor])) ** 2
        write(cursor, hi, SlotKind.DL_TRAINING, power, next_config_id + np.arange(hi - cursor))
        if hi - cursor < slopes.size:
            break
        cursor = hi
        if is_proposed:
            best = select_by_training(candidates, power)
            believed_sin += candidates[best].w_cand
            believed_r = candidates[best].r_cand
        else:
            best = int(np.argmax(power))
        config = RisConfiguration(slopes[best], geom.n_ris, next_config_id + best)
        next_config_id += slopes.size

        if cursor < n:
            write(cursor, cursor + 1, SlotKind.UL_FEEDBACK, 0.0, config.config_id)
            cursor += 1

    inst = np.where(kind == int(SlotKind.DATA), instantaneous_rate(rss, geom.noise_var), 0.0)
    cum = cumulative_rate(inst)
    for arr in (kind, rss, rss_norm, inst, cum, config_col, status_col):
        arr.setflags(write=False)
    return Timeline(kind, rss, rss_norm, inst, cum, config_col, status_col,
                    trajectory.theta2, policy.name, policy.gamma, events)
