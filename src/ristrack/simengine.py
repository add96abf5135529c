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

A status is scanned in pieces whose size follows the status before it.
After a short status (or none), each piece is a fixed window of slots whose
received samples are evaluated under the status configuration in one call.
After a long status of L slots, each piece is one span of 2L slots (capped),
since the next status tends to last about as long: a few evenly strided
slots of the span are probed first, the first probed slot below threshold
bounds the trigger from above, and the span is then evaluated only up to
that slot, where the first crossing is found exactly, also one between
probes. In the piece that holds the trigger slot the samples past that slot
are discarded, since those slots belong to the event and to the next status.
A probed sample is that slot's exact sample, and the evaluation up to the
bound decides the trigger, so the piece sizes and probes set speed, not the
slot kinds or ids.

Every scan window, probe, span and training slice is evaluated by one function,
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

A run keeps two per-slot columns, `rss` and `inst_rate`, and a status table
with one row per run of slots that share a kind, a status id, a config id
(stepped by one per slot of a training slice) and a normalisation reference:
about five rows per event. The other ledger columns (`kind`,
`rss_normalized`, `cum_rate`, `config_id`, `status_id`) are derived from
these over any range of slots, row by row, whenever they are read; the
ledger writer derives them one block of rows at a time, continuing the
running rate sum from block to block. `inst_rate` stays kept because the
rate-gap metric reads it whole for every tracker and its oracle.
"""

from __future__ import annotations

import cmath
import enum
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .mobility import Trajectory
from .ris import _dirichlet, optimal_config, update_config
from .tracking import SearchGrid, measure_observables, select_by_training, two_dim_search
from .wavefield import LinkGeometry

# How a status is scanned; these set speed, not slot kinds or ids.
_SCAN_WINDOW = 1024  # slots per window after a short status
_LONG_STATUS = 1024  # a status after one of at least this many slots is scanned in spans
_SCAN_SPAN = 65536   # most slots in one span
_PROBE_SLOTS = 128   # most strided slots probed before a span is evaluated


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
    resolution_deg: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.resolution_deg <= 360.0:
            raise ValueError(f"resolution must be in (0, 360], got {self.resolution_deg}")

    @property
    def name(self) -> str:
        return f"exhaustive_{self.resolution_deg:g}deg"

    @property
    def slopes(self) -> np.ndarray:
        """Swept slopes 0, res, 2*res, ... below 360 degrees in radians, so already wrapped."""
        return np.deg2rad(np.arange(0.0, 360.0, self.resolution_deg))


@dataclass(frozen=True, eq=False)  # identity equality: arrays have no single truth value
class Timeline:
    """Ledger columns of a run of slots, one array per column.

    A `StatusTimeline` hands out its columns as one of these per block of
    slots; one can also be built from explicit columns.
    """

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

    def block(self, lo: int, hi: int, carry: float | None = None) -> tuple[Timeline, float | None]:
        """Slots [lo, hi) of every column; `cum_rate` is given, so `carry` passes through."""
        return Timeline(self.kind[lo:hi], self.rss[lo:hi], self.rss_normalized[lo:hi],
                        self.inst_rate[lo:hi], self.cum_rate[lo:hi], self.config_id[lo:hi],
                        self.status_id[lo:hi], self.theta2_true[lo:hi], self.policy_name,
                        self.gamma, self.tracking_calls), carry


@dataclass(frozen=True, eq=False)
class StatusTable:
    """A timeline's slots as runs that share a kind, a status id, a config id and a reference.

    Row i covers slots first[i] <= slot < first[i + 1]; the last entry of
    `first` is the slot count. Each slot of a row takes the row's kind and
    status id and is normalised to the row's `rss_ref`. A DL_TRAINING row's
    first slot takes the row's config id and each later slot the next one;
    every other slot takes the row's. A status gives one DATA row from its
    reference slot, and its event the rows of the trigger slot, the feedback
    slots and the training slice; these already take the next status id but
    are still normalised to the ended status's reference. A trajectory that
    ends on an event's opening feedback slot leaves its training row empty.
    """

    first: np.ndarray      # int64, one entry per row and the slot count
    kind: np.ndarray       # int8
    status_id: np.ndarray  # int32
    config_id: np.ndarray  # int32
    rss_ref: np.ndarray    # float64

    def span(self, lo: int, hi: int) -> tuple[slice, np.ndarray]:
        """The rows that hold slots [lo, hi), and how many of those slots each holds."""
        first = self.first
        i = int(np.searchsorted(first, lo, "right")) - 1
        j = int(np.searchsorted(first, hi, "left"))
        lengths = np.diff(first[i:j + 1])
        if j > i:
            lengths[0] -= lo - first[i]
            lengths[-1] -= first[j] - hi
        return slice(i, j), lengths

    def spread(self, column: str, lo: int, hi: int,
               span: tuple[slice, np.ndarray] | None = None) -> np.ndarray:
        """The per-slot values of row column `column` over slots [lo, hi), row by row.

        `span` is ``self.span(lo, hi)``, handed in when columns share it.
        """
        rows, lengths = self.span(lo, hi) if span is None else span
        values = np.repeat(getattr(self, column)[rows], lengths)
        if column == "config_id":
            # a training row's slot s takes id + s - first
            for r in np.flatnonzero(self.kind[rows] == SlotKind.DL_TRAINING).tolist():
                start = int(self.first[rows.start + r])
                a, b = max(start, lo), min(int(self.first[rows.start + r + 1]), hi)
                values[a - lo:b - lo] += np.arange(a - start, b - start, dtype=np.int32)
        return values


def _running_mean(inst: np.ndarray, lo: int, hi: int,
                  carry: float | None) -> tuple[np.ndarray, float]:
    """`cum_rate` over slots [lo, hi), and the running sum of `inst` through hi.

    The slots are accumulated behind `carry`, the running sum through lo, so
    a block continues the one sequential np.cumsum of `cumulative_rate` bit
    for bit; adding the carry to the block's own sums would round
    differently. A carry of None is summed here from slot 0.
    """
    if carry is None:
        carry = float(np.cumsum(inst[:lo])[-1]) if lo else 0.0
    sums = np.cumsum(np.concatenate(([carry], inst[lo:hi])))
    total = float(sums[-1])
    cum = sums[1:]
    cum /= np.arange(lo + 1, hi + 1, dtype=float)  # exact slot counts
    return cum, total


@dataclass(frozen=True, eq=False)
class StatusTimeline:
    """A simulated run: its `rss` and `inst_rate` columns and its status table.

    The other ledger columns follow from these. `block` derives them over a
    range of slots, and the properties of the same names over every slot.
    None of them is kept: each access computes its column afresh, so read a
    column into a local before indexing it in a loop.
    """

    rss: np.ndarray
    inst_rate: np.ndarray
    statuses: StatusTable
    theta2_true: np.ndarray
    policy_name: str
    gamma: float
    tracking_calls: int

    def __len__(self) -> int:
        return self.rss.shape[0]

    def block(self, lo: int, hi: int, carry: float | None = None) -> tuple[Timeline, float]:
        """The ledger columns of slots [lo, hi), and the running `inst_rate` sum through hi.

        `carry` is the running sum through lo, as the block before returned
        it; None sums it here from slot 0.
        """
        table = self.statuses
        span = table.span(lo, hi)
        rss = self.rss[lo:hi]
        cum, carry = _running_mean(self.inst_rate, lo, hi, carry)
        return Timeline(table.spread("kind", lo, hi, span), rss,
                        rss / table.spread("rss_ref", lo, hi, span), self.inst_rate[lo:hi], cum,
                        table.spread("config_id", lo, hi, span),
                        table.spread("status_id", lo, hi, span), self.theta2_true[lo:hi],
                        self.policy_name, self.gamma, self.tracking_calls), carry

    @property
    def kind(self) -> np.ndarray:
        return self.statuses.spread("kind", 0, len(self))

    @property
    def rss_normalized(self) -> np.ndarray:
        return self.rss / self.statuses.spread("rss_ref", 0, len(self))

    @property
    def cum_rate(self) -> np.ndarray:
        return _running_mean(self.inst_rate, 0, len(self), 0.0)[0]

    @property
    def config_id(self) -> np.ndarray:
        return self.statuses.spread("config_id", 0, len(self))

    @property
    def status_id(self) -> np.ndarray:
        return self.statuses.spread("status_id", 0, len(self))


@dataclass(frozen=True)
class RunMetrics:
    """Headline numbers of one timeline run.

    `avg_error_vs_oracle` is the mean over all slots of |inst_rate -
    oracle inst_rate| (NaN without an oracle run). It is not the gap between
    the final cumulative rates: slot-level swaps count in both directions
    (a retrained tracker beating an aged genie configuration adds as much as
    falling behind it), so for the proposed tracker it is about twice that gap.
    """

    final_cum_rate: float
    pct_below_threshold: float
    tracking_calls: int
    avg_error_vs_oracle: float = math.nan

    @property
    def cumulative_rate_series(self) -> np.ndarray:
        """The final rate alone, as the last entry of a one-slot series."""
        return np.array([self.final_cum_rate])


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


def overhead_report(records: StatusTimeline, gamma: float,
                    oracle_records: StatusTimeline | None = None) -> RunMetrics:
    """Signaling accounting: share of non-data slots and tracking-call count.

    Below-threshold, training and feedback slots all count as non-data; the
    status table counts them. The slot kinds were fixed against the run's
    threshold when it was simulated, so `gamma` is not read here. When an
    oracle run over the same trajectory is supplied, the mean absolute
    instantaneous-rate gap is included.
    """
    n = len(records)
    table = records.statuses
    nondata = int(np.diff(table.first)[table.kind != SlotKind.DATA].sum())
    err = math.nan
    if oracle_records is not None:
        if oracle_records.inst_rate.shape != records.inst_rate.shape:
            raise ValueError("oracle run must cover the same slots")
        err = float(np.mean(np.abs(records.inst_rate - oracle_records.inst_rate)))
    return RunMetrics(
        # cum_rate's last entry: the sequential running sum over all n slots, over n
        final_cum_rate=float(np.cumsum(records.inst_rate)[-1]) / n,
        pct_below_threshold=100.0 * (nondata / n),
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


def _received_samples(cols: _SlotColumns, lo: int, hi: int, slope,
                      step: int = 1) -> np.ndarray:
    """Received samples of slots lo, lo + step, ... below hi under `slope`.

    `slope` is one for all slots or one per slot. Every scan window, probe,
    span and training slice goes through here: the Dirichlet form
    exp(j*(N-1)*s/2) * phase * D(s - kdu) + noise, elementwise, where the
    slope's half of the phase is one scalar for a scan.
    """
    d, _ = _dirichlet(slope - cols.kdu[lo:hi:step], cols.n_ris)
    # on one slope cmath.exp gives np.exp's value without numpy's call cost
    exp = np.exp if isinstance(slope, np.ndarray) else cmath.exp
    turn = exp(0.5j * (cols.n_ris - 1) * slope)
    return turn * cols.phase[lo:hi:step] * d + cols.noise[lo:hi:step]


def run_timeline(
    trajectory: Trajectory,
    policy,
    geom: LinkGeometry,
    noise_seed: int | None = None,
    noise_enabled: bool = True,
    threshold_mode: str = "normalized",
) -> StatusTimeline:
    """Drive one policy over a trajectory and return its run: `rss`, `inst_rate`, statuses.

    `threshold_mode="normalized"` compares strength against the status
    reference (portable thresholds in (0, 1]); `"absolute"` compares raw
    strength. Either way a fresh status re-evaluates from the slot after its
    reference slot, so at most one event fires per trigger. A status after
    one shorter than `_LONG_STATUS` slots (or the first status) is scanned in
    windows of `_SCAN_WINDOW` slots. A status after one of L >= `_LONG_STATUS`
    slots is scanned in spans of max(`_SCAN_WINDOW`, min(2L, `_SCAN_SPAN`))
    slots: at most `_PROBE_SLOTS` evenly strided slots of a span are
    evaluated first, and the span is evaluated only up to the first probed
    slot below threshold. Samples past the trigger slot are discarded, and
    those slots are evaluated again as signaling or under the next
    configuration. Only `rss` and the status table are written while the
    timeline runs; `inst_rate` follows from them at the end, and the other
    ledger columns are derived when read. Identical inputs and seeds give
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

    rss = np.zeros(n, dtype=float)
    rows: list[tuple] = []  # the status table, row by row in slot order

    is_oracle = isinstance(policy, OraclePolicy)
    is_proposed = isinstance(policy, ProposedPolicy)

    # initial access leaves the surface aligned to the first slot's channel
    slope = optimal_config(geom.theta1, float(theta2[0]), geom)
    config_id = 0
    next_config_id = 1
    status = 1
    events = 0
    believed_sin = math.sin(float(theta2[0]))
    believed_r = geom.r1 + float(trajectory.r2[0])

    # a row from slot lo to the next row, in the current status and reference
    def row(lo: int, k: SlotKind, cfg_id: int) -> None:
        rows.append((lo, k, status, cfg_id, rss_ref))

    # slots [lo, hi) of the current status cut to end just past the first of
    # its probed slots below threshold; the reference slot is never a trigger
    def probe_bound(lo: int, hi: int) -> int:
        step = -(-(hi - lo) // _PROBE_SLOTS)
        power = np.abs(_received_samples(cols, lo, hi, slope, step)) ** 2
        ref = rss_ref if rss_ref >= 0 else max(float(power[0]), 1e-300)
        level = power / ref if normalized else power
        first = int(lo == ref_idx)
        below = np.nonzero(level[first:] < policy.gamma)[0]
        return lo + (first + int(below[0])) * step + 1 if below.size else hi

    cursor = 0
    last_len = 0  # slots of the status before, 0 before the first
    while cursor < n:
        ref_idx = cursor
        rss_ref = -1.0
        y_ref = 0j
        t2 = -1
        y_t2 = 0j
        probed = last_len >= _LONG_STATUS
        size = max(_SCAN_WINDOW, min(2 * last_len, _SCAN_SPAN)) if probed else _SCAN_WINDOW
        scan = cursor
        while scan < n:
            hi = min(n, scan + size)
            if probed:
                hi = probe_bound(scan, hi)
            y = _received_samples(cols, scan, hi, slope)
            power = np.abs(y) ** 2
            if rss_ref < 0:
                rss_ref = max(float(power[0]), 1e-300)
                y_ref = complex(y[0])
            rss[scan:hi] = power
            start = max(scan, ref_idx + 1)
            if start < hi:
                level = power[start - scan :]
                if normalized:
                    level = level / rss_ref
                below = np.nonzero(level < policy.gamma)[0]
                if below.size:
                    t2 = start + int(below[0])
                    y_t2 = complex(y[t2 - scan])
                    break
            scan = hi
        # a span's samples are not kept through the event and the next scan
        y = power = level = None

        row(ref_idx, SlotKind.DATA, config_id)
        if t2 < 0:
            break

        events += 1
        status += 1
        last_len = t2 + 1 - ref_idx
        row(t2, SlotKind.DATA_BELOW_THRESHOLD, config_id)
        cursor = t2 + 1

        if is_oracle:
            if cursor < n:
                slope = optimal_config(geom.theta1, float(theta2[cursor]), geom)
                config_id = next_config_id
                next_config_id += 1
            continue

        if cursor >= n:
            break
        # a feedback slot receives nothing; a discarded scan sample may sit there
        row(cursor, SlotKind.UL_FEEDBACK, config_id)
        rss[cursor] = 0.0
        cursor += 1

        if is_proposed:
            theta_ref = math.asin(max(-1.0, min(1.0, believed_sin)))
            obs = measure_observables(y_ref, y_t2, believed_r, theta_ref)
            candidates = two_dim_search(obs, policy.grid, geom)
            slopes = update_config(slope, [c.w_cand for c in candidates], geom)
        else:
            slopes = policy.slopes
        # training slot cursor+i measures candidate i while the user keeps moving
        hi = min(n, cursor + slopes.size)
        power = np.abs(_received_samples(cols, cursor, hi, slopes[: hi - cursor])) ** 2
        row(cursor, SlotKind.DL_TRAINING, next_config_id)
        rss[cursor:hi] = power
        if hi - cursor < slopes.size:
            break
        cursor = hi
        if is_proposed:
            best = select_by_training(candidates, power)
            believed_sin += candidates[best].w_cand
            believed_r = candidates[best].r_cand
        else:
            best = int(np.argmax(power))
        slope = slopes[best]
        config_id = next_config_id + best
        next_config_id += slopes.size

        if cursor < n:
            row(cursor, SlotKind.UL_FEEDBACK, config_id)
            rss[cursor] = 0.0
            cursor += 1

    firsts, kinds, statuses, configs, refs = zip(*rows)
    table = StatusTable(np.array(firsts + (n,), np.int64), np.array(kinds, np.int8),
                        np.array(statuses, np.int32), np.array(configs, np.int32),
                        np.array(refs, float))
    # instantaneous_rate of the data slots, the rest 0, built in place: a
    # temporary column here sits at the run's memory peak (5 MB of peak RSS
    # over the default scenario's five trackers)
    inst = rss / geom.noise_var
    inst += 1.0
    np.log2(inst, out=inst)
    inst[table.spread("kind", 0, n) != SlotKind.DATA] = 0.0
    for arr in (rss, inst, *vars(table).values()):
        arr.setflags(write=False)
    return StatusTimeline(rss, inst, table, trajectory.theta2, policy.name, policy.gamma,
                          events)
