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

A status is scanned in pieces whose size follows the status before it: a
window of `_SCAN_WINDOW` slots after a shorter status (or none), and after
one of L >= `_SCAN_WINDOW` slots a span of 2L slots (capped), since the next
status tends to last about as long. Each piece is evaluated under the
status configuration and its first slot below threshold is the trigger. A
span is first evaluated at a stride, a coarse pass of the same test, and
its first strided slot below threshold only cuts the span to end there; the
full pass then finds the first crossing exactly, also one between the
strided slots. In the piece that holds the trigger slot the samples past
that slot are discarded, since those slots belong to the event and to the
next status. A strided sample is that slot's exact sample, and the full pass
decides the trigger, so the piece sizes and strides set speed, not the slot
kinds or ids.

Every scan window, coarse pass, span and training slice is evaluated by one
function, `_received_samples`, from the trajectory's initial gain b0 and
three read-only columns that do not depend on the tracker: kdu =
kd*(sin(theta1) - sin(theta2)), the channel, exp(-j*(N-1)*kdu/2) times
c times the walk's gain chained from an initial gain of 1, and the
unit-power receiver noise, zero when the noise seed is None. kdu and the channel do not
depend on the seed either: along a segment the gain is linear in b0, so a
seed's channel is b0 times its walk's, and the walk keeps both
(`Walk.channel`). The trajectory holds its columns for the (geometry, noise
seed) it was last simulated under, so all trackers of a seed share them and
they die with it; since `generate_path` gives every seed of a walk the same
walk, a seed after the first only draws its noise. A sample is then
(exp(j*(N-1)*slope/2) * b0) * channel * D(slope - kdu) + noise, with the
real Dirichlet kernel D of :mod:`ristrack.ris`; a scan window computes one
complex scalar for its slope and b0, not one per slot. This is the one
place the ground-truth gain is evaluated: b0 times the walk's unit-gain
channel.

A policy makes one tracker per run, its only contract with the engine:
`start(theta2, r_total, geom)` at initial access returns it, `event(y_ref,
y_trigger, slope)` returns the slopes an event trains (None: the genie,
aligned to the next slot at no signaling cost) and `choose(power)` the index
to install, updating the tracker's own state, such as the proposed tracker's
belief. The event's i-th training slot is received under candidate i with
that slot's channel, all in one evaluation; candidate i takes the i-th
configuration id after the last one used. When the trajectory ends
mid-training the event stays counted but open: no closing feedback slot, no
choice and no new configuration.

A run keeps one per-slot column, `rss`, and a status table with one row per
run of slots that share a kind, a status id, a config id (stepped by one per
slot of a training slice) and a normalisation reference: about five rows per
event. Every other ledger column (`kind`, `rss_normalized`, `inst_rate`,
`cum_rate`, `config_id`, `status_id`) is derived from these over any range of
slots, row by row, whenever it is read; the ledger writer derives them one
block of rows at a time, continuing the running rate sum from block to block.
A slot's `inst_rate` is log2(1 + rss), rss in units of the noise power, on a
data slot and zero on any other, elementwise, so a block's rates have the
bits of the whole run's.
Running sums over a whole run are taken block by block behind a carry too,
so no full-length cumulative column is held. The rate-gap metric reads the
oracle's rates for every tracker of a seed, the oracle's own report too, so
the oracle's run keeps them (`StatusTimeline.reference_rates`) while it lives.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .mobility import Trajectory
from .ris import _dirichlet, optimal_config, update_config
from .tracking import SearchGrid, measure_observables, select_by_training, two_dim_search
from .wavefield import LinkGeometry

# How a status is scanned; these set speed, not slot kinds or ids.
_SCAN_WINDOW = 1024  # slots per window; a status after one this long or longer gets spans
_SCAN_SPAN = 65536   # most slots in one span
_PROBE_SLOTS = 128   # most strided slots in a span's coarse pass


class SlotKind(enum.IntEnum):
    DATA = 0
    DATA_BELOW_THRESHOLD = 1
    DL_TRAINING = 2
    UL_FEEDBACK = 3


@dataclass(frozen=True)
class OraclePolicy:
    """Genie reconfiguration at zero signaling cost; stateless, so its own tracker."""

    gamma: float = 0.9

    @property
    def name(self) -> str:
        return "oracle"

    def start(self, theta2: float, r_total: float, geom: LinkGeometry) -> OraclePolicy:
        return self

    def event(self, y_ref: complex, y_trigger: complex, slope: float) -> None:
        return None


@dataclass(frozen=True)
class ProposedPolicy:
    """Differential-update tracker driven by the two-dimensional search."""

    gamma: float = 0.9
    grid: SearchGrid = field(default_factory=SearchGrid)

    @property
    def name(self) -> str:
        return "proposed"

    def start(self, theta2: float, r_total: float, geom: LinkGeometry) -> _ProposedTracker:
        return _ProposedTracker(self.grid, geom, math.sin(theta2), r_total)


class _ProposedTracker:
    """One run of the proposed tracker: its belief of sin(theta2) and the total distance."""

    def __init__(self, grid: SearchGrid, geom: LinkGeometry, sin: float, r_total: float):
        self.grid, self.geom, self.candidates = grid, geom, []  # the last event's candidates
        self.believed_sin, self.believed_r = sin, r_total

    def event(self, y_ref: complex, y_trigger: complex, slope: float) -> np.ndarray:
        theta_ref = math.asin(max(-1.0, min(1.0, self.believed_sin)))
        obs = measure_observables(y_ref, y_trigger, self.believed_r, theta_ref)
        self.candidates = two_dim_search(obs, self.grid, self.geom)
        return update_config(slope, [c.w_cand for c in self.candidates], self.geom)

    def choose(self, power) -> int:
        best = select_by_training(self.candidates, power)
        self.believed_sin += self.candidates[best].w_cand
        self.believed_r = self.candidates[best].r_cand
        return best


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

    def start(self, theta2: float, r_total: float, geom: LinkGeometry) -> ExhaustivePolicy:
        return self

    def event(self, y_ref: complex, y_trigger: complex, slope: float) -> np.ndarray:
        return self.slopes

    def choose(self, power) -> int:
        return int(np.argmax(power))


@dataclass(frozen=True, eq=False)  # identity equality: arrays have no single truth value
class Timeline:
    """Ledger columns of a run of slots, one array per column, held explicitly.

    The engine builds none: it returns a `StatusTimeline`, which derives these
    columns. The benchmark's output checks build one to hand them a timeline
    with an altered column.
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


# slots per block of a pass over a whole run or a running sum: a full-length
# temporary would hold another column of the run
_BLOCK = 65536


def _running_mean(inst: np.ndarray, lo: int, carry: float) -> tuple[np.ndarray, float]:
    """`cum_rate` of the slots from lo whose rates are `inst`, and the running sum through them.

    The slots are accumulated behind `carry`, the running sum through lo, so
    a block continues the one sequential np.cumsum of `cumulative_rate` bit
    for bit; adding the carry to the block's own sums would round
    differently.
    """
    sums = np.cumsum(np.concatenate(([carry], inst)))
    total = float(sums[-1])
    cum = sums[1:]
    cum /= np.arange(lo + 1, lo + inst.size + 1, dtype=float)  # exact slot counts
    return cum, total


def _running_sum(inst: np.ndarray) -> float:
    """The last entry of np.cumsum(inst), bit for bit, summed block by block behind a carry."""
    carry = 0.0
    for lo in range(0, inst.size, _BLOCK):
        carry = float(np.cumsum(np.concatenate(([carry], inst[lo:lo + _BLOCK])))[-1])
    return carry


@dataclass(frozen=True, eq=False)
class StatusTimeline:
    """A simulated run: its `rss` column, in units of the noise power, and its status table.

    The other ledger columns follow from these. `block` derives them over a
    range of slots, and the properties of the same names over every slot.
    None of them is kept: each access computes its column afresh, so read a
    column into a local before indexing it in a loop; `reference_rates` is kept.
    """

    rss: np.ndarray
    statuses: StatusTable
    theta2_true: np.ndarray
    policy_name: str
    gamma: float
    tracking_calls: int

    def __len__(self) -> int:
        return self.rss.shape[0]

    def _rates(self, lo: int, hi: int, kind: np.ndarray) -> np.ndarray:
        """`inst_rate` of slots [lo, hi), whose kinds are `kind`: zero off the data slots."""
        rates = instantaneous_rate(self.rss[lo:hi])
        rates[kind != SlotKind.DATA] = 0.0
        return rates

    def block(self, lo: int, hi: int, carry: float) -> tuple[tuple, float]:
        """The ledger's columns of slots [lo, hi), and the running `inst_rate` sum through hi.

        The columns come in ledger order: kind, rss, rss_normalized, inst_rate,
        cum_rate, status_id and config_id. `carry` is the running sum through
        lo: 0.0 for the first block, and for each later one what the block
        before returned.
        """
        table = self.statuses
        span = table.span(lo, hi)
        kind = table.spread("kind", lo, hi, span)
        rss = self.rss[lo:hi]
        inst = self._rates(lo, hi, kind)
        cum, carry = _running_mean(inst, lo, carry)
        return (kind, rss, rss / table.spread("rss_ref", lo, hi, span), inst, cum,
                table.spread("status_id", lo, hi, span),
                table.spread("config_id", lo, hi, span)), carry

    @property
    def kind(self) -> np.ndarray:
        return self.statuses.spread("kind", 0, len(self))

    @property
    def rss_normalized(self) -> np.ndarray:
        return self.rss / self.statuses.spread("rss_ref", 0, len(self))

    @property
    def inst_rate(self) -> np.ndarray:
        return self._rates(0, len(self), self.kind)

    @property
    def cum_rate(self) -> np.ndarray:
        # written over the rates block by block, so no second full-length column
        cum = self.inst_rate
        carry = 0.0
        for lo in range(0, cum.size, _BLOCK):
            block = cum[lo:lo + _BLOCK]
            block[...], carry = _running_mean(block, lo, carry)
        return cum

    @functools.cached_property
    def reference_rates(self) -> np.ndarray:
        """`inst_rate`, read-only, kept from the first read: how a rate gap reads its reference."""
        rates = self.inst_rate
        rates.setflags(write=False)
        return rates

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


def instantaneous_rate(rss):
    """Spectral efficiency log2(1 + rss) of one data slot, rss in units of the noise power."""
    rss = np.asarray(rss, dtype=float)
    if np.any(rss < 0):
        raise ValueError("rss must be >= 0")
    # one output column, built in place: a temporary column of a whole run
    # would sit at the run's memory peak
    out = np.atleast_1d(rss + 1.0)
    np.log2(out, out=out)
    return float(out[0]) if rss.ndim == 0 else out


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
    instantaneous-rate gap is included; the oracle's rates are derived once
    for all the reports that read them, the oracle's own report included.
    """
    n = len(records)
    table = records.statuses
    nondata = int(np.diff(table.first)[table.kind != SlotKind.DATA].sum())
    # kept already if a report has read this run as its reference
    rates = vars(records).get("reference_rates")
    if rates is None:
        rates = records.inst_rate
    # cum_rate's last entry: the sequential running sum over all n slots, over n
    final = _running_sum(rates) / n
    err = math.nan
    if oracle_records is not None:
        if len(oracle_records) != n:
            raise ValueError("oracle run must cover the same slots")
        oracle = oracle_records.reference_rates
        # the gap overwrites the rates unless they are kept
        gap = np.subtract(rates, oracle, out=rates if rates.flags.writeable else None)
        err = float(np.mean(np.abs(gap, out=gap)))
    return RunMetrics(
        final_cum_rate=final,
        pct_below_threshold=100.0 * (nondata / n),
        tracking_calls=records.tracking_calls,
        avg_error_vs_oracle=err,
    )


@dataclass(frozen=True, eq=False)
class _SlotColumns:
    """Tracker-independent columns of a trajectory under one geometry and noise seed.

    `kdu` is kd * (sin(theta1) - sin(theta2)), so a slot's per-element step
    under slope s is s - kdu; `channel` is the slot's channel for an initial
    gain of 1 times the slope-free half of the Dirichlet phase,
    exp(-j*(N-1)*kdu/2); both are the walk's. `b0` is the trajectory's initial gain, which scales
    the channel to the trajectory's, and `noise` the slot's receiver noise.
    """

    geom: LinkGeometry
    noise_seed: int | None
    b0: complex
    kdu: np.ndarray
    channel: np.ndarray
    noise: np.ndarray


def _slot_columns(trajectory: Trajectory, geom: LinkGeometry,
                  noise_seed: int | None) -> _SlotColumns:
    """The trajectory's columns under (geometry, noise seed), held by it until another pair.

    Every tracker of a seed shares one draw of its noise; `kdu` and the
    channel come from its walk (`Walk.channel`) and b0 is the trajectory's. A
    noise seed of None gives zero noise.
    """
    cols = trajectory.columns
    if cols is not None and cols.geom == geom and cols.noise_seed == noise_seed:
        return cols
    n = len(trajectory)
    kdu, channel = trajectory.walk.channel(geom)
    if noise_seed is None:
        # one read-only zero that every slot views
        noise = np.broadcast_to(np.zeros((), dtype=complex), (n,))
    else:
        # unit power, drawn for the uncut walk and built in place, real parts
        # drawn first: the first n of sqrt(1/2) * (standard_normal(m) + 1j *
        # standard_normal(m)), so a cut walk's noise is the whole walk's
        rng = np.random.default_rng(noise_seed)
        noise = np.empty(n, dtype=complex)
        part = np.empty(trajectory.walk.uncut_slots)
        for view in (noise.real, noise.imag):
            rng.standard_normal(out=part)
            np.multiply(part[:n], math.sqrt(0.5), out=view)
        noise.setflags(write=False)
    trajectory.columns = cols = _SlotColumns(geom, noise_seed, trajectory.b0, kdu, channel,
                                             noise)
    return cols


def _received_samples(cols: _SlotColumns, lo: int, hi: int, slope,
                      step: int = 1) -> np.ndarray:
    """Received samples of slots lo, lo + step, ... below hi under `slope`.

    `slope` is one for all slots or one per slot. Every scan window, coarse
    pass, span and training slice goes through here: the Dirichlet form
    (exp(j*(N-1)*s/2) * b0) * channel * D(s - kdu) + noise, elementwise,
    where the slope's half of the phase times b0 is one scalar for a scan.
    """
    d, _ = _dirichlet(slope - cols.kdu[lo:hi:step], cols.geom.n_ris)
    # on one slope cmath.exp gives np.exp's value without numpy's call cost
    exp = np.exp if isinstance(slope, np.ndarray) else cmath.exp
    scale = exp(0.5j * (cols.geom.n_ris - 1) * slope) * cols.b0
    y = scale * cols.channel[lo:hi:step]
    y *= d
    y += cols.noise[lo:hi:step]
    return y


def run_timeline(
    trajectory: Trajectory,
    policy,
    geom: LinkGeometry,
    noise_seed: int | None,
    threshold_mode: str = "normalized",
) -> StatusTimeline:
    """Drive one policy over a trajectory and return its run: `rss` and its statuses.

    `policy.start` makes the run's tracker, which each event asks for the
    slopes to train and then for the one to install. `noise_seed` seeds the
    receiver noise; None runs without receiver noise. The noise is drawn for
    the uncut walk, so a run on ``traj[:end]`` sees the noise of the whole
    walk's first `end` slots. The trajectory's gain is built under `geom`,
    so a trajectory runs under any geometry. `threshold_mode="normalized"`
    compares strength against the status reference (portable thresholds in
    (0, 1]); `"absolute"` compares raw strength, in units of the noise
    power, against a finite gamma > 0.
    Either way a fresh status re-evaluates from the slot after its reference
    slot, so at most one event fires per trigger. A status is scanned in
    windows of `_SCAN_WINDOW` slots, or, after a status of L >=
    `_SCAN_WINDOW` slots, in spans of min(2L, `_SCAN_SPAN`) slots whose
    coarse pass at a stride of at most `_PROBE_SLOTS` slots cuts the span to
    end at its first strided slot below threshold. Samples past the trigger
    slot are discarded, and those slots are evaluated again as signaling or
    under the next configuration. Only `rss` and the status table are
    written; every other ledger column, `inst_rate` too, is derived from
    them when read. Identical inputs and seeds give bit-identical ledgers.
    """
    n = len(trajectory)
    if n == 0:
        raise ValueError("empty trajectory")
    if threshold_mode not in ("normalized", "absolute"):
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    normalized = threshold_mode == "normalized"
    if normalized and not 0.0 < policy.gamma <= 1.0:
        raise ValueError("normalized mode needs gamma in (0, 1]")
    if not normalized and not 0.0 < policy.gamma < math.inf:
        raise ValueError("absolute mode needs a finite gamma > 0")

    theta2 = trajectory.theta2
    cols = _slot_columns(trajectory, geom, noise_seed)

    rss = np.zeros(n, dtype=float)
    rows: list[tuple] = []  # the status table, row by row in slot order

    # initial access leaves the surface aligned to the first slot's channel
    slope = optimal_config(geom.theta1, float(theta2[0]), geom)
    tracker = policy.start(float(theta2[0]), geom.r1 + float(trajectory.r2[0]), geom)
    config_id = 0
    next_config_id = 1
    status = 1  # one more than the events so far

    # a row from slot lo to the next row, in the current status and reference
    def row(lo: int, k: SlotKind, cfg_id: int) -> None:
        rows.append((lo, k, status, cfg_id, rss_ref))

    # a feedback slot receives nothing; a discarded scan sample may sit there
    def feedback(slot: int, cfg_id: int) -> int:
        row(slot, SlotKind.UL_FEEDBACK, cfg_id)
        rss[slot] = 0.0
        return slot + 1

    # the first of slots lo, lo + step, ... whose power is below threshold, or
    # -1; the status's reference slot is never a trigger
    def first_below(power: np.ndarray, lo: int, step: int) -> int:
        skip = int(lo == ref_idx)
        level = power[skip:] / rss_ref if normalized else power[skip:]
        below = np.nonzero(level < policy.gamma)[0]
        return lo + (skip + int(below[0])) * step if below.size else -1

    cursor = 0
    last_len = 0  # slots of the status before, 0 before the first
    while cursor < n:
        ref_idx = cursor
        rss_ref = -1.0
        t2 = -1
        spans = last_len >= _SCAN_WINDOW
        size = min(2 * last_len, _SCAN_SPAN) if spans else _SCAN_WINDOW
        scan = cursor
        while t2 < 0 and scan < n:
            hi = min(n, scan + size)
            # a span's coarse pass, then every slot up to its first cut
            for step in ((-(-(hi - scan) // _PROBE_SLOTS), 1) if spans else (1,)):
                y = _received_samples(cols, scan, hi, slope, step)
                power = np.abs(y) ** 2
                if rss_ref < 0:
                    rss_ref = max(float(power[0]), 1e-300)
                    y_ref = complex(y[0])
                t = first_below(power, scan, step)
                if t >= 0:
                    hi = t + 1
            rss[scan:scan + power.size] = power
            if t >= 0:
                t2, y_t2 = t, complex(y[t - scan])
            scan = hi
        # a span's samples are not kept through the event and the next scan
        y = power = None

        row(ref_idx, SlotKind.DATA, config_id)
        if t2 < 0:
            break

        status += 1
        last_len = t2 + 1 - ref_idx
        row(t2, SlotKind.DATA_BELOW_THRESHOLD, config_id)
        cursor = t2 + 1
        if cursor >= n:
            break

        slopes = tracker.event(y_ref, y_t2, slope)
        if slopes is None:
            slope = optimal_config(geom.theta1, float(theta2[cursor]), geom)
            config_id = next_config_id
            next_config_id += 1
            continue

        cursor = feedback(cursor, config_id)
        # training slot cursor+i measures candidate i while the user keeps moving
        hi = min(n, cursor + slopes.size)
        power = np.abs(_received_samples(cols, cursor, hi, slopes[: hi - cursor])) ** 2
        row(cursor, SlotKind.DL_TRAINING, next_config_id)
        rss[cursor:hi] = power
        if hi - cursor < slopes.size:
            break
        cursor = hi
        best = tracker.choose(power)
        slope = slopes[best]
        config_id = next_config_id + best
        next_config_id += slopes.size
        if cursor < n:
            cursor = feedback(cursor, config_id)

    firsts, kinds, statuses, configs, refs = zip(*rows)
    table = StatusTable(np.array(firsts + (n,), np.int64), np.array(kinds, np.int8),
                        np.array(statuses, np.int32), np.array(configs, np.int32),
                        np.array(refs, float))
    for arr in (rss, *vars(table).values()):
        arr.setflags(write=False)
    return StatusTimeline(rss, table, trajectory.theta2, policy.name, policy.gamma,
                          status - 1)
