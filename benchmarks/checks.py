"""Output checks applied from outside, one (tracker, seed) timeline at a time.

The same invariants are checked on a ledger CSV plus its summary file
(``reference_run``) and on in-memory ``Timeline`` columns (the library-path
workloads):

- the slot kinds partition the timeline;
- the DATA_BELOW_THRESHOLD count equals the tracking-call count;
- DL_TRAINING <= events * per-event training cost;
- UL_FEEDBACK <= 2 * events;
- status ids never decrease;
- the reported summary numbers match the ones recomputed from the slots.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

KINDS = ("DATA", "DATA_BELOW_THRESHOLD", "DL_TRAINING", "UL_FEEDBACK")
DATA, BELOW, TRAINING, FEEDBACK = range(4)
REL_TOL = 1e-9


def per_event_cost(tracker: str, n_sol: int) -> int:
    """Training slots one tracking event may use."""
    if tracker == "oracle":
        return 0
    if tracker == "proposed":
        return n_sol
    if tracker.startswith("exhaustive_") and tracker.endswith("deg"):
        return int(math.ceil(360.0 / float(tracker[len("exhaustive_"):-len("deg")])))
    raise ValueError(f"unknown tracker {tracker!r}")


def check_counts(slots: int, counts, events: int, cost: int,
                 status_monotone: bool) -> list[str]:
    """Invariants that follow from kind counts and the event count."""
    errors = []
    if sum(counts) != slots:
        errors.append(f"kinds cover {sum(counts)} of {slots} slots")
    if counts[BELOW] != events:
        errors.append(f"{counts[BELOW]} below-threshold slots but {events} tracking calls")
    if counts[TRAINING] > events * cost:
        errors.append(f"{counts[TRAINING]} training slots exceed {events} events x {cost}")
    if counts[FEEDBACK] > 2 * events:
        errors.append(f"{counts[FEEDBACK]} feedback slots exceed 2 x {events} events")
    if not status_monotone:
        errors.append("status id decreases")
    return errors


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def stat_row(tracker: str, seed: int, slots: int, counts, events: int,
             final_cum_rate: float) -> dict:
    nondata = slots - counts[DATA]
    return {
        "tracker": tracker,
        "seed": seed,
        "slots": slots,
        "tracking_calls": events,
        "nondata_slots": nondata,
        "nondata_share": nondata / slots,
        "final_cum_rate": final_cum_rate,
    }


def check_timeline(tl, metrics, seed: int, n_sol: int) -> tuple[list[str], dict]:
    """Check one in-memory timeline and the RunMetrics computed from it."""
    kind = np.asarray(tl.kind)
    slots = len(kind)
    valid = (kind >= 0) & (kind < len(KINDS))
    counts = np.bincount(kind[valid].astype(np.intp), minlength=len(KINDS)).tolist()
    status = np.asarray(tl.status_id)
    monotone = bool(np.all(np.diff(status) >= 0))
    events = int(tl.tracking_calls)
    errors = check_counts(slots, counts, events,
                          per_event_cost(tl.policy_name, n_sol), monotone)
    pct = 100.0 * (slots - counts[DATA]) / slots
    final = float(tl.cum_rate[-1])
    if metrics.tracking_calls != events:
        errors.append(f"report says {metrics.tracking_calls} calls, timeline {events}")
    if not _close(metrics.pct_below_threshold, pct):
        errors.append(f"report pct {metrics.pct_below_threshold!r} != recomputed {pct!r}")
    if not _close(float(metrics.cumulative_rate_series[-1]), final):
        errors.append("report final rate differs from the timeline's")
    errors = [f"{tl.policy_name} seed {seed}: {e}" for e in errors]
    return errors, stat_row(tl.policy_name, seed, slots, counts, events, final)


def read_ledger(path: str) -> dict:
    """Kind counts, status monotonicity and last cumulative rate of a ledger CSV."""
    index = {name: i for i, name in enumerate(KINDS)}
    counts = [0] * len(KINDS)
    errors = []
    slots = 0
    last_status = -1
    monotone = True
    last = None
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        kind_col = header.index("kind")
        status_col = header.index("status_id")
        cum_col = header.index("cum_rate")
        slot_col = header.index("slot_index")
        for line in fh:
            row = line.split(",")
            slots += 1
            k = index.get(row[kind_col])
            if k is None:
                errors.append(f"slot {slots}: unknown kind {row[kind_col]!r}")
            else:
                counts[k] += 1
            if int(row[slot_col]) != slots:
                errors.append(f"slot {slots}: slot_index {row[slot_col]}")
            status = int(row[status_col])
            if status < last_status:
                monotone = False
            last_status = status
            last = row
    if last is None:
        errors.append("empty ledger")
        return {"slots": 0, "counts": counts, "monotone": monotone,
                "final_cum_rate": math.nan, "errors": errors}
    return {"slots": slots, "counts": counts, "monotone": monotone,
            "final_cum_rate": float(last[cum_col]), "errors": errors[:5]}


def read_summary(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            out[key.strip()] = value.strip()
    return out


def check_run_files(out_dir: str, tracker: str, seed: int,
                    n_sol: int) -> tuple[list[str], dict | None]:
    """Check one (tracker, seed) ledger and its summary file."""
    stem = os.path.join(out_dir, f"{tracker}_seed{seed}")
    try:
        ledger = read_ledger(stem + "_slots.csv")
        summary = read_summary(stem + "_summary.txt")
    except (OSError, ValueError, IndexError) as exc:
        return [f"{tracker} seed {seed}: unreadable output ({exc})"], None
    slots, counts = ledger["slots"], ledger["counts"]
    if not slots:
        return [f"{tracker} seed {seed}: empty ledger"], None
    events = counts[BELOW]
    errors = list(ledger["errors"])
    try:
        reported_calls = int(summary["tracking_calls"])
        errors += check_counts(slots, counts, reported_calls,
                               per_event_cost(tracker, n_sol), ledger["monotone"])
        pct = 100.0 * (slots - counts[DATA]) / slots
        if int(summary["slots"]) != slots:
            errors.append(f"summary says {summary['slots']} slots, ledger has {slots}")
        if not _close(float(summary["pct_below_threshold"]), pct):
            errors.append(f"summary pct {summary['pct_below_threshold']} != recomputed {pct!r}")
        if not _close(float(summary["final_cum_rate"]), ledger["final_cum_rate"]):
            errors.append(f"summary final rate {summary['final_cum_rate']} != ledger's")
    except (KeyError, ValueError) as exc:
        errors.append(f"summary field missing or malformed ({exc})")
    errors = [f"{tracker} seed {seed}: {e}" for e in errors]
    return errors, stat_row(tracker, seed, slots, counts, events, ledger["final_cum_rate"])


def stats_digest(rows) -> str:
    """Digest of the simulated statistics, independent of row order."""
    lines = sorted(
        f"{r['tracker']},{r['seed']},{r['tracking_calls']},{r['nondata_slots']},"
        f"{r['final_cum_rate']:.12g}"
        for r in rows
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
