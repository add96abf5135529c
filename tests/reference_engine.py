"""A slot-by-slot reference of the timeline engine, written from its rules.

`reference_timeline` restates what `ristrack.simengine.run_timeline` does,
one slot at a time, with none of the engine's machinery: no scan windows,
spans or coarse passes, no slot columns, no Dirichlet form and no block
evaluation. Each received sample is the explicit element sum

    c * beta * sum_k exp(j*(k*slope - kd*k*(sin(theta1) - sin(theta2)))) + noise

over the N surface elements, summed term by term by
`oracles.brute_force_gain`, with the gain and the unit-power receiver noise
of `oracles.gain_column` and `oracles.noise_column`. Of the engine it shares
only `optimal_config` and the policies' tracker objects, which hold the
tracker's own steps.

Its status table follows the rules of `ristrack.simengine.StatusTable`:
a DATA row from each status's reference slot; for each event the rows of
its trigger slot, its opening feedback slot, its training slice and its
closing feedback slot, which already carry the next status id and the ended
status's reference. A comparison on an exact threshold is only as good as
its last bit, so every trigger test whose normalised level lies within
`CLOSE` of gamma is recorded with its margin.

Run as a script it compares the engine with the reference on a wider matrix
of 27 whole timelines and prints how far each run departs from its
reference; it exits 1 when any run disagrees or shows a close call. That
takes about five seconds on a 2-core host:

    PYTHONPATH=src python tests/reference_engine.py
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oracles import brute_force_gain, gain_column, noise_column
from ristrack.ris import optimal_config
from ristrack.simengine import OraclePolicy, ProposedPolicy, SlotKind

CLOSE = 1e-9  # relative distance to gamma under which a trigger test is recorded


@dataclass
class Reference:
    """The reference run: per-slot rss, the status table's rows and the close calls."""

    rss: np.ndarray
    rows: list[tuple[int, int, int, int, float]]  # first slot, kind, status, config, rss_ref
    tracking_calls: int
    close_calls: list[tuple[int, float]]  # (slot, level / gamma - 1)


def reference_timeline(traj, policy, geom, noise_seed, threshold_mode="normalized") -> Reference:
    n = len(traj)
    normalized = threshold_mode == "normalized"
    gamma = policy.gamma
    kd = 2.0 * math.pi * geom.spacing_d / geom.wavelength
    sin1 = math.sin(geom.theta1)
    theta2 = traj.theta2.tolist()
    c = math.sqrt(geom.snr_linear * geom.n_tx)
    gain = (c * gain_column(traj.b0, traj.walk.r0, traj.r2, traj.starts, geom)).tolist()
    noise = noise_column(n, traj.walk.uncut_slots, noise_seed).tolist()

    def sample(i: int, slope: float) -> complex:
        u = sin1 - math.sin(theta2[i])
        return gain[i] * complex(brute_force_gain([slope - kd * u], geom.n_ris)[0]) + noise[i]

    rss = np.zeros(n)
    out = Reference(rss, [], 0, [])

    def row(first: int, kind: SlotKind, cfg_id: int) -> None:
        out.rows.append((first, int(kind), status, cfg_id, ref))

    slope = optimal_config(geom.theta1, theta2[0], geom)
    tracker = policy.start(theta2[0], geom.r1 + float(traj.r2[0]), geom)
    config_id, next_config_id, status = 0, 1, 1
    cursor = 0
    while cursor < n:
        # a status: its reference slot, then data until the first slot below threshold
        y_ref = sample(cursor, slope)
        ref = max(abs(y_ref) ** 2, 1e-300)
        rss[cursor] = abs(y_ref) ** 2
        row(cursor, SlotKind.DATA, config_id)
        trigger = -1
        for i in range(cursor + 1, n):
            y = sample(i, slope)
            rss[i] = abs(y) ** 2
            level = rss[i] / ref if normalized else rss[i]
            if abs(level / gamma - 1.0) < CLOSE:
                out.close_calls.append((i, level / gamma - 1.0))
            if level < gamma:
                trigger, y_trigger = i, y
                break
        if trigger < 0:
            break
        out.tracking_calls += 1
        status += 1
        row(trigger, SlotKind.DATA_BELOW_THRESHOLD, config_id)
        cursor = trigger + 1
        if cursor == n:
            break
        slopes = tracker.event(y_ref, y_trigger, slope)
        if slopes is None:
            # the genie reconfigures for the next slot at no signaling cost
            slope = optimal_config(geom.theta1, theta2[cursor], geom)
            config_id, next_config_id = next_config_id, next_config_id + 1
            continue
        row(cursor, SlotKind.UL_FEEDBACK, config_id)
        cursor += 1
        # training slot cursor + i receives candidate i while the user moves on
        row(cursor, SlotKind.DL_TRAINING, next_config_id)
        power = []
        for i, candidate_slope in enumerate(slopes.tolist()):
            if cursor + i == n:
                break
            power.append(abs(sample(cursor + i, candidate_slope)) ** 2)
            rss[cursor + i] = power[-1]
        if len(power) < len(slopes):
            break  # the walk ends mid-training: the event stays open
        cursor += len(slopes)
        best = tracker.choose(power)
        slope = float(slopes[best])
        config_id, next_config_id = next_config_id + best, next_config_id + len(slopes)
        if cursor < n:
            row(cursor, SlotKind.UL_FEEDBACK, config_id)
            cursor += 1
    return out


def disagreements(tl, ref: Reference) -> tuple[list[str], float]:
    """How the engine's run `tl` departs from the reference, and the largest rss gap.

    Kinds, status ids, config ids and row starts must agree exactly, and
    the rows' references within 1e-12 relative. Each slot's rss must agree
    within 1e-12 relative to the larger of that rss and its row's reference:
    a training sample near a null of the array pattern, many decades below
    the reference, keeps only the digits its per-element step has, and the
    two sides round that step differently (the 1 deg sweep's deepest probes
    differ by about 1e-10 of their own power, 1e-20 of the reference's).
    """
    table = tl.statuses
    first, kind, status_id, config_id, rss_ref = map(list, zip(*ref.rows))
    problems = []
    for name, want in (("kind", kind), ("status_id", status_id), ("config_id", config_id),
                       ("first", first + [len(ref.rss)])):
        if getattr(table, name).tolist() != want:
            problems.append(f"{name} differs")
    if len(table.rss_ref) == len(rss_ref) and not np.allclose(
            table.rss_ref, rss_ref, rtol=1e-12, atol=0.0):
        problems.append("rss_ref differs")
    scale = np.maximum(ref.rss, np.repeat(rss_ref, np.diff(first + [len(ref.rss)])))
    worst = float(np.max(np.abs(tl.rss - ref.rss) / scale))
    if worst > 1e-12:
        problems.append(f"rss differs by up to {worst:.3g} of the larger of it and its reference")
    if tl.tracking_calls != ref.tracking_calls:
        problems.append(f"{tl.tracking_calls} events against {ref.tracking_calls}")
    return problems, worst


def _matrix():
    """The wider comparison: whole default timelines, a prefix of the stress walk, low SNR."""
    from dataclasses import replace

    from ristrack import ExhaustivePolicy, LinkGeometry, TrajectorySpec, generate_path

    default = LinkGeometry()
    every = (ProposedPolicy(), ExhaustivePolicy(resolution_deg=1.0),
             ExhaustivePolicy(resolution_deg=5.0), ExhaustivePolicy(resolution_deg=10.0),
             OraclePolicy())
    for seed in (1, 2, 3):
        traj = generate_path(TrajectorySpec(path_length=0.3, rng_seed=seed), (), default)
        for policy in every:
            yield f"default seed {seed}", traj, policy, default, seed + 1
    stress = TrajectorySpec(speed_v=1.8)
    turns = ((np.deg2rad(70.0), 1.0), (np.deg2rad(150.0), 1.0))
    for seed in (1, 53):
        traj = generate_path(replace(stress, rng_seed=seed), turns, default)[:40000]
        for policy in (ProposedPolicy(gamma=0.95), OraclePolicy(gamma=0.95)):
            yield f"tracking_stress seed {seed}", traj, policy, default, seed + 1
    low = LinkGeometry(n_ris=7, snr_linear=0.1)
    for seed in (1, 2):
        traj = generate_path(TrajectorySpec(path_length=0.3, rng_seed=seed), (), low)
        for policy in every[:3] + every[4:]:
            yield f"snr -10 dB n_ris 7 seed {seed}", traj, policy, low, seed + 1


if __name__ == "__main__":
    import sys
    import time

    from ristrack import run_timeline

    worst_all, failed = 0.0, 0
    for runs, (label, traj, policy, geom, noise_seed) in enumerate(_matrix(), 1):
        start = time.perf_counter()
        ref = reference_timeline(traj, policy, geom, noise_seed)
        took = time.perf_counter() - start
        tl = run_timeline(traj, policy, geom, noise_seed=noise_seed)
        problems, worst = disagreements(tl, ref)
        worst_all = max(worst_all, worst)
        failed += bool(problems or ref.close_calls)
        print(f"{label:32} {policy.name:18} {len(traj):6} slots {tl.tracking_calls:5} events "
              f"rss gap {worst:.2e}  close calls {len(ref.close_calls)}  {took:.1f} s  "
              + ("; ".join(problems) or "agrees"))
    print(f"{failed} of {runs} timelines disagree or show a close call; "
          f"largest relative rss gap: {worst_all:.3g}")
    sys.exit(1 if failed else 0)
