"""One timed (or traced) run of a workload, in a fresh process of its own.

Started by ``run.py``; writes its measurements as JSON to ``--result``.
The timed section starts after the imports and ends when the last timeline
has been simulated; for ``reference_run`` it is the CLI's call of
``run_scenario`` (simulating and writing), without ``load_config`` and the
CLI's printing. Calibration kernels
interrupt it at fixed intervals (see ``drift.py``); output checks on in-memory
timelines run in excluded intervals, so neither counts as program time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace

import numpy as np

from checks import check_timeline
from drift import DriftSampler
from spans import Tracer, self_times, totals
from workloads import WORKLOADS

import ristrack.cli
import ristrack.config
import ristrack.mobility
import ristrack.simengine


def _count_gains(counts, args, kwargs, result):
    n = int(np.size(result))
    if n > 1:
        counts["ris.scan_evals"] += n
    else:
        counts["ris.probe_evals"] += 1


def _count_search(counts, args, kwargs, result):
    counts["tracking.searches"] += 1


def _count_select(counts, args, kwargs, result):
    candidates = args[0] if args else kwargs["candidates"]
    counts["tracking.training_slots"] += len(candidates)


def _count_sweep(counts, args, kwargs, result):
    counts["baselines.sweeps"] += 1
    counts["baselines.training_slots"] += result[1]


def _count_write(counts, args, kwargs, result):
    counts["runner.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_path(counts, args, kwargs, result):
    counts["mobility.slots"] += len(result)


def _count_timeline(counts, args, kwargs, result):
    counts["simengine.events"] += result.tracking_calls
    counts["simengine.slots"] += len(result)


# (module, name looked up there, span name, counter)
HOOKS = (
    ("ristrack.cli", "load_config", "config.load_config", None),
    ("ristrack.runner", "generate_path", "mobility.generate_path", _count_path),
    ("ristrack.runner", "run_timeline", "simengine.run_timeline", _count_timeline),
    ("ristrack.runner", "overhead_report", "simengine.overhead_report", None),
    ("ristrack.runner", "write_ledger_csv", "runner.write_ledger_csv", _count_write),
    ("ristrack.runner", "write_cumrate_csv", "runner.write_cumrate_csv", _count_write),
    ("ristrack.runner", "write_run_summary", "runner.write_run_summary", _count_write),
    ("ristrack.simengine", "aggregate_gains", "ris.aggregate_gains", _count_gains),
    ("ristrack.simengine", "optimal_config", "ris.optimal_config", None),
    ("ristrack.simengine", "two_dim_search", "tracking.two_dim_search", _count_search),
    ("ristrack.simengine", "select_by_training", "tracking.select_by_training", _count_select),
    ("ristrack.simengine", "exhaustive_sweep", "baselines.exhaustive_sweep", _count_sweep),
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, clock, scenario_span) -> dict:
    """Per-layer metrics from the trace; durations are drift-corrected.

    ``scenario_span`` is the ``(start, end)`` of the CLI's ``run_scenario``
    call, or None on the library path, where the runner is idle.
    """
    spans = tracer.spans
    own = [clock.corrected(s[1], s[2]) for s in spans]
    tot = totals(spans, own)
    self_tot = totals(spans, self_times(spans, clock.corrected))
    c = tracer.counts
    runner_self = 0.0
    if scenario_span is not None:
        t0, t1 = scenario_span
        runner_self = clock.corrected(t0, t1) - sum(
            d for s, d in zip(spans, own)
            if s[3] < 0 and t0 <= s[1] and s[2] <= t1 and not s[0].startswith("runner."))
    writes = sum(tot[k] for k in ("runner.write_ledger_csv", "runner.write_cumrate_csv",
                                  "runner.write_run_summary"))
    return {
        "config.load_s": tot["config.load_config"],
        "mobility.generate_path_s": tot["mobility.generate_path"],
        "mobility.slots": c["mobility.slots"],
        "simengine.run_timeline_s": tot["simengine.run_timeline"],
        "simengine.scan_self_s": self_tot["simengine.run_timeline"],
        "simengine.events": c["simengine.events"],
        "simengine.slots": c["simengine.slots"],
        "simengine.overhead_report_s": tot["simengine.overhead_report"],
        "ris.scan_evals": c["ris.scan_evals"],
        "ris.probe_evals": c["ris.probe_evals"],
        "ris.aggregate_gains_s": tot["ris.aggregate_gains"],
        "ris.optimal_config_s": tot["ris.optimal_config"],
        "tracking.searches": c["tracking.searches"],
        "tracking.two_dim_search_s": tot["tracking.two_dim_search"],
        "tracking.search_ms_per_call": _ratio(tot["tracking.two_dim_search"],
                                              c["tracking.searches"], 1e3),
        "tracking.select_by_training_s": tot["tracking.select_by_training"],
        "tracking.training_slots": c["tracking.training_slots"],
        "tracking.probe_us_per_slot": _ratio(tot["tracking.select_by_training"],
                                             c["tracking.training_slots"], 1e6),
        "baselines.sweeps": c["baselines.sweeps"],
        "baselines.exhaustive_sweep_s": tot["baselines.exhaustive_sweep"],
        "baselines.training_slots": c["baselines.training_slots"],
        "baselines.probe_us_per_slot": _ratio(tot["baselines.exhaustive_sweep"],
                                              c["baselines.training_slots"], 1e6),
        "runner.self_s": runner_self,
        "runner.write_ledger_s": tot["runner.write_ledger_csv"],
        "runner.write_cumrate_s": tot["runner.write_cumrate_csv"],
        "runner.write_summary_s": tot["runner.write_run_summary"],
        "runner.bytes_written": c["runner.bytes_written"],
        "runner.mb_per_s": _ratio(c["runner.bytes_written"], writes, 1e-6),
    }


def _run_library(cfg, tracer, sampler, out: dict) -> None:
    """generate_path, run_timeline per tracker, overhead_report; checks per timeline."""
    gen, run, report = (ristrack.mobility.generate_path, ristrack.simengine.run_timeline,
                        ristrack.simengine.overhead_report)
    if tracer is not None:
        gen = tracer.wrap(gen, "mobility.generate_path", _count_path)
        run = tracer.wrap(run, "simengine.run_timeline", _count_timeline)
        report = tracer.wrap(report, "simengine.overhead_report")
    policies = cfg.policies()
    for seed in cfg.seeds:
        start = time.perf_counter()
        out["attempted"] += len(policies)
        try:
            traj = gen(replace(cfg.trajectory, rng_seed=seed), cfg.continuations, cfg.geometry)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            out["failed"] += len(policies)
            out["errors"].append(f"seed {seed}: {traceback.format_exc(limit=3)}")
            continue
        done = []
        for policy in policies:
            try:
                done.append(run(traj, policy, cfg.geometry, noise_seed=seed + 1,
                                threshold_mode=cfg.threshold_mode))
            except Exception:  # noqa: BLE001
                out["failed"] += 1
                out["errors"].append(f"{policy.name} seed {seed}: "
                                     f"{traceback.format_exc(limit=3)}")
        oracle = next((tl for tl in done if tl.policy_name == "oracle"), None)
        for tl in done:
            try:
                metrics = report(tl, tl.gamma,
                                 oracle_records=oracle if tl is not oracle else None)
            except Exception:  # noqa: BLE001
                out["failed"] += 1
                out["errors"].append(f"{tl.policy_name} seed {seed}: "
                                     f"{traceback.format_exc(limit=3)}")
                continue
            with sampler.excluded():
                errors, row = check_timeline(tl, metrics, seed, cfg.grid.n_sol)
            out["stats"].append(row)
            if errors:
                out["failed"] += 1
                out["errors"] += errors
        del traj, done
        out["seed_spans"].append((seed, start, time.perf_counter()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(HOOKS)
    plan = ristrack.config.load_config(args.config)
    out = {"attempted": 0, "failed": 0, "errors": [], "stats": [], "seed_spans": [],
           "trackers": [p.name for p in plan.policies()], "seeds": list(plan.seeds),
           "n_sol": plan.grid.n_sol}

    scenario_span = None  # if the CLI no longer calls run_scenario, the whole section counts
    run_scenario = getattr(ristrack.cli, "run_scenario", None) if workload.via_cli else None
    if run_scenario is not None:

        def timed_run_scenario(*a, **kw):
            nonlocal scenario_span
            t0 = time.perf_counter()
            try:
                return run_scenario(*a, **kw)
            finally:
                scenario_span = (t0, time.perf_counter())

        ristrack.cli.run_scenario = timed_run_scenario

    sampler = DriftSampler()
    with sampler.running():
        if workload.via_cli:
            out["attempted"] = len(out["trackers"]) * len(plan.seeds)
            out["cli_exit"] = ristrack.cli.main(["run", args.config, "--out", args.out])
            if out["cli_exit"] != 0:
                out["failed"] = out["attempted"]
        else:
            load = ristrack.config.load_config
            if tracer is not None:
                load = tracer.wrap(load, "config.load_config")
            _run_library(load(args.config), tracer, sampler, out)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    clock = sampler.clock()
    # the library path times each seed; run_scenario is split evenly over its seeds
    seed_s = [(seed, clock.corrected(t0, t1)) for seed, t0, t1 in out.pop("seed_spans")]
    if workload.via_cli:
        scenario_s = clock.corrected(*scenario_span) if scenario_span else clock.corrected_s
        seed_s = [(seed, scenario_s / len(plan.seeds)) for seed in plan.seeds]
    out.update(run_s=clock.corrected_s, raw_s=clock.raw_s, kernel_s=clock.kernel_s,
               kernel_samples=clock.samples, peak_rss_mb=maxrss_kb / 1024.0, seed_s=seed_s)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, clock, scenario_span)
        out["absent"] = tracer.absent
        out["uncounted"] = sorted(tracer.uncounted)
        with open(args.result + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps([name, start, end, parent,
                                     clock.corrected(start, end)]) + "\n")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
