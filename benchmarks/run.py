"""Benchmark of ristrack: end-to-end metrics, output checks and a layer trace.

Run from the repository root:

    python3 benchmarks/run.py --workload reference_run --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` adds a second, traced run of the same workload and reports the
per-layer metrics. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See benchmarks/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_STARTS = 9
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TRACKERS = ("proposed", "exhaustive_1deg", "exhaustive_5deg", "exhaustive_10deg", "oracle")

# a fresh process: interpreter, imports, load_config, first seed's generate_path
SETUP_CODE = """\
import sys
from dataclasses import replace
import ristrack
from ristrack.config import load_config
from ristrack.mobility import generate_path
cfg = load_config(sys.argv[1])
generate_path(replace(cfg.trajectory, rng_seed=cfg.seeds[0]), cfg.continuations, cfg.geometry)
"""


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cap = min(int(env[var]), nproc)
        except (KeyError, ValueError):
            cap = nproc
        env[var] = str(max(cap, 1))
    return env


def measure_setup(ini: str, env: dict) -> tuple[float, float]:
    """Median corrected and raw time of fresh setup processes."""
    from drift import NOMINAL_KERNEL_S, kernel

    cmd = [sys.executable, "-c", SETUP_CODE, ini]
    cpus = os.sched_getaffinity(0)
    # kernels and starts on one CPU: the two CPUs' speeds drift independently
    os.sched_setaffinity(0, {min(cpus)})
    try:
        subprocess.run(cmd, env=env, check=True, timeout=60)  # warm file and bytecode caches
        kernels = [kernel() + kernel()]
        raw = []
        for _ in range(SETUP_STARTS):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, timeout=60)
            raw.append(time.perf_counter() - t0)
            kernels.append(kernel() + kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    kernels = [k / 2 for k in kernels]
    corrected = [r * NOMINAL_KERNEL_S / (0.5 * (kernels[i] + kernels[i + 1]))
                 for i, r in enumerate(raw)]
    return statistics.median(corrected), statistics.median(raw)


def run_worker(workload, ini: str, out_dir: str, result: str, trace: bool,
               env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload.name,
           "--config", ini, "--out", out_dir, "--result", result]
    if trace:
        cmd.append("--trace")
    log = result + ".log"
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s; see {log}") from None
    if proc.returncode != 0 or not os.path.isfile(result):
        with open(log, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def check_artifacts(res: dict, out_dir: str) -> None:
    """File checks for a workload that wrote artifacts; updates ``res`` in place."""
    from checks import check_run_files

    if res.get("cli_exit", 0) != 0:
        return
    for seed in res["seeds"]:
        for tracker in res["trackers"]:
            errors, row = check_run_files(out_dir, tracker, seed, res["n_sol"])
            if row is not None:
                res["stats"].append(row)
            if errors:
                res["failed"] += 1
                res["errors"] += errors


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def one_run(workload, ini: str, tag: str, trace: bool, env: dict) -> dict:
    out_dir = os.path.join(WORK, workload.name, f"out_{tag}")
    res = run_worker(workload, ini, out_dir, os.path.join(WORK, workload.name, f"{tag}.json"),
                     trace, env)
    res["output_bytes"] = dir_bytes(out_dir) if os.path.isdir(out_dir) else 0
    if workload.via_cli:
        check_artifacts(res, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return res


def report_digests(workload, stats: list) -> None:
    from checks import stats_digest

    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh).get(workload.scenario_name, {})
    except (OSError, ValueError):
        stored = {}
    verdicts = []
    for seed in sorted({r["seed"] for r in stats}):
        digest = stats_digest([r for r in stats if r["seed"] == seed])
        known = stored.get(str(seed))
        if known is None:
            verdict = "not stored"
        else:
            verdict = "matches stored" if known == digest else "DIFFERS from stored"
        verdicts.append(verdict)
        print(f"digest {workload.scenario_name} seed {seed}: {digest} ({verdict})")
    counts = ", ".join(f"{verdicts.count(v)} {v}"
                       for v in ("matches stored", "DIFFERS from stored", "not stored"))
    print(f"stats digest {stats_digest(stats)}: {counts} (information only)")


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, scenario_text, trajectory_seeds

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "ristrack", "__init__.py")):
        print(f"error: no ristrack sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)

    import numpy as np

    workload = WORKLOADS[args.workload]
    seeds = trajectory_seeds(workload, args.seed, args.seconds)
    shutil.rmtree(os.path.join(WORK, workload.name), ignore_errors=True)
    os.makedirs(os.path.join(WORK, workload.name))
    ini = os.path.join(WORK, workload.name, "scenario.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(scenario_text(workload, seeds))
    env = child_env()

    print(f"workload {workload.name} seed {args.seed} trajectory seeds {seeds} "
          f"trace {args.trace}: {workload.why}")
    print(f"env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__} threads capped at {env[THREAD_VARS[0]]}")
    try:
        setup_s, setup_raw = measure_setup(ini, env)
        timed = one_run(workload, ini, "timed", False, env)
        traced = one_run(workload, ini, "traced", True, env) if args.trace else None
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = [timed] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for err in r["errors"][:10]:
            print(f"FAILED {err}")
    speed = timed["raw_s"] / timed["run_s"]
    wall = timed["raw_s"] + timed["kernel_s"]
    print(f"setup: median of {SETUP_STARTS} fresh starts {setup_s:.4f} s corrected, "
          f"{setup_raw:.4f} s raw")
    print(f"timed section: {timed['run_s']:.4f} s corrected, {timed['raw_s']:.4f} s raw, "
          f"speed factor {speed:.4f}, {timed['kernel_samples']} kernels took "
          f"{100 * timed['kernel_s'] / wall:.1f}% of the wall time")
    for row in timed["stats"]:
        print(f"stats {row['tracker']} seed {row['seed']}: {row['tracking_calls']} tracking "
              f"calls, non-data share {row['nondata_share']:.6g}, final cumulative rate "
              f"{row['final_cum_rate']:.12g}")
    report_digests(workload, timed["stats"])
    print("seconds per seed (corrected): "
          + ", ".join(f"{seed}: {s:.4f}" for seed, s in timed["seed_s"]))

    values = {
        "run_s": statistics.median(s for _, s in timed["seed_s"]),
        "slots_per_s": statistics.median(
            sum(r["slots"] for r in timed["stats"] if r["seed"] == seed) / s
            for seed, s in timed["seed_s"]),
        "setup_s": setup_s,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    print(f"output_mb {timed['output_bytes'] / 1e6:.6f} MB")
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if traced:
        print(f"traced run: {traced['run_s']:.4f} s corrected; absent hooks: "
              f"{', '.join(traced['absent']) or 'none'}; hooks whose counts failed: "
              f"{', '.join(traced['uncounted']) or 'none'}")
        values.update(traced["layers"])
        values["output_mb"] = timed["output_bytes"] / 1e6
        values["host.raw_wall_s"] = timed["raw_s"]
        values["host.speed_factor"] = speed
        values["host.trace_overhead_s"] = (
            statistics.median(s for _, s in traced["seed_s"]) - values["run_s"])
        for tracker in TRACKERS:
            rows = [r for r in timed["stats"] if r["tracker"] == tracker]
            values[f"sim.{tracker}.tracking_calls"] = sum(r["tracking_calls"] for r in rows)
            values[f"sim.{tracker}.nondata_slots"] = sum(r["nondata_slots"] for r in rows)
        for name in ("runner.self_s", "baselines.exhaustive_sweep_s"):
            print(f"share of traced run in {name}: {values[name] / traced['run_s']:.3f}")
        search = values["tracking.two_dim_search_s"] + values["tracking.select_by_training_s"]
        print(f"share of traced run in candidate search + training: "
              f"{search / traced['run_s']:.3f}")
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {}
    for name in names:
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite")
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
