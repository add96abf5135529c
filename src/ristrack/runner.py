"""Run orchestration and deterministic CSV/summary emission.

Each (tracker, seed) run writes a slot ledger CSV and a plain-text summary;
rate-vs-position curves come from the ledger's ``theta2_true_deg`` and
``cum_rate`` columns. A scenario-level summary aggregates the signaling share
and tracking-call tables across runs. Floats are serialised with 12
significant digits so identical configurations and seeds produce byte-equal
files. :func:`ristrack.ledger.write_ledgers` writes the ledgers of one seed,
formatted with numpy into the bytes a row-by-row ``%d``/``%.12g`` writer
would produce. The trajectory noise stream is derived from the run seed
(seed for the walk, seed+1 for receiver noise).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

from .config import ConfigError, ScenarioConfig, override_config
from .mobility import generate_path
from .simengine import RunMetrics, StatusTimeline, overhead_report, run_timeline

OUTPUT_DIR_ENV = "RISTRACK_OUTDIR"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@dataclass(frozen=True)
class RunResult:
    """One (tracker, seed) run: metrics plus where its files went."""

    policy_name: str
    seed: int
    n_slots: int
    metrics: RunMetrics
    ledger_path: str
    summary_path: str


def write_run_summary(path: str, tl: StatusTimeline, seed: int, metrics: RunMetrics) -> None:
    lines = [
        f"tracker: {tl.policy_name}",
        f"seed: {seed}",
        f"slots: {len(tl)}",
        f"gamma: {_fmt(tl.gamma)}",
        f"tracking_calls: {metrics.tracking_calls}",
        f"pct_below_threshold: {_fmt(metrics.pct_below_threshold)}",
        f"final_cum_rate: {_fmt(metrics.final_cum_rate)}",
    ]
    if not math.isnan(metrics.avg_error_vs_oracle):
        lines.append(f"avg_error_vs_oracle: {_fmt(metrics.avg_error_vs_oracle)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _aggregate_summary(path: str, results: list[RunResult]) -> None:
    names = []
    for r in results:
        if r.policy_name not in names:
            names.append(r.policy_name)
    seeds = sorted({r.seed for r in results})
    by = {(r.policy_name, r.seed): r for r in results}
    width = max(16, *(len(n) + 2 for n in names))

    def table(title, getter):
        rows = [title, "seed".ljust(8) + "".join(n.ljust(width) for n in names)]
        for seed in seeds:
            cells = []
            for n in names:
                r = by.get((n, seed))
                cells.append(("-" if r is None else getter(r)).ljust(width))
            rows.append(str(seed).ljust(8) + "".join(cells))
        return rows

    lines = []
    lines += table("Percentage of time-slots below threshold (signaling + degraded data)",
                   lambda r: f"{r.metrics.pct_below_threshold:.4g}%")
    lines.append("")
    lines += table("Number of tracking procedures called",
                   lambda r: str(r.metrics.tracking_calls))
    lines.append("")
    lines += table("Final cumulative average rate (bit/s/Hz)",
                   lambda r: f"{r.metrics.final_cum_rate:.6g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def resolve_output_dir(cfg: ScenarioConfig, out_dir: str | None = None) -> str:
    """`out_dir`, else a non-empty RISTRACK_OUTDIR, else the scenario's `output_dir`.

    Refused before any walk: an empty `out_dir`, and a path a file stands in the way of.
    """
    if out_dir == "":
        raise ConfigError("--out: the output directory must not be empty")
    out = out_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir
    existing = os.path.abspath(out)  # the path, or the nearest that exists above it
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"output directory {out!r}: {existing!r} is not a directory")
    return out


def _simulate_seed(cfg: ScenarioConfig, seed: int) -> list[StatusTimeline]:
    """Every configured tracker's timeline on one seed's trajectory.

    The trajectory, and the slot columns it holds, are freed when this
    returns, before the caller writes any ledger.
    """
    traj = generate_path(replace(cfg.trajectory, rng_seed=seed), cfg.continuations,
                         cfg.geometry)
    return [run_timeline(traj, policy, cfg.geometry, noise_seed=seed + 1,
                         threshold_mode=cfg.threshold_mode)
            for policy in cfg.policies()]


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> list[RunResult]:
    """Run every configured (tracker, seed) pair and write all artifacts.

    When an oracle run is configured it is also used as the reference for the
    per-run rate-gap metric of the other trackers on the same seed.
    """
    out = resolve_output_dir(cfg, out_dir)
    results: list[RunResult] = []
    for seed in cfg.seeds:
        results += _write_seed(out, seed, _simulate_seed(cfg, seed))
    _aggregate_summary(os.path.join(out, "summary.txt"), results)
    return results


def _write_seed(out: str, seed: int, timelines: list[StatusTimeline]) -> list[RunResult]:
    """Write one seed's ledgers and run summaries; the oracle, if any, is the reference."""
    # made once a walk is simulated: a walk that fails leaves no empty directory
    os.makedirs(out, exist_ok=True)
    from .ledger import write_ledgers  # on first use: library runs never load the formatter

    oracle_tl = next((tl for tl in timelines if tl.policy_name == "oracle"), None)
    stems = [os.path.join(out, f"{tl.policy_name}_seed{seed}") for tl in timelines]
    ledgers = [f"{stem}_slots.csv" for stem in stems]
    write_ledgers(ledgers, timelines)
    results = []
    for tl, stem, ledger in zip(timelines, stems, ledgers):
        reference = oracle_tl if (oracle_tl is not None and tl is not oracle_tl) else None
        metrics = overhead_report(tl, tl.gamma, oracle_records=reference)
        summary = f"{stem}_summary.txt"
        write_run_summary(summary, tl, seed, metrics)
        results.append(RunResult(tl.policy_name, seed, len(tl), metrics, ledger, summary))
    return results


def _runs_of(cfg: ScenarioConfig) -> tuple:
    """What a scenario simulates and writes: its fields, trackers compared by name."""
    return tuple((f.name, getattr(cfg, f.name)) for f in fields(cfg)
                 if f.name != "algorithms") + (tuple(p.name for p in cfg.policies()),)


def run_sweep(cfg: ScenarioConfig, param: str, raw_values: list[str],
              out_dir: str | None = None) -> str:
    """Re-run the scenario for each value of one parameter.

    Writes each value's artifacts into its own subdirectory plus a combined
    ``sweep_<param>.csv`` holding one row per (value, tracker, seed).
    """
    # every value is checked before the first scenario runs
    sub_cfgs = [override_config(cfg, param, raw) for raw in raw_values]
    runs = [_runs_of(sub_cfg) for sub_cfg in sub_cfgs]
    for i, run in enumerate(runs):
        if run in runs[:i]:
            first = raw_values[runs.index(run)]
            raise ConfigError(f"{param}: values {first!r} and {raw_values[i]!r} give the "
                              "same scenario; each value must be distinct")
    out = resolve_output_dir(cfg, out_dir)
    name = param.split(".")[-1].lower()
    sub_dirs = [resolve_output_dir(cfg, os.path.join(out, f"{name}={raw}"))
                for raw in raw_values]
    rows = []
    for raw, sub_cfg, sub_dir in zip(raw_values, sub_cfgs, sub_dirs):
        for result in run_scenario(sub_cfg, out_dir=sub_dir):
            rows.append((raw, result))
    sweep_path = os.path.join(out, f"sweep_{name}.csv")
    os.makedirs(out, exist_ok=True)
    with open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("param,value,tracker,seed,slots,tracking_calls,"
                 "pct_below_threshold,final_cum_rate,avg_error_vs_oracle\n")
        for raw, r in rows:
            err = r.metrics.avg_error_vs_oracle
            fh.write(
                f"{name},{raw},{r.policy_name},{r.seed},{r.n_slots},"
                f"{r.metrics.tracking_calls},{_fmt(r.metrics.pct_below_threshold)},"
                f"{_fmt(r.metrics.final_cum_rate)},"
                f"{'' if math.isnan(err) else _fmt(err)}\n"
            )
    return sweep_path
