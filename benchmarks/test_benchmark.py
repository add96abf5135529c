"""Tests of the benchmark's own arithmetic, output checks and trace hooks."""

import json
import os
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from checks import check_run_files, check_timeline, per_event_cost
from drift import ProgramClock
from spans import Tracer, self_times, totals

import ristrack.simengine as simengine
from ristrack.cli import main as cli_main
from ristrack.config import load_config
from ristrack.mobility import generate_path

TINY = """\
[geometry]
r1_m = 2.0
[trajectory]
r2_init_m = 2.0
path_length_m = 0.05
[tracker]
algorithms = proposed, exhaustive:10, oracle
[run]
seeds = 3
"""


def test_self_times_on_synthetic_span_tree():
    # A [0,10] holds B [1,4] and C [5,9]; B holds D [2,3]
    spans = [["A", 0.0, 10.0, -1], ["B", 1.0, 4.0, 0], ["D", 2.0, 3.0, 1],
             ["C", 5.0, 9.0, 0], ["B", 11.0, 12.0, -1]]
    selfs = self_times(spans, lambda t0, t1: t1 - t0)
    assert selfs == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert totals(spans, selfs) == {"A": 3.0, "B": 3.0, "D": 1.0, "C": 4.0}


def test_program_clock_leaves_out_idle_intervals_and_scales_by_kernel():
    # kernels of 6, 12 and 6 ms at nominal 6 ms; an excluded interval at [6, 7]
    marks = [(0.0, 1.0, 0.006), (3.0, 4.0, 0.012), (6.0, 7.0, None), (10.0, 11.0, 0.006)]
    clock = ProgramClock(marks)
    assert clock.raw_s == pytest.approx(2.0 + 2.0 + 3.0)
    assert clock.corrected_s == pytest.approx((2.0 + 2.0 + 3.0) * 2.0 / 3.0)
    assert clock.at(-1.0) == 0.0
    assert clock.at(2.0) == pytest.approx(2.0 / 3.0)
    assert clock.at(3.5) == pytest.approx(4.0 / 3.0)  # inside a kernel
    assert clock.at(99.0) == pytest.approx(clock.corrected_s)
    assert clock.corrected(6.2, 6.8) == 0.0            # inside the excluded interval
    assert clock.kernel_s == pytest.approx(0.024)
    with pytest.raises(ValueError):
        ProgramClock([(0.0, 2.0, 0.006), (1.0, 3.0, 0.006)])


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    ini = base / "tiny.ini"
    ini.write_text(TINY, encoding="utf-8")
    out = base / "out"
    assert cli_main(["run", str(ini), "--out", str(out)]) == 0
    return str(ini), str(out)


def test_file_checks_accept_a_short_real_run(tiny_run):
    _, out = tiny_run
    for tracker in ("proposed", "exhaustive_10deg", "oracle"):
        errors, row = check_run_files(out, tracker, 3, n_sol=7)
        assert errors == [], errors
        assert row["slots"] > 0 and row["tracking_calls"] > 0


def test_file_checks_reject_a_ledger_with_one_kind_flipped(tiny_run, tmp_path):
    _, out = tiny_run
    stem = "proposed_seed3"
    lines = open(os.path.join(out, f"{stem}_slots.csv"), encoding="utf-8").read().splitlines()
    row = next(i for i, line in enumerate(lines) if ",DATA," in line)
    lines[row] = lines[row].replace(",DATA,", ",DL_TRAINING,", 1)
    (tmp_path / f"{stem}_slots.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(os.path.join(out, f"{stem}_summary.txt"), encoding="utf-8") as fh:
        (tmp_path / f"{stem}_summary.txt").write_text(fh.read(), encoding="utf-8")
    errors, _ = check_run_files(str(tmp_path), "proposed", 3, n_sol=7)
    assert any("pct" in e for e in errors), errors


def test_timeline_checks_accept_real_timelines_and_reject_a_flipped_kind(tiny_run):
    ini, _ = tiny_run
    cfg = load_config(ini)
    seed = cfg.seeds[0]
    traj = generate_path(replace(cfg.trajectory, rng_seed=seed), cfg.continuations, cfg.geometry)
    for policy in cfg.policies():
        tl = simengine.run_timeline(traj, policy, cfg.geometry, noise_seed=seed + 1)
        metrics = simengine.overhead_report(tl, tl.gamma)
        errors, row = check_timeline(tl, metrics, seed, cfg.grid.n_sol)
        assert errors == [], errors
        assert row["nondata_slots"] == int(np.count_nonzero(tl.kind))

    kind = np.array(tl.kind)
    kind[np.flatnonzero(kind == 0)[0]] = 1  # a data slot now claims a tracking call
    bad = simengine.Timeline(kind, tl.rss, tl.rss_normalized, tl.inst_rate, tl.cum_rate,
                             tl.config_id, tl.status_id, tl.theta2_true, tl.policy_name,
                             tl.gamma, tl.tracking_calls)
    errors, _ = check_timeline(bad, metrics, seed, cfg.grid.n_sol)
    assert errors


def test_per_event_cost():
    assert per_event_cost("oracle", 7) == 0
    assert per_event_cost("proposed", 5) == 5
    assert per_event_cost("exhaustive_1deg", 7) == 360
    assert per_event_cost("exhaustive_10deg", 7) == 36


def test_missing_hooks_are_reported_absent_and_the_rest_still_traced(monkeypatch):
    fake = types.ModuleType("bench_fake_layer")
    fake.present = lambda x: x * 2
    fake.broken_counter = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "bench_fake_layer", fake)

    def count(counts, args, kwargs, result):
        counts["calls"] += 1

    def bad_count(counts, args, kwargs, result):
        raise TypeError("signature changed")

    tracer = Tracer()
    tracer.install([
        ("bench_fake_layer", "removed", "layer.removed", None),
        ("bench_fake_module_that_is_gone", "f", "gone.f", None),
        ("bench_fake_layer", "present", "layer.present", count),
        ("bench_fake_layer", "broken_counter", "layer.broken", bad_count),
    ])
    assert tracer.absent == ["bench_fake_layer.removed", "bench_fake_module_that_is_gone.f"]
    assert fake.present(21) == 42
    assert fake.broken_counter(1) == 2
    assert [s[0] for s in tracer.spans] == ["layer.present", "layer.broken"]
    assert tracer.counts["calls"] == 1
    assert tracer.uncounted == {"layer.broken"}


def test_every_listed_metric_is_produced():
    import run
    from worker import layer_metrics

    with open(run.SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    clock = types.SimpleNamespace(corrected=lambda t0, t1: t1 - t0, corrected_s=0.0)
    produced = set(layer_metrics(Tracer(), clock, None))
    produced |= {"output_mb", "host.raw_wall_s", "host.speed_factor", "host.trace_overhead_s"}
    produced |= {f"sim.{t}.{m}" for t in run.TRACKERS for m in ("tracking_calls", "nondata_slots")}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "slots_per_s", "setup_s",
                                                       "peak_rss_mb"}
