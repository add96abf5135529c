"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Stochastic criteria use fixed seed sets and the published
evaluation scenario (walks of 3 m at 0.6-1.8 m/s observed in 15.6 us slots).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (brute_force_gain, cartesian_states, matrix_pipeline_sample,
                     synthetic_transition)
from ristrack import (
    ChannelState,
    ExhaustivePolicy,
    LinkGeometry,
    OraclePolicy,
    ProposedPolicy,
    SearchGrid,
    TrajectorySpec,
    coherent_gain_values,
    generate_path,
    measure_observables,
    optimal_config,
    overhead_report,
    received_sample,
    run_scenario,
    run_timeline,
    two_dim_search,
    update_config,
    wrap_two_pi,
)
from ristrack.config import load_config
from ristrack.simengine import _running_mean


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_c1_coherent_gain_closed_form():
    """Closed-form coherent gain equals direct summation, 1e-10, < 1 s."""
    rng = np.random.default_rng(1001)
    geom = LinkGeometry()
    start = time.perf_counter()
    checked = 0
    for n in (1, 2, 64, 128):
        w = rng.uniform(-2.0, 2.0, size=10_000)
        direct = brute_force_gain(geom.kd * w, n)
        closed = coherent_gain_values(w, n, geom.spacing_d, geom.wavelength)
        # relative tolerance floored at |sum| = 1: both routes lose all
        # significant digits at the exact nulls of the pattern
        tol = 1e-10 * np.maximum(1.0, np.abs(direct))
        assert np.all(np.abs(closed - direct) <= tol)
        checked += w.size
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"{checked} random mismatches x N in {{1,2,64,128}} in {elapsed:.2f}s")


def test_c2_aligned_configuration_law():
    """Aligned magnitude |c*beta|*N and matrix-pipeline agreement, 1e-9, < 1 s."""
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    for _ in range(100):
        geom = LinkGeometry(theta1=rng.uniform(-1.3, 1.3))
        phi_ap = rng.uniform(-1.3, 1.3)  # the AP's steering angle must cancel
        theta2 = rng.uniform(-1.3, 1.3)
        beta = complex(rng.normal(), rng.normal())
        if abs(beta) < 1e-3:
            beta = 1.0 + 0.0j
        state = ChannelState(beta=beta, theta2=theta2, r2=4.0)
        slope = optimal_config(geom.theta1, theta2, geom)
        y = received_sample(state, slope, geom)
        want_mag = geom.beamformer_gain * abs(beta) * geom.n_ris
        assert abs(abs(y) - want_mag) <= 1e-9 * want_mag

        # independent explicit-matrix oracle
        y_matrix = matrix_pipeline_sample(beta, theta2, slope, geom, phi_ap)
        assert abs(y - y_matrix) <= 1e-9 * abs(y_matrix)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(2, f"100 random geometries, closed form vs matrix pipeline in {elapsed:.2f}s")


def test_c3_update_rule_consistency():
    """Differential update lands on the direct aligned configuration, 1e-10."""
    rng = np.random.default_rng(1003)
    geom = LinkGeometry()
    for _ in range(100):
        th_a, th_b = rng.uniform(-1.3, 1.3, size=2)
        w = math.sin(th_b) - math.sin(th_a)
        stepped = update_config(optimal_config(geom.theta1, th_a, geom), w, geom)
        direct = optimal_config(geom.theta1, th_b, geom)
        k_ris = np.arange(geom.n_ris)
        delta = np.abs(wrap_two_pi(k_ris * stepped) - wrap_two_pi(k_ris * direct))
        assert np.max(np.minimum(delta, 2 * np.pi - delta)) < 1e-10
    report(3, "100 random angle pairs, phase-wise agreement mod 2*pi")


def test_c4_trajectory_oracle(engine_gain):
    """Walk geometry matches the planar oracle and the gain product is invariant."""
    geom = LinkGeometry(r1=4.0)
    spec = TrajectorySpec(
        theta2_init=np.deg2rad(20.0), r2_init=4.0, psi_a=np.deg2rad(110.0),
        speed_v=0.6, slot_duration_t0=15.6e-6, path_length=1.0, rng_seed=77,
    )
    traj = generate_path(spec, (), geom)
    n = len(traj)
    assert n >= 100_000

    r2_oracle, th_oracle = cartesian_states(spec)
    assert np.max(np.abs(traj.r2 - r2_oracle)) < 1e-9
    assert np.max(np.abs(traj.theta2 - th_oracle)) < 1e-9
    product = np.abs(engine_gain(traj, geom)) * (geom.r1 + traj.r2)
    assert np.max(np.abs(product / product[0] - 1.0)) < 1e-9
    report(4, f"{n} slots against the Cartesian oracle, gain-distance product invariant")


def test_c5_noiseless_search_recovery():
    """Top-7 candidates contain the true mismatch in >= 99 of 100 transitions, < 30 s."""
    rng = np.random.default_rng(1005)
    geom = LinkGeometry(r1=4.0)
    grid = SearchGrid()
    start = time.perf_counter()
    hits = 0
    trials = 100
    for _ in range(trials):
        theta_ref = np.deg2rad(rng.uniform(20.0, 49.0))
        d_theta = np.deg2rad(rng.uniform(-2.0, 2.0))
        d_r = rng.uniform(-0.004, 0.004)
        r2_ref = 4.0
        y_ref, y_now, _ = synthetic_transition(theta_ref, d_theta, d_r, geom, r2_ref,
                                               beta_ref=0.75 + 0.31j)
        obs = measure_observables(y_ref, y_now, geom.r1 + r2_ref, theta_ref)
        top = two_dim_search(obs, grid, geom)
        w_true = math.sin(theta_ref + d_theta) - math.sin(theta_ref)
        step_w = math.sin(theta_ref + grid.theta2_step) - math.sin(theta_ref)
        hits += any(abs(c.w_cand - w_true) <= abs(step_w) * 1.01 for c in top)
    elapsed = time.perf_counter() - start
    assert hits >= 99, f"only {hits}/100 recovered"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(5, f"{hits}/100 transitions recovered within one grid step in {elapsed:.1f}s")


def test_c6_signaling_overhead_reproduction():
    """Overhead shares: proposed < 1%, exhaustive 1 deg in [2, 8]%, ratio >= 10, < 5 min."""
    geom = LinkGeometry(r1=2.0)
    base = TrajectorySpec(r2_init=2.0, speed_v=0.6, path_length=3.0)
    start = time.perf_counter()
    prop_pcts, exh_pcts = [], []
    for seed in range(1, 11):
        traj = generate_path(replace(base, rng_seed=seed), (), geom)
        prop = run_timeline(traj, ProposedPolicy(gamma=0.9), geom, noise_seed=seed + 1)
        exh = run_timeline(traj, ExhaustivePolicy(gamma=0.5, resolution_deg=1.0),
                           geom, noise_seed=seed + 1)
        prop_pcts.append(overhead_report(prop, 0.9).pct_below_threshold)
        exh_pcts.append(overhead_report(exh, 0.5).pct_below_threshold)
    elapsed = time.perf_counter() - start
    prop_mean = float(np.mean(prop_pcts))
    exh_mean = float(np.mean(exh_pcts))
    assert prop_mean < 1.0, f"proposed overhead {prop_mean:.3f}%"
    assert 2.0 <= exh_mean <= 8.0, f"exhaustive overhead {exh_mean:.3f}%"
    assert exh_mean / prop_mean >= 10.0, f"ratio {exh_mean / prop_mean:.1f}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(6, (f"proposed {prop_mean:.3f}%, exhaustive(1deg) {exh_mean:.3f}%, "
               f"ratio {exh_mean / prop_mean:.1f}x over 10 seeds in {elapsed:.0f}s"))


def test_c7_rate_orderings():
    """Cumulative-rate orderings across trackers, velocities and thresholds."""
    geom = LinkGeometry(r1=4.0)
    base = TrajectorySpec(r2_init=4.0, speed_v=0.6, path_length=3.0)
    seeds = range(1, 11)
    start = time.perf_counter()
    finals: dict[str, list[float]] = {}

    def add(key, tl):
        finals.setdefault(key, []).append(float(tl.cum_rate[-1]))

    for seed in seeds:
        traj = generate_path(replace(base, rng_seed=seed), (), geom)
        add("oracle", run_timeline(traj, OraclePolicy(0.9), geom, noise_seed=seed + 1))
        add("proposed", run_timeline(traj, ProposedPolicy(0.9), geom, noise_seed=seed + 1))
        add("prop_g08", run_timeline(traj, ProposedPolicy(0.8), geom, noise_seed=seed + 1))
        add("prop_g05", run_timeline(traj, ProposedPolicy(0.5), geom, noise_seed=seed + 1))
        for res in (1.0, 5.0, 10.0):
            add(f"exh{res:g}", run_timeline(
                traj, ExhaustivePolicy(0.5, res), geom, noise_seed=seed + 1))
        for v in (1.2, 1.8):
            traj_v = generate_path(replace(base, speed_v=v, rng_seed=seed), (), geom)
            add(f"v{v}", run_timeline(traj_v, ProposedPolicy(0.9), geom, noise_seed=seed + 1))
    mean = {k: float(np.mean(v)) for k, v in finals.items()}
    elapsed = time.perf_counter() - start

    assert mean["oracle"] >= mean["proposed"] >= mean["exh5"]
    assert mean["exh5"] >= max(mean["exh1"], mean["exh10"])
    assert mean["proposed"] >= mean["v1.2"] >= mean["v1.8"]
    assert mean["proposed"] >= mean["prop_g08"] >= mean["prop_g05"]
    report(7, (f"oracle {mean['oracle']:.3f} >= proposed {mean['proposed']:.3f} >= "
               f"exh5 {mean['exh5']:.3f} >= max(exh1 {mean['exh1']:.3f}, "
               f"exh10 {mean['exh10']:.3f}); speed and threshold orderings hold "
               f"({elapsed:.0f}s)"))


def test_c8_determinism(tmp_path):
    """Identical configuration and seed give byte-identical artifacts."""
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(
        "[geometry]\nr1_m = 2.0\n"
        "[trajectory]\nr2_init_m = 2.0\npath_length_m = 0.03\n"
        "[tracker]\nalgorithms = proposed, exhaustive:10, oracle\n"
        "[run]\nseeds = 1, 2\n",
        encoding="utf-8",
    )
    cfg = load_config(str(scenario))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    results_a = run_scenario(cfg, out_dir=str(out_a))
    run_scenario(cfg, out_dir=str(out_b))
    compared = 0
    for res in results_a:
        for path in (res.ledger_path, res.summary_path):
            other = path.replace(str(out_a), str(out_b))
            with open(path, "rb") as fa, open(other, "rb") as fb:
                assert fa.read() == fb.read(), path
            compared += 1
    assert compared == 12
    report(8, f"{compared} ledgers and summaries byte-identical across reruns")


def test_c9_running_mean_recurrence():
    """The running mean the ledger prints equals the recurrence to 1e-12 on 1e4 slots.

    It is `_running_mean` chained over blocks of 4093 slots, a length that
    does not divide 1e4, each block starting from the carry the block before
    returned, and it equals the one-shot running mean bit for bit.
    """
    rng = np.random.default_rng(1009)
    x = rng.uniform(0.0, 25.0, size=10_000)
    blocks, carry = [], 0.0
    for lo in range(0, x.size, 4093):
        cum, carry = _running_mean(x[lo:lo + 4093], lo, carry)
        blocks.append(cum)
    series = np.concatenate(blocks)
    assert len(blocks) == 3 and series.shape == x.shape
    acc = x[0]
    assert abs(series[0] - acc) <= 1e-12
    for t in range(1, x.size):
        acc = (t * acc + x[t]) / (t + 1)
        assert abs(series[t] - acc) <= 1e-12
    direct = np.cumsum(x) / np.arange(1, x.size + 1)
    assert np.array_equal(series.view(np.uint64), direct.view(np.uint64))
    report(9, "blockwise running mean vs recurrence and one-shot mean on 10000 slots")
