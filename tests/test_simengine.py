import functools
import gc
import inspect
import math
import tracemalloc
import weakref
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from oracles import gain_column, gain_step, matrix_pipeline_sample, noise_column
import ristrack.mobility as mobility
import ristrack.simengine as simengine
from ristrack import (
    ChannelState,
    ExhaustivePolicy,
    LinkGeometry,
    OraclePolicy,
    ProposedPolicy,
    SearchGrid,
    SlotKind,
    Trajectory,
    TrajectorySpec,
    generate_path,
    instantaneous_rate,
    overhead_report,
    received_sample,
    run_timeline,
    slot_count,
)
from ristrack import runner
from ristrack.config import ScenarioConfig
from ristrack.ris import _dirichlet
from ristrack.wavefield import TWO_PI

GEOM = LinkGeometry(r1=2.0)
SPEC = TrajectorySpec(r2_init=2.0, speed_v=0.6, path_length=0.05, rng_seed=11)


@pytest.fixture(scope="module")
def traj():
    return generate_path(SPEC, (), GEOM)


# the noiseless runs at gamma = 0.9 that many tests read, one per policy
@pytest.fixture(scope="module")
def proposed(traj):
    return run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_seed=None)


@pytest.fixture(scope="module")
def oracle(traj):
    return run_timeline(traj, OraclePolicy(gamma=0.9), GEOM, noise_seed=None)


def kinds_of(tl):
    return np.asarray(tl.kind, dtype=int)


def first_peak(traj, geom):
    """The aligned rss |c*beta*N|^2 at slot 1, beta the initial gain moved to its distance."""
    return abs(geom.beamformer_gain * gain_step(traj.b0, traj.walk.r0, traj.r2[0], geom)
               * geom.n_ris) ** 2


class TestInstantaneousRate:
    def test_zero_rss(self):
        assert instantaneous_rate(0.0) == 0.0

    def test_unit_snr(self):
        assert instantaneous_rate(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("rss", [-1.0, float("nan"), [1.0, float("nan")], [0.0, -1e-300]])
    def test_rejects_bad_inputs(self, rss):
        with pytest.raises(ValueError, match="rss must be >= 0"):
            instantaneous_rate(rss)


def chained_running_mean(x, size):
    """`_running_mean` over blocks of `size` slots, each from the carry the one before returned."""
    blocks, carry = [], 0.0
    for lo in range(0, len(x), size):
        cum, carry = simengine._running_mean(np.asarray(x[lo:lo + size], dtype=float), lo, carry)
        blocks.append(cum)
    return np.concatenate(blocks), carry


class TestRunningMean:
    """The running mean behind every `cum_rate` cell, and the running sum behind its final value."""

    @pytest.mark.parametrize("rates, mean, total", [
        (np.full(5, 3.0), 3.0, 15.0), (np.array([4.0, 0.0]), [4.0, 2.0], 4.0),
    ], ids=["constant_series", "two_slot_mean"])
    def test_hand_values(self, rates, mean, total):
        cum, got = simengine._running_mean(rates, 0, 0.0)
        assert np.allclose(cum, mean)
        assert got == total

    def test_matches_recurrence_oracle(self):
        rng = np.random.default_rng(99)
        x = rng.uniform(0, 20, size=1000)
        out, _ = chained_running_mean(x, 333)
        # independent oracle: the slot-by-slot running-mean recurrence
        acc = x[0]
        assert abs(out[0] - acc) <= 1e-12
        for t in range(1, x.size):
            acc = (t * acc + x[t]) / (t + 1)
            assert abs(out[t] - acc) <= 1e-12

    def test_blocks_continue_one_cumsum_bit_for_bit(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 20, size=2000)
        want = np.cumsum(x) / np.arange(1, x.size + 1)
        for size in (1, 7, 256, 1999, 2000):
            got, total = chained_running_mean(x, size)
            assert_same_bits(got, want, f"blocks of {size}")
            assert total == np.cumsum(x)[-1]

    def test_empty_block_keeps_the_carry(self):
        cum, total = simengine._running_mean(np.empty(0), 40, 12.5)
        assert cum.shape == (0,) and total == 12.5

    def test_running_sum_is_the_last_cumsum_entry(self):
        rng = np.random.default_rng(5)
        for n in (1, simengine._BLOCK, 2 * simengine._BLOCK + 17):
            x = rng.uniform(0, 20, size=n)
            assert simengine._running_sum(x) == np.cumsum(x)[-1]
        assert simengine._running_sum(np.empty(0)) == 0.0


class TestEventAccounting:
    @pytest.mark.parametrize("policy,training,feedback", [
        (ProposedPolicy(gamma=0.9), 7, 2),
        (ProposedPolicy(gamma=0.9, grid=SearchGrid(n_sol=4)), 4, 2),
        (ExhaustivePolicy(gamma=0.5, resolution_deg=10.0), 36, 2),
        (OraclePolicy(gamma=0.9), 0, 0),
    ], ids=["proposed", "proposed_n_sol_4", "exhaustive_10deg", "oracle"])
    def test_event_slot_accounting(self, traj, policy, training, feedback):
        # every slot has one kind; per event: one trigger slot, and the
        # tracker's feedback and training slots
        tl = run_timeline(traj, policy, GEOM, noise_seed=None)
        counts = np.bincount(kinds_of(tl), minlength=len(SlotKind))
        assert counts.size == len(SlotKind) and counts.sum() == len(tl) == len(traj)
        assert tl.tracking_calls > 0
        assert counts[SlotKind.DATA_BELOW_THRESHOLD] == tl.tracking_calls
        assert counts[SlotKind.DL_TRAINING] == training * tl.tracking_calls
        assert counts[SlotKind.UL_FEEDBACK] == feedback * tl.tracking_calls


class TestOracleTimeline:
    def test_peak_rss_at_status_reference(self, traj, oracle, engine_gain):
        kinds = kinds_of(oracle)
        # first slot of each status is exactly the aligned peak |c*beta*N|^2
        starts = [0] + [i + 1 for i in np.nonzero(kinds == int(SlotKind.DATA_BELOW_THRESHOLD))[0]
                        if i + 1 < len(oracle)]
        peak = (GEOM.beamformer_gain * np.abs(engine_gain(traj, GEOM)) * GEOM.n_ris) ** 2
        for i in starts:
            assert oracle.rss[i] == pytest.approx(peak[i], rel=1e-9)

    def test_data_slots_stay_at_or_above_threshold(self, oracle):
        kinds = kinds_of(oracle)
        data = kinds == int(SlotKind.DATA)
        assert np.all(oracle.rss_normalized[data] >= 0.9 - 1e-12)


class TestProposedTimeline:
    def test_event_slot_sequence(self, proposed):
        kinds = kinds_of(proposed)
        t2 = int(np.nonzero(kinds == int(SlotKind.DATA_BELOW_THRESHOLD))[0][0])
        assert kinds[t2 + 1] == int(SlotKind.UL_FEEDBACK)
        assert np.all(kinds[t2 + 2 : t2 + 9] == int(SlotKind.DL_TRAINING))
        assert kinds[t2 + 9] == int(SlotKind.UL_FEEDBACK)
        assert kinds[t2 + 10] == int(SlotKind.DATA)

    def test_recovers_after_event(self, traj, proposed, engine_gain):
        kinds = kinds_of(proposed)
        t2 = int(np.nonzero(kinds == int(SlotKind.DATA_BELOW_THRESHOLD))[0][0])
        peak = (GEOM.beamformer_gain * np.abs(engine_gain(traj, GEOM)) * GEOM.n_ris) ** 2
        # retrained configuration restores at least 99% of the aligned peak
        assert proposed.rss[t2 + 10] >= 0.99 * peak[t2 + 10]

    def test_a_reused_policy_starts_each_run_afresh(self):
        # the belief lives in the run's tracker, so a policy run before leaves none behind
        geom = LinkGeometry()
        a = generate_path(TrajectorySpec(path_length=0.3, rng_seed=1), (), geom)
        b = generate_path(TrajectorySpec(theta2_init=np.deg2rad(-10.0), psi_a=np.deg2rad(60.0),
                                         path_length=0.3, rng_seed=2), (), geom)
        policy = ProposedPolicy()
        assert run_timeline(a, policy, geom, noise_seed=2).tracking_calls > 0
        again = run_timeline(b, policy, geom, noise_seed=3)
        fresh = run_timeline(b, ProposedPolicy(), geom, noise_seed=3)
        assert fresh.tracking_calls > 0
        for column in ("first", "kind", "status_id", "config_id", "rss_ref"):
            assert np.array_equal(getattr(again.statuses, column),
                                  getattr(fresh.statuses, column)), column
        assert np.array_equal(again.rss, fresh.rss)


class TestExhaustiveTimeline:
    def test_channel_keeps_moving_during_sweep(self, traj):
        tl = run_timeline(traj, ExhaustivePolicy(gamma=0.5, resolution_deg=10.0),
                          GEOM, noise_seed=None)
        kinds = kinds_of(tl)
        train = np.nonzero(kinds == int(SlotKind.DL_TRAINING))[0]
        assert tl.theta2_true[train[-1]] != tl.theta2_true[train[0]]

    def test_training_slot_i_measures_candidate_i(self, engine_gain):
        # slot cursor+i of an event is received under swept slope i, with the
        # channel of that slot: explicit element sum at the slot's own angle
        walk = generate_path(replace(SPEC, path_length=0.2), (), GEOM)
        tl = run_timeline(walk, ExhaustivePolicy(gamma=0.5, resolution_deg=10.0),
                          GEOM, noise_seed=None)
        assert tl.tracking_calls > 1
        train = np.nonzero(kinds_of(tl) == int(SlotKind.DL_TRAINING))[0]
        config, status = tl.config_id, tl.status_id
        first_id = {s: config[train][status[train] == s].min() for s in np.unique(status[train])}
        beta = engine_gain(walk, GEOM)
        for t in train:
            slope = np.deg2rad(10.0 * (config[t] - first_id[status[t]]))
            want = abs(matrix_pipeline_sample(beta[t], walk.theta2[t], slope, GEOM)) ** 2
            assert tl.rss[t] == pytest.approx(want, rel=1e-9)


class TestTimelineStructure:
    @pytest.mark.parametrize("policy", [ProposedPolicy(gamma=0.9), OraclePolicy(gamma=0.9)],
                             ids=["proposed", "oracle"])
    def test_near_stationary_user_never_triggers(self, policy):
        quiet = TrajectorySpec(r2_init=2.0, speed_v=1e-4, slot_duration_t0=15.6e-6,
                               path_length=1e-6, rng_seed=2)
        tl = run_timeline(generate_path(quiet, (), GEOM), policy, GEOM, noise_seed=None)
        assert tl.tracking_calls == 0
        assert np.all(kinds_of(tl) == int(SlotKind.DATA))
        # and its report reads no signaling and no rate gap
        m = overhead_report(tl, 0.9)
        assert m.pct_below_threshold == 0.0
        assert m.tracking_calls == 0
        assert math.isnan(m.avg_error_vs_oracle)

    def test_bit_reproducible_with_noise(self, traj):
        a = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_seed=5)
        b = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_seed=5)
        for left, right in ((a.rss, b.rss), (a.kind, b.kind), (a.inst_rate, b.inst_rate),
                            (a.config_id, b.config_id), (a.status_id, b.status_id)):
            assert np.array_equal(left, right)

    def test_different_noise_seed_differs(self, traj):
        a = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_seed=5)
        b = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_seed=6)
        assert not np.array_equal(a.rss, b.rss)

    def test_status_ids_monotone_and_count_events(self, proposed):
        status = np.asarray(proposed.status_id, dtype=int)
        assert np.all(np.diff(status) >= 0)
        assert status[0] == 1
        assert status[-1] - status[0] == proposed.tracking_calls

    def test_absolute_threshold_mode(self, traj):
        tl = run_timeline(traj, ProposedPolicy(gamma=float(0.9 * first_peak(traj, GEOM))), GEOM,
                          noise_seed=None, threshold_mode="absolute")
        assert tl.tracking_calls > 0

    def test_gamma_validated_per_mode(self, traj):
        with pytest.raises(ValueError):
            run_timeline(traj, ProposedPolicy(gamma=1.5), GEOM, noise_seed=None)
        with pytest.raises(ValueError):
            run_timeline(traj, OraclePolicy(gamma=0.9), GEOM, noise_seed=None,
                         threshold_mode="sideways")
        # an absolute threshold must be finite and positive; NaN compares false
        for gamma in (0.0, -1.0, math.nan, math.inf):
            for policy in (ProposedPolicy(gamma=gamma), OraclePolicy(gamma=gamma)):
                with pytest.raises(ValueError, match="finite gamma > 0"):
                    run_timeline(traj, policy, GEOM, noise_seed=None,
                                 threshold_mode="absolute")
        for gamma in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"gamma in \(0, 1\]"):
                run_timeline(traj, ProposedPolicy(gamma=gamma), GEOM, noise_seed=None)

    def test_a_trajectory_runs_under_any_geometry(self, traj):
        # a trajectory is its walk and its initial gain, and a run builds the
        # gain under its own geometry: a trajectory generated under one scene
        # and run under another is the same seed generated under the run's
        scenes = [replace(GEOM, r1=r1, wavelength=wavelength)
                  for r1 in (2.0, 4.0) for wavelength in (0.004, 0.005)]
        policies = (ProposedPolicy(), ExhaustivePolicy(resolution_deg=10.0))
        for made in scenes:
            moved = generate_path(SPEC, (), made)
            for geom in scenes:
                if geom == made:
                    continue
                for noise_seed in (None, 3):
                    for policy in policies:
                        got = run_timeline(moved, policy, geom, noise_seed=noise_seed)
                        want = run_timeline(generate_path(SPEC, (), geom), policy, geom,
                                            noise_seed=noise_seed)
                        assert want.tracking_calls > 0, (policy.name, geom)
                        assert_same_bits(got.rss, want.rss, "rss")
                        for f in fields(want.statuses):
                            assert_same_bits(getattr(got.statuses, f.name),
                                             getattr(want.statuses, f.name), f.name)
        # every other field is free
        for change in (dict(n_ris=7), dict(snr_linear=0.1), dict(n_tx=4), dict(theta1=0.5),
                       dict(spacing=0.002)):
            run_timeline(traj, ProposedPolicy(), replace(GEOM, **change), noise_seed=None)


class TestOverheadReport:
    def test_counts_read_off_the_status_table_bit_for_bit(self, default_scans, proposed):
        for tl in (*default_scans, proposed):
            m = overhead_report(tl, tl.gamma)
            assert m.tracking_calls == tl.tracking_calls
            assert m.pct_below_threshold == 100.0 * float(np.mean(tl.kind != SlotKind.DATA))
            r = tl.inst_rate
            final = (np.cumsum(r) / np.arange(1, r.size + 1))[-1]
            assert m.final_cum_rate == tl.cum_rate[-1] == final
            assert m.cumulative_rate_series.shape == (1,)
            assert m.cumulative_rate_series[-1] == m.final_cum_rate

    def test_reports_of_one_seed_derive_the_oracle_rates_once(self, traj, monkeypatch):
        timelines = [run_timeline(traj, policy, GEOM, noise_seed=3)
                     for policy in (ProposedPolicy(), ExhaustivePolicy(resolution_deg=10.0),
                                    ExhaustivePolicy(resolution_deg=5.0), OraclePolicy())]
        oracle = timelines[-1]
        want = [overhead_report(tl, tl.gamma, oracle) for tl in timelines[:-1]]
        del vars(oracle)["reference_rates"]
        want.append(overhead_report(oracle, oracle.gamma))  # rates derived afresh
        derived = []  # whether each derivation read the oracle's rss

        def spy(rss):
            derived.append(np.shares_memory(rss, oracle.rss))
            return instantaneous_rate(rss)

        monkeypatch.setattr(simengine, "instantaneous_rate", spy)
        got = [overhead_report(tl, tl.gamma, None if tl is oracle else oracle)
               for tl in timelines]
        assert got == want
        # each report derives its own rates; the oracle's once for all, its own report too
        assert derived == [False, True, False, False]
        # the oracle run holds its rates, and they die with it
        assert not oracle.reference_rates.flags.writeable
        kept = weakref.ref(oracle.reference_rates)
        del oracle, timelines
        gc.collect()
        assert kept() is None

    def test_error_vs_oracle(self, proposed, oracle):
        m = overhead_report(proposed, 0.9, oracle_records=oracle)
        want = float(np.mean(np.abs(proposed.inst_rate - oracle.inst_rate)))
        assert m.avg_error_vs_oracle == pytest.approx(want)
        self_err = overhead_report(oracle, 0.9, oracle_records=oracle)
        assert self_err.avg_error_vs_oracle == 0.0


class TestCumulativeOrdering:
    def test_oracle_cumulative_dominates(self, proposed, oracle):
        # the genie pays no signaling slots, so its running mean wins even
        # though a freshly retrained tracker can transiently beat an aged
        # genie configuration on single slots
        assert oracle.cum_rate[-1] >= proposed.cum_rate[-1]


# Edge scenarios for the ledger invariants: (geometry, walk, continuations,
# threshold mode). Each is long enough for the proposed tracker to fire events.
MATRIX = {
    "snr_minus_40db": (replace(GEOM, snr_linear=1e-4), replace(SPEC, path_length=0.05),
                       (), "normalized"),
    "n_ris_2": (replace(GEOM, n_ris=2), replace(SPEC, path_length=0.05), (), "normalized"),
    "n_ris_4": (replace(GEOM, n_ris=4), replace(SPEC, path_length=0.2), (), "normalized"),
    "walk_5mps": (GEOM, replace(SPEC, speed_v=5.0, path_length=0.1), (), "normalized"),
    "two_turns_1p8mps": (GEOM, replace(SPEC, speed_v=1.8),
                         ((np.deg2rad(70.0), 0.05), (np.deg2rad(150.0), 0.05)), "normalized"),
    "absolute_thresholds": (GEOM, SPEC, (), "absolute"),
}


class TestLedgerInvariantMatrix:
    @pytest.mark.parametrize("case", sorted(MATRIX))
    def test_invariants_hold(self, case):
        geom, spec, continuations, mode = MATRIX[case]
        walk = generate_path(spec, continuations, geom)
        # absolute thresholds sit at fixed shares of the first slot's aligned peak
        scale = first_peak(walk, geom) if mode == "absolute" else 1.0
        sweep = ExhaustivePolicy(0.5 * scale, 10.0)
        runs = ((ProposedPolicy(0.9 * scale), ProposedPolicy().grid.n_sol),
                (sweep, sweep.slopes.size),
                (OraclePolicy(0.9 * scale), 0))
        for policy, cost in runs:
            tl = run_timeline(walk, policy, geom, noise_seed=8, threshold_mode=mode)
            kinds = kinds_of(tl)
            counts = np.bincount(kinds, minlength=len(SlotKind))
            events = tl.tracking_calls
            status = np.asarray(tl.status_id, dtype=int)
            config = np.asarray(tl.config_id, dtype=int)
            if policy.name == "proposed":
                assert events > 0, case
            assert counts.size == len(SlotKind) and counts.sum() == len(tl)
            assert counts[SlotKind.DATA_BELOW_THRESHOLD] == events == status[-1] - status[0]
            assert counts[SlotKind.DL_TRAINING] <= events * cost
            assert counts[SlotKind.UL_FEEDBACK] <= 2 * events
            assert np.all(np.diff(status) >= 0)
            data = kinds == int(SlotKind.DATA)
            assert np.all(np.diff(config[data]) >= 0)
            for s in np.unique(status[data]):
                assert np.unique(config[data & (status == s)]).size == 1
            train = config[kinds == int(SlotKind.DL_TRAINING)]
            assert np.unique(train).size == train.size


# default geometry and walk, cut to 0.3 m: about 32k slots with statuses of a few
# thousand slots each, several windows long
WINDOW_GEOM = LinkGeometry()
WINDOW_POLICIES = (ProposedPolicy(), ExhaustivePolicy(resolution_deg=10.0), OraclePolicy())
# -10 dB: statuses still last thousands of slots, and noise dips below the
# threshold at slots that the probes step over
LOW_SNR_GEOM = replace(WINDOW_GEOM, snr_linear=0.1)

# scan constants set against the defaults; a window size is named by its value
SCAN_SETTINGS = {
    "7": dict(_SCAN_WINDOW=7),  # spans after nearly every status
    "1000000000": dict(_SCAN_WINDOW=10**9),  # one window, never a span
    "probing_off": dict(_PROBE_SLOTS=10**9),  # spans at the default window, evaluated at stride 1
    "probing_every_span": dict(_SCAN_WINDOW=1),  # the first status slot by slot, then spans
    "stride_1": dict(_SCAN_WINDOW=7, _PROBE_SLOTS=10**9),
    "two_probes_per_span": dict(_SCAN_WINDOW=7, _PROBE_SLOTS=2),
}


@pytest.fixture(scope="module")
def default_walk():
    return generate_path(TrajectorySpec(path_length=0.3, rng_seed=4), (), WINDOW_GEOM)


def scan_runs(walk):
    """(geometry, policy, threshold mode) of every run the scan settings are checked on."""
    # absolute thresholds sit at fixed shares of the first slot's aligned peak
    peak = first_peak(walk, WINDOW_GEOM)
    absolute = (ProposedPolicy(0.9 * peak), ExhaustivePolicy(0.5 * peak, 10.0),
                OraclePolicy(0.9 * peak))
    return ([(WINDOW_GEOM, p, "normalized") for p in WINDOW_POLICIES]
            + [(WINDOW_GEOM, p, "absolute") for p in absolute]
            + [(LOW_SNR_GEOM, p, "normalized") for p in WINDOW_POLICIES])


@pytest.fixture(scope="module")
def default_scans(default_walk):
    return [run_timeline(default_walk, policy, geom, noise_seed=5, threshold_mode=mode)
            for geom, policy, mode in scan_runs(default_walk)]


def probe_missed_trigger(calls, tl) -> bool:
    """Whether a probed slot after some trigger stayed above threshold.

    Each probe is followed by the evaluation of its span up to the probe's
    bound; the trigger then lies a full stride or more before that bound.
    """
    triggers = np.nonzero(kinds_of(tl) == int(SlotKind.DATA_BELOW_THRESHOLD))[0]
    for probe, span in zip(calls, calls[1:]):
        if probe.step > 1:
            inside = triggers[(triggers >= span.lo) & (triggers < span.hi)]
            if inside.size and span.hi - 1 - inside[0] >= probe.step:
                return True
    return False


class TestScanWindow:
    @pytest.mark.parametrize("setting", sorted(SCAN_SETTINGS))
    def test_window_changes_no_result(self, default_walk, default_scans, monkeypatch,
                                      setting):
        for name, value in SCAN_SETTINGS[setting].items():
            monkeypatch.setattr(simengine, name, value)
        for (geom, policy, mode), want in zip(scan_runs(default_walk), default_scans):
            got = run_timeline(default_walk, policy, geom, noise_seed=5, threshold_mode=mode)
            assert want.tracking_calls > 0, policy.name
            assert got.tracking_calls == want.tracking_calls
            for col in ("kind", "status_id", "config_id"):
                assert np.array_equal(getattr(got, col), getattr(want, col)), col
            # numpy's vector loops may round the last bit differently once
            # the slices start at other offsets
            for col in ("rss", "rss_normalized", "inst_rate", "cum_rate"):
                np.testing.assert_allclose(getattr(got, col), getattr(want, col),
                                           rtol=1e-12, atol=0, err_msg=col)

    def test_probes_step_over_noise_crossings(self, default_walk, engine_calls):
        # the case the exact evaluation up to the probe's bound exists for
        missed = []
        for policy in WINDOW_POLICIES:
            engine_calls.clear()
            tl = run_timeline(default_walk, policy, LOW_SNR_GEOM, noise_seed=5)
            missed.append(probe_missed_trigger(engine_calls, tl))
        assert any(missed)

    def test_each_slot_evaluated_about_once(self, default_walk, engine_calls):
        n = len(default_walk)
        for policy in WINDOW_POLICIES:
            engine_calls.clear()
            tl = run_timeline(default_walk, policy, WINDOW_GEOM, noise_seed=5)
            kinds = kinds_of(tl)
            training = int(np.sum(kinds == int(SlotKind.DL_TRAINING)))
            kept = int(np.sum(kinds != int(SlotKind.UL_FEEDBACK)))
            evaluated = sum(len(c.slots) for c in engine_calls)
            scans = sum(c.scan for c in engine_calls)
            statuses = tl.tracking_calls + 1
            # every window but the one holding a trigger is kept whole, and a
            # span wastes its probes and less than one stride past the trigger
            bound = n + (tl.tracking_calls + 1) * simengine._SCAN_WINDOW + training
            assert evaluated <= bound, policy.name
            # fixed 1024-slot windows evaluate 1.107/1.082/1.111 slots per kept
            # slot in 2.92/4.86/2.92 scan calls per status; spans sized from the
            # status before take 1.071/1.057/1.068 slots in 2.08/2.71/2.08 calls
            assert evaluated <= 1.08 * kept, policy.name
            assert scans <= 2.75 * statuses, policy.name
            # and the hook sees every received slot, so it cannot pass by seeing none
            assert evaluated >= kept, policy.name


def assert_same_timeline(got, want):
    assert (got.policy_name, got.gamma, got.tracking_calls) == \
        (want.policy_name, want.gamma, want.tracking_calls)
    for col in ("kind", "rss", "rss_normalized", "inst_rate", "cum_rate", "config_id",
                "status_id", "theta2_true"):
        assert np.array_equal(getattr(got, col), getattr(want, col)), col


class TestSlotColumns:
    def test_every_key_matches_a_fresh_trajectory(self):
        # one trajectory under interleaved trackers and changing columns keys;
        # each timeline must equal a run on a freshly generated trajectory
        walk = generate_path(SPEC, (), GEOM)
        peak = first_peak(walk, GEOM)
        normal = (ProposedPolicy(), ExhaustivePolicy(resolution_deg=10.0), OraclePolicy())
        absolute = (ProposedPolicy(0.9 * peak), ExhaustivePolicy(0.5 * peak, 10.0),
                    OraclePolicy(0.9 * peak))
        geom7 = replace(GEOM, snr_linear=20.0, n_ris=7)
        settings = (
            (normal, GEOM, dict(noise_seed=5)),
            (normal, GEOM, dict(noise_seed=6)),
            (normal, GEOM, dict(noise_seed=5)),
            (normal, GEOM, dict(noise_seed=None)),
            (normal, geom7, dict(noise_seed=5)),
            (absolute, GEOM, dict(noise_seed=5, threshold_mode="absolute")),
        )
        for turn in range(len(normal)):
            for policies, geom, kwargs in settings:
                policy = policies[turn]
                got = run_timeline(walk, policy, geom, **kwargs)
                want = run_timeline(generate_path(SPEC, (), GEOM), policy, geom, **kwargs)
                assert_same_timeline(got, want)
                if policy.name == "proposed":
                    assert got.tracking_calls > 0, kwargs
        kept = weakref.ref(walk.columns)
        del walk
        gc.collect()
        assert kept() is None

    def test_noiseless_columns_are_kept_and_shared(self, monkeypatch):
        built = []
        original = simengine._SlotColumns
        monkeypatch.setattr(simengine, "_SlotColumns",
                            lambda *args: built.append(1) or original(*args))
        walk = generate_path(SPEC, (), GEOM)
        run_timeline(walk, OraclePolicy(), GEOM, noise_seed=None)
        tl = run_timeline(walk, ProposedPolicy(), GEOM, noise_seed=None)
        assert tl.tracking_calls > 0
        # the second tracker found the first one's columns under (geometry, None)
        assert len(built) == 1
        cols = walk.columns
        assert cols.noise.dtype == complex and cols.noise.shape == (len(walk),)
        assert not np.any(cols.noise)
        assert not cols.noise.flags.writeable
        # once the walk keeps its channel, a seed's noiseless columns hold
        # no column of their own: the noise is one zero that every slot views
        simengine._slot_columns(generate_path(replace(SPEC, rng_seed=12), (), GEOM), GEOM, None)
        seed = generate_path(replace(SPEC, rng_seed=13), (), GEOM)
        cols, peak = traced_peak(lambda: simengine._slot_columns(seed, GEOM, None))
        assert peak <= 4096 < 16 * len(seed), peak
        assert cols.noise.shape == (len(seed),) and not np.any(cols.noise)

    def test_noise_is_the_scaled_pair_of_draws(self, traj):
        # unit power: each part has variance 1/2
        cols = simengine._slot_columns(traj, GEOM, 9)
        want = noise_column(len(traj), traj.walk.uncut_slots, 9)
        assert np.array_equal(cols.noise.view(np.uint64), want.view(np.uint64))

    def test_noise_seed_is_the_one_required_noise_argument(self, traj):
        params = inspect.signature(run_timeline).parameters
        assert "noise_enabled" not in params
        assert params["noise_seed"].default is inspect.Parameter.empty
        with pytest.raises(TypeError):
            run_timeline(traj, OraclePolicy(), GEOM)


# the default walk and the fast two-turn walk of the tracking_stress benchmark
CACHE_WALKS = {
    "default": (TrajectorySpec(), ()),
    "two_turns": (TrajectorySpec(speed_v=1.8),
                  ((np.deg2rad(70.0), 1.0), (np.deg2rad(150.0), 1.0))),
}
CACHE_POLICIES = (ProposedPolicy(), ExhaustivePolicy(resolution_deg=10.0), OraclePolicy())


def simulate_seed(spec, continuations, seed, noise_seed):
    """A seed's trajectory, its slot columns and a run of every cache-test tracker."""
    walk = generate_path(replace(spec, rng_seed=seed), continuations, WINDOW_GEOM)
    cols = simengine._slot_columns(walk, WINDOW_GEOM, noise_seed)
    return walk, cols, [run_timeline(walk, p, WINDOW_GEOM, noise_seed=noise_seed)
                        for p in CACHE_POLICIES]


def forget_walk():
    """Make the next walk a cold one: `generate_path` keeps only the last walk it built."""
    generate_path(TrajectorySpec(path_length=0.001), (), WINDOW_GEOM)


class TestWalkCache:
    @pytest.mark.parametrize("noise_seed", [4, None])
    @pytest.mark.parametrize("walk", sorted(CACHE_WALKS))
    def test_warm_and_cold_caches_give_the_same_bits(self, walk, noise_seed):
        spec, continuations = CACHE_WALKS[walk]
        forget_walk()
        cold = simulate_seed(spec, continuations, 3, noise_seed)
        forget_walk()
        # the first seed's walk keeps kdu, and the second seed's run its channel
        for seed in (1, 2):
            simulate_seed(spec, continuations, seed, noise_seed)
        warm = simulate_seed(spec, continuations, 3, noise_seed)
        (cold_walk, cold_cols, cold_runs), (warm_walk, warm_cols, warm_runs) = cold, warm
        for col in ("theta2", "r2"):
            assert_same_bits(getattr(warm_walk, col), getattr(cold_walk, col), col)
        assert warm_cols.b0 == cold_cols.b0 == warm_walk.b0
        for col in ("kdu", "channel", "noise"):
            assert_same_bits(getattr(warm_cols, col), getattr(cold_cols, col), col)
        for got, want in zip(warm_runs, cold_runs):
            assert want.tracking_calls > 0, want.policy_name
            assert_same_bits(got.rss, want.rss, "rss")
            for f in fields(want.statuses):
                assert_same_bits(getattr(got.statuses, f.name), getattr(want.statuses, f.name),
                                 f.name)

    def test_a_trajectory_owns_what_it_holds(self):
        # a cut views the walk's read-only columns: it allocates none of its
        # own, and nothing a trajectory holds can be written
        walk = generate_path(SPEC, (), GEOM)
        cut, peak = traced_peak(lambda: walk[:-1])
        assert peak <= 4096 < 8 * len(cut), peak
        cols = simengine._slot_columns(cut, GEOM, 1)
        for arr in (cut.theta2, cut.r2, walk.theta2, walk.r2, cols.kdu, cols.channel,
                    cols.noise, *cut.walk.channel(GEOM)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
        # the one constructor takes a walk: the old array constructor is gone
        with pytest.raises(TypeError):
            Trajectory(walk.b0, walk.theta2, walk.r2, GEOM, walk.starts)

    def test_any_change_of_walk_or_geometry_misses(self, monkeypatch):
        turn = ((np.deg2rad(70.0), 0.01),)
        spec = replace(SPEC, path_length=0.01)
        geom = LinkGeometry()

        def generate(spec, continuations, geom):
            got = generate_path(spec, continuations, geom)
            cols = simengine._slot_columns(got, geom, 1)
            forget_walk()
            want = generate_path(spec, continuations, geom)
            for col in ("theta2", "r2"):
                assert_same_bits(getattr(got, col), getattr(want, col), col)
            fresh = simengine._slot_columns(want, geom, 1)
            for col in ("kdu", "channel"):
                assert_same_bits(getattr(cols, col), getattr(fresh, col), col)

        walks = [replace(spec, **{name: getattr(spec, name) * 1.01})
                 for name in ("theta2_init", "r2_init", "psi_a", "speed_v",
                              "slot_duration_t0", "path_length")]
        for other_spec, continuations in ([(w, turn) for w in walks]
                                          + [(spec, ()), (spec, ((np.deg2rad(71.0), 0.01),)),
                                             (spec, ((np.deg2rad(70.0), 0.02),)),
                                             (spec, turn * 2)]):
            generate_path(spec, turn, geom)
            generate(other_spec, continuations, geom)
        # a geometry moves the gain, not the walk, and misses the columns
        walked = []
        original = mobility._walk_geometry
        monkeypatch.setattr(mobility, "_walk_geometry",
                            lambda *args: walked.append(1) or original(*args))
        for change in (dict(n_ris=8), dict(wavelength=0.004), dict(spacing=0.002),
                       dict(theta1=0.5), dict(r1=3.0), dict(snr_linear=2.0), dict(n_tx=4)):
            simengine._slot_columns(generate_path(spec, turn, geom), geom, 1)
            walked.clear()
            generate_path(spec, turn, replace(geom, **change))
            assert not walked, change
            generate(spec, turn, replace(geom, **change))

    def test_a_walk_past_the_plane_raises_every_time_and_is_not_kept(self, monkeypatch):
        spec = TrajectorySpec(theta2_init=np.deg2rad(80.0), r2_init=1.0,
                              psi_a=np.deg2rad(150.0), path_length=3.0)
        generate_path(SPEC, (), GEOM)
        calls = []
        original = mobility._walk_geometry
        monkeypatch.setattr(mobility, "_walk_geometry",
                            lambda *args: calls.append(args) or original(*args))
        for seed in (1, 2, 3):
            with pytest.raises(ValueError, match="at slot 54243"):
                generate_path(replace(spec, rng_seed=seed), (), GEOM)
            assert len(calls) == seed
        # nor is the walk kept before it: it is walked again
        generate_path(SPEC, (), GEOM)
        assert len(calls) == 4

    def test_a_second_seed_walks_and_builds_no_column_again(self, monkeypatch):
        spec, continuations = CACHE_WALKS["two_turns"]
        spec = replace(spec, path_length=0.05)
        forget_walk()
        walks, gains = [], []
        original_walk = mobility._walk_geometry
        monkeypatch.setattr(mobility, "_walk_geometry",
                            lambda *args: walks.append(1) or original_walk(*args))
        original_gain = mobility._segment_gain
        monkeypatch.setattr(mobility, "_segment_gain",
                            lambda b0, r0, r2, geom: gains.append(r2.size)
                            or original_gain(b0, r0, r2, geom))
        first = simulate_seed(spec, continuations, 1, 5)
        n = len(first[0])

        def channels_built():
            # a channel build takes the gain of every slot once, block by
            # block and segment by segment
            return sum(gains) / n

        # one geometry per segment; the channel built and not kept
        assert (len(walks), channels_built()) == (3, 1)
        simulate_seed(spec, continuations, 2, 6)
        # no walk again, and the channel built once more, to keep
        assert (len(walks), channels_built()) == (3, 2)
        del gains[:]
        simulate_seed(spec, continuations, 3, 7)
        # the third seed only draws its gain: it builds no channel at all
        assert len(walks) == 3 and gains == [], gains

    @pytest.mark.parametrize("name", sorted(CACHE_WALKS))
    def test_later_seeds_take_the_walks_own_columns(self, name):
        # a seed's slot columns hold its noise and its initial gain; once a
        # walk keeps its channel, kdu and the channel are the walk's
        spec, continuations = CACHE_WALKS[name]
        spec = replace(spec, path_length=0.05)
        forget_walk()
        for seed in (1, 2):
            simulate_seed(spec, continuations, seed, seed + 4)
        for seed in (3, 4):
            traj = generate_path(replace(spec, rng_seed=seed), continuations, WINDOW_GEOM)
            cols, peak = traced_peak(lambda: simengine._slot_columns(traj, WINDOW_GEOM, seed + 4))
            # the noise and the scratch column of its draw: 24 bytes per slot
            assert peak <= 24 * len(traj) + 4096, (seed, peak / len(traj))
            assert cols.b0 == traj.b0, seed


def oracle_channel(walk, kdu, geom):
    """The turn exp(-j*(N-1)*kdu/2) times c times the gain column of a unit initial gain."""
    turn = np.exp(1j * ((-0.5 * (geom.n_ris - 1)) * kdu))
    unit = gain_column(1 + 0j, walk.walk.r0, walk.r2, walk.starts, geom)
    return np.multiply(turn, geom.beamformer_gain * unit)


# the cache walks, and default walks of 10684 and 32052 slots, on either side
# of numpy's 256 KiB reuse of temporaries, which once swapped the factors
CHANNEL_WALKS = {**CACHE_WALKS, "default_0.1m": (TrajectorySpec(path_length=0.1), ()),
                 "default_0.3m": (TrajectorySpec(path_length=0.3), ())}


class TestClosedFormGain:
    @pytest.mark.parametrize("name", sorted(CHANNEL_WALKS))
    def test_channel_has_the_bits_of_the_eager_column(self, name):
        spec, continuations = CHANNEL_WALKS[name]
        walk = generate_path(replace(spec, rng_seed=53), continuations, WINDOW_GEOM)
        lengths = [spec.path_length] + [length for _, length in continuations]
        counts = [slot_count(replace(spec, path_length=length)) for length in lengths]
        assert walk.starts == tuple(np.cumsum([0] + counts[:-1]).tolist())
        # the channel, built block by block, is the turn times the amplitude of
        # a unit initial gain with the eager column's bits: complex products
        # round by FMA, so a numpy that moves a bit of either exponential, or
        # the order of the factors, fails here before any golden digest
        cols = simengine._slot_columns(walk, WINDOW_GEOM, None)
        assert_same_bits(cols.channel, oracle_channel(walk, cols.kdu, WINDOW_GEOM), "channel")

    def test_each_chained_gain_is_the_last_entry_of_the_segment_before(self):
        # the walk's channel chains each later segment on the last entry of the
        # segment before once, for a unit initial gain (the eager column above);
        # many initial gains over one walk all scale that one channel
        spec, continuations = CACHE_WALKS["two_turns"]
        walk = generate_path(replace(spec, rng_seed=1), continuations, WINDOW_GEOM)
        assert len(walk.starts) == 3
        _, channel = walk.walk.channel(WINDOW_GEOM)
        rng = np.random.default_rng(8)
        for b0 in (rng.normal(size=200) + 1j * rng.normal(size=200)).tolist():
            chained = Trajectory(b0, walk.walk)
            cols = simengine._slot_columns(chained, WINDOW_GEOM, None)
            assert cols.b0 == b0
            assert_same_bits(cols.channel, channel, b0)

    def test_a_prefix_has_the_prefix_of_every_column(self):
        spec, continuations = CACHE_WALKS["two_turns"]
        walk = generate_path(replace(spec, rng_seed=2), continuations, WINDOW_GEOM)
        n = len(walk)
        full = {col: getattr(walk, col) for col in ("theta2", "r2")}
        cols = simengine._slot_columns(walk, WINDOW_GEOM, 4)
        # cuts around each turn and at random: the last slot of a cut, alone
        # or not, has the bits of its slot in the column; each cut builds its
        # own channel, so 20 random ends, not 200
        ends = [s + d for s in walk.starts[1:] for d in (-2, -1, 0, 1, 7)]
        picks = np.random.default_rng(3).integers(1, n, 20).tolist()
        for end in (1, 1000, *ends, *picks, n - 1, n, -3):
            cut = walk[:end]
            stop = end % n if end < 0 else end
            assert len(cut) == stop
            assert cut.starts == tuple(s for s in walk.starts if s < stop)
            for col, want in full.items():
                assert_same_bits(getattr(cut, col), want[:stop], (end, col))
            got = simengine._slot_columns(cut, WINDOW_GEOM, 4)
            assert got.b0 == cols.b0
            for col in ("kdu", "channel", "noise"):
                assert_same_bits(getattr(got, col), getattr(cols, col)[:stop], (end, col))
        for bad in (slice(1, 5), slice(None, 5, 2), slice(None, None, -1), 3, -1, n):
            with pytest.raises(ValueError, match=r"prefix slice \[:end\]"):
                walk[bad]

    def test_a_one_slot_prefix_has_the_first_slot_of_the_phase(self):
        # a one-slot product written over one of its operands rounds unlike
        # the same product into another array; the channel does not read the
        # seed, so the walks vary in what it reads: the starting distance
        geom = LinkGeometry()
        for r2_init in np.linspace(1.0, 5.0, 199).tolist():
            walk = generate_path(TrajectorySpec(r2_init=r2_init, path_length=0.01), (), geom)
            want = simengine._slot_columns(walk, geom, None).channel[:1]
            assert_same_bits(simengine._slot_columns(walk[:1], geom, None).channel, want,
                             r2_init)

    def test_a_zero_or_non_finite_b0_is_refused(self):
        # b0 is the seed's draw, kept as drawn by every cut; it scales every
        # sample, so one that is zero or not finite is refused
        walk = generate_path(SPEC, (), GEOM)
        rng = np.random.default_rng(SPEC.rng_seed)
        magnitude = rng.rayleigh(1.0 / math.sqrt(2.0))  # E|b0|^2 = 1
        draw = complex(magnitude * np.exp(1j * rng.uniform(0.0, TWO_PI)))
        assert walk.b0 == walk[:3].b0 == draw
        for b0 in (0j, 0.0, complex(math.nan, 1.0), complex(1.0, math.inf), -math.inf):
            with pytest.raises(ValueError, match="b0 must be nonzero and finite"):
                Trajectory(b0, walk.walk)

    def test_generating_a_seed_of_a_kept_walk_allocates_per_segment(self):
        # the seed only draws its gain: no column
        for name, (spec, continuations) in sorted(CACHE_WALKS.items()):
            generate_path(replace(spec, rng_seed=1), continuations, WINDOW_GEOM)
            walk, peak = traced_peak(
                lambda: generate_path(replace(spec, rng_seed=2), continuations, WINDOW_GEOM))
            assert peak <= 4096 * (len(walk.starts) + 1) < len(walk), (name, peak)


class TestEngineSamples:
    @pytest.mark.parametrize("policy", [ProposedPolicy(gamma=0.99),
                                        ExhaustivePolicy(gamma=0.99, resolution_deg=10.0)])
    def test_each_slot_equals_received_sample(self, monkeypatch, engine_calls, policy):
        # seven elements and theta2 > theta1: every aligned step lies next to
        # 2*pi, where the closed form used to lose digits
        geom = LinkGeometry(r1=2.0, n_ris=7, theta1=np.deg2rad(10.0))
        walk = generate_path(TrajectorySpec(r2_init=0.5, speed_v=0.6, path_length=0.05,
                                            rng_seed=11), (), geom)
        assert np.all(walk.theta2 > geom.theta1)
        # the walk's statuses are short, so spans start after shorter ones
        monkeypatch.setattr(simengine, "_SCAN_WINDOW", 64)
        monkeypatch.setattr(simengine, "_PROBE_SLOTS", 8)
        tl = run_timeline(walk, policy, geom, noise_seed=None)
        assert tl.tracking_calls > 1
        assert any(c.step > 1 for c in engine_calls)
        covered = set()
        kinds = kinds_of(tl)
        gains = gain_column(walk.b0, walk.walk.r0, walk.r2, walk.starts, geom)
        for call in engine_calls:
            for j, i in enumerate(call.slots):
                state = ChannelState(gains[i], float(walk.theta2[i]), float(walk.r2[i]))
                want = received_sample(state, call.slopes[j], geom)
                assert abs(call.samples[j] - want) <= 1e-12 * abs(want), i
            covered.update(kinds[call.lo:call.hi].tolist())
        assert {int(SlotKind.DATA), int(SlotKind.DL_TRAINING)} <= covered

    def test_scalar_slope_turn_is_the_np_exp_form(self, traj):
        # a scan's one slope turns its window by np.exp, as a slope per slot
        # does; slopes as numpy values and edge values are checked as well as
        # random ones; the turn times b0 is one scalar
        cols = simengine._slot_columns(traj, GEOM, 3)
        assert cols.b0 == traj.b0
        lo, hi = 5, 300
        rng = np.random.default_rng(21)
        values = [0.0, -0.0, TWO_PI, np.nextafter(TWO_PI, 0.0), np.pi, -1.0, 1e6, -1e300,
                  *rng.uniform(0.0, TWO_PI, 40).tolist()]
        for value in values:
            for slope in (value, np.float64(value)):
                d, _ = _dirichlet(slope - cols.kdu[lo:hi], GEOM.n_ris)
                turn = np.exp(0.5j * (GEOM.n_ris - 1) * np.asarray(slope))
                want = (turn * traj.b0) * cols.channel[lo:hi] * d + cols.noise[lo:hi]
                got = simengine._received_samples(cols, lo, hi, slope)
                assert_same_bits(got, want, value)


class TestSeedInvariance:
    def test_without_noise_a_seed_is_only_a_scale(self):
        # the trigger, the observables and the sweep's argmax do not change
        # when every received sample is scaled by the initial gain b0, so
        # without noise all seeds of a walk give the same status table, and
        # rss / |b0|^2 is one column up to rounding; seeds are compared with
        # seed 1 only
        cfg = ScenarioConfig()
        geom, spec = cfg.geometry, cfg.trajectory
        end = slot_count(replace(spec, path_length=0.3))
        runs = {}
        for seed in (1, 2, 3, 4):
            traj = generate_path(replace(spec, rng_seed=seed), (), geom)[:end]
            scale = abs(traj.b0) ** 2
            runs[seed] = [(run_timeline(traj, policy, geom, noise_seed=None), scale)
                          for policy in cfg.policies()]
        assert len({scale for (_, scale), *_ in runs.values()}) == 4
        for seed in (2, 3, 4):
            for (got, got_scale), (want, want_scale) in zip(runs[seed], runs[1]):
                name = (seed, want.policy_name)
                assert got.policy_name == want.policy_name
                assert got.tracking_calls == want.tracking_calls, name
                for col in ("first", "kind", "status_id", "config_id"):
                    assert np.array_equal(getattr(got.statuses, col),
                                          getattr(want.statuses, col)), (name, col)
                got_refs = got.statuses.rss_ref / got_scale
                want_refs = want.statuses.rss_ref / want_scale
                assert np.all(np.abs(got_refs - want_refs) <= 1e-13 * want_refs), name
                # each slot within 1e-13 of its power or of its row's reference,
                # whichever is larger: a feedback slot receives nothing
                power = want.rss / want_scale
                ref = np.repeat(want_refs, np.diff(want.statuses.first))
                gap = np.abs(got.rss / got_scale - power)
                assert np.all(gap <= 1e-13 * np.maximum(power, ref)), name
        assert all(tl.tracking_calls > 0 for tl, _ in runs[1])


# a 0.3 m walk of the default scene, and the fingerprint's absolute scene
SCALE_WALK = ScenarioConfig(trajectory=TrajectorySpec(path_length=0.3), seeds=(1, 2, 3))
SCALE_ABSOLUTE = ScenarioConfig(geometry=LinkGeometry(r1=2.0),
                                trajectory=TrajectorySpec(r2_init=2.0, path_length=0.05),
                                threshold_mode="absolute", gamma=135000.0, gamma_exh=75000.0,
                                seeds=(11,))
# split: (base scene, the scene with its SNR * n_tx = 160 split another way)
SCALE_SPLITS = {
    "n_tx 32, snr 5": (SCALE_WALK, replace(SCALE_WALK, geometry=LinkGeometry(
        n_tx=32, snr_linear=5.0))),
    "n_tx 12, snr 40/3": (SCALE_WALK, replace(SCALE_WALK, geometry=LinkGeometry(
        n_tx=12, snr_linear=40.0 / 3.0))),
    "absolute, n_tx 48, snr 10/3": (SCALE_ABSOLUTE, replace(
        SCALE_ABSOLUTE, geometry=replace(SCALE_ABSOLUTE.geometry, n_tx=48,
                                         snr_linear=10.0 / 3.0))),
}


def scene_reports(cfg):
    """(timeline, report) of every tracker and seed, the oracle as the rate-gap reference."""
    out = []
    for seed in cfg.seeds:
        timelines = runner._simulate_seed(cfg, seed)
        oracle = next(tl for tl in timelines if tl.policy_name == "oracle")
        out += [(tl, overhead_report(tl, tl.gamma, None if tl is oracle else oracle))
                for tl in timelines]
    return out


@functools.lru_cache(maxsize=None)
def base_reports(cfg):
    return scene_reports(cfg)


class TestScaleInvariance:
    @pytest.mark.parametrize("split", list(SCALE_SPLITS))
    def test_a_split_of_the_signal_scale_is_the_same_run(self, split):
        # n_tx and the SNR enter a sample only through c = sqrt(SNR * n_tx),
        # so every split of one product gives the same decisions and rates
        base, cfg = SCALE_SPLITS[split]
        got, want = scene_reports(cfg), base_reports(base)
        assert len(got) == len(want)
        for (tl, m), (ref_tl, ref_m) in zip(got, want):
            name = (split, ref_tl.policy_name)
            assert tl.policy_name == ref_tl.policy_name
            assert tl.tracking_calls == ref_tl.tracking_calls > 0, name
            for col in ("first", "kind", "status_id", "config_id"):
                assert np.array_equal(getattr(tl.statuses, col),
                                      getattr(ref_tl.statuses, col)), (name, col)
            np.testing.assert_allclose(tl.statuses.rss_ref, ref_tl.statuses.rss_ref,
                                       rtol=1e-12, atol=0.0, err_msg=str(name))
            np.testing.assert_allclose([m.final_cum_rate, m.avg_error_vs_oracle],
                                       [ref_m.final_cum_rate, ref_m.avg_error_vs_oracle],
                                       rtol=1e-12, atol=0.0, err_msg=str(name))


# what StatusTimeline.block returns, in this order
LEDGER_COLUMNS = ("kind", "rss", "rss_normalized", "inst_rate", "cum_rate", "status_id",
                  "config_id")


def assert_same_bits(got, want, col):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), col


def traced_peak(call):
    """What `call()` returns and the peak of the memory that tracemalloc traced meanwhile."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def boundaries(tl) -> list[int]:
    """Slot 0 and n, a trigger, a status's first slot and a slot inside a training slice."""
    table = tl.statuses
    first = table.first[:-1]
    triggers = first[table.kind == SlotKind.DATA_BELOW_THRESHOLD]
    starts = first[(table.kind == SlotKind.DATA) & (first > 0)]
    training = first[table.kind == SlotKind.DL_TRAINING] + 2
    picks = [0, len(tl)] + [int(a[len(a) // 2]) for a in (triggers, starts, training) if a.size]
    return sorted(set(min(p, len(tl)) for p in picks))


def assert_blocks_match_full_range(tl, bounds):
    """Blocks between the bounds, carried from 0.0, equal the full-range columns bit for bit."""
    full = {col: getattr(tl, col) for col in LEDGER_COLUMNS}
    rates = tl.inst_rate
    carry = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        columns, carry = tl.block(lo, hi, carry)
        # the sequential running sum through hi
        assert carry == np.cumsum(np.concatenate(([0.0], rates[:hi])))[-1]
        assert len(columns) == len(LEDGER_COLUMNS)
        for col, column in zip(LEDGER_COLUMNS, columns):
            assert_same_bits(column, full[col][lo:hi], col)


class TestDerivedColumns:
    def test_blocks_equal_the_full_range_at_every_kind_of_boundary(self, default_walk,
                                                                   default_scans):
        modes = set()
        for (_, policy, mode), tl in zip(scan_runs(default_walk), default_scans):
            bounds = boundaries(tl)
            # 0, n, a trigger and a status start; a training slot unless genie
            assert len(bounds) == 4 + (policy.name != "oracle"), policy.name
            assert_blocks_match_full_range(tl, bounds)
            modes.add((policy.name, mode))
        assert len(modes) == 6

    def test_full_range_columns_follow_the_ledger_rules(self, default_scans, proposed, oracle):
        for tl in (*default_scans, proposed, oracle):
            r = tl.inst_rate
            assert_same_bits(tl.cum_rate, np.cumsum(r) / np.arange(1, r.size + 1), "cum_rate")
            data = tl.kind == SlotKind.DATA
            rates = np.where(data, instantaneous_rate(tl.rss), 0.0)
            assert_same_bits(tl.inst_rate, rates, "inst_rate")
            assert np.all(r >= 0.0)
            # a run starts with a data row, and a status's data row starts at
            # its reference slot, normalised to one
            table = tl.statuses
            refs = table.first[:-1][table.kind == SlotKind.DATA]
            assert refs[0] == 0
            assert np.all(tl.rss_normalized[refs] == 1.0)
            assert np.all(tl.rss[refs] == table.rss_ref[table.kind == SlotKind.DATA])

    @pytest.mark.parametrize("noise_seed", [None, 2])
    @pytest.mark.parametrize("policy", [ExhaustivePolicy(gamma=0.5, resolution_deg=1.0),
                                        ProposedPolicy()], ids=["exhaustive_1deg", "proposed"])
    def test_cut_training_slice(self, traj, policy, noise_seed):
        # a cut event is counted and left open
        full = run_timeline(traj, policy, GEOM, noise_seed=noise_seed)
        t2 = int(np.nonzero(kinds_of(full) == int(SlotKind.DATA_BELOW_THRESHOLD))[0][0])
        # cut after the trigger, the opening feedback and three training
        # slots, and before the first training slot
        for end, bounds in ((t2 + 5, [0, t2, t2 + 1, t2 + 3, t2 + 5]), (t2 + 2, [0, t2 + 2])):
            cut = traj[:end]
            tl = run_timeline(cut, policy, GEOM, noise_seed=noise_seed)
            # the cut draws the whole walk's noise, so its run is the whole run's prefix
            assert_same_bits(tl.rss, full.rss[:end], (policy.name, end))
            assert tl.tracking_calls == 1
            assert_blocks_match_full_range(tl, bounds)
            assert_blocks_match_full_range(tl, [0, end - 1, end, end])
            assert np.array_equal(tl.kind[t2:], [1, 3, 2, 2, 2][: end - t2])
            assert np.array_equal(tl.config_id[t2 + 2:], [1, 2, 3][: end - t2 - 2])

    def test_block_accumulates_behind_the_carry(self, default_scans):
        # the carry added after the block's own running sums rounds differently
        tl = default_scans[0]
        lo = 8192
        _, carry = tl.block(0, lo, 0.0)
        columns, _ = tl.block(lo, len(tl), carry)
        slots = np.arange(lo + 1, len(tl) + 1)
        added_after = (carry + np.cumsum(tl.inst_rate[lo:])) / slots
        assert not np.array_equal(added_after, tl.cum_rate[lo:])
        assert_same_bits(columns[LEDGER_COLUMNS.index("cum_rate")], tl.cum_rate[lo:],
                         "cum_rate")

    def test_a_run_holds_8_bytes_per_slot_and_its_status_table(self, default_scans):
        for tl in default_scans:
            columns = table = 0
            for f in fields(tl):
                value = getattr(tl, f.name)
                if isinstance(value, np.ndarray) and f.name != "theta2_true":
                    columns += value.nbytes
                elif is_dataclass(value):
                    table += sum(getattr(value, g.name).nbytes for g in fields(value))
            # rss, 8 bytes per slot, plus the status table, which stays small:
            # a status gives at most five rows (data, trigger, two feedbacks,
            # training) of 25 bytes
            assert columns <= 8 * len(tl), tl.policy_name
            assert tl.statuses.kind.size <= 5 * tl.tracking_calls + 1
            assert table <= 25 * (5 * tl.tracking_calls + 2)

    def test_simulating_a_seed_peaks_at_its_columns_and_one_scan(self):
        cfg = ScenarioConfig(trajectory=TrajectorySpec(path_length=1.0))
        # a first short walk loads what the engine imports on first use
        runner._simulate_seed(replace(cfg, trajectory=TrajectorySpec(path_length=0.01)), 1)
        assert_seed_peak_within_bound(cfg, 1)

    def test_simulating_a_second_seed_peaks_under_the_same_bound(self):
        # the walk keeps kdu from the first seed, and the second one adds the
        # channel to it
        forget_walk()
        cfg = ScenarioConfig(trajectory=TrajectorySpec(path_length=1.0))
        runner._simulate_seed(cfg, 1)
        walk = generate_path(cfg.trajectory, cfg.continuations, cfg.geometry).walk
        assert walk._channel[2] is None
        assert_seed_peak_within_bound(cfg, 2)
        assert walk._channel[2] is not None


def assert_seed_peak_within_bound(cfg, seed):
    """Simulating `seed` peaks, as traced, at its columns and one scan."""
    timelines, peak = traced_peak(lambda: runner._simulate_seed(cfg, seed))
    n = len(timelines[0])
    # per slot: the walk (theta2, r2: 8 bytes each), the slot columns
    # (kdu: 8; channel, noise: 16) and each tracker's rss (8)
    columns = (16 + 40 + 8 * len(timelines)) * n
    # one evaluation holds at most ten 8-byte values per slot it evaluates;
    # a window, a training slice, or a span's full pass, which ends at the
    # first coarse slot past its trigger: a status plus one stride
    longest = max(int(np.diff(tl.statuses.first).max()) for tl in timelines) + 1
    scan = 80 * max(simengine._SCAN_WINDOW,
                    longest + simengine._SCAN_SPAN // simengine._PROBE_SLOTS)
    assert peak <= columns + scan, (peak / n, (columns + scan) / n)
