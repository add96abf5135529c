import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ristrack.simengine as simengine
from ristrack import (
    ExhaustivePolicy,
    LinkGeometry,
    OraclePolicy,
    ProposedPolicy,
    RisConfiguration,
    SlotKind,
    SweepSpec,
    Trajectory,
    TrajectorySpec,
    cumulative_rate,
    generate_path,
    generate_trajectory,
    instantaneous_rate,
    overhead_report,
    received_sample,
    run_timeline,
    slot_count,
)

GEOM = LinkGeometry(r1=2.0)
SPEC = TrajectorySpec(r2_init=2.0, speed_v=0.6, path_length=0.05, rng_seed=11)


@pytest.fixture(scope="module")
def traj():
    return generate_trajectory(SPEC, GEOM)


def kinds_of(tl):
    return np.asarray(tl.kind, dtype=int)


class TestInstantaneousRate:
    def test_zero_rss(self):
        assert instantaneous_rate(0.0, 1.0) == 0.0

    def test_unit_snr(self):
        assert instantaneous_rate(1.0, 1.0) == pytest.approx(1.0)

    def test_three_noise_vars(self):
        assert instantaneous_rate(3.0, 1.0) == pytest.approx(2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            instantaneous_rate(-1.0, 1.0)
        with pytest.raises(ValueError):
            instantaneous_rate(1.0, 0.0)


class TestCumulativeRate:
    def test_constant_series(self):
        out = cumulative_rate(np.full(5, 3.0))
        assert np.allclose(out, 3.0)

    def test_two_slot_mean(self):
        out = cumulative_rate([4.0, 0.0])
        assert np.allclose(out, [4.0, 2.0])

    def test_matches_recurrence_oracle(self):
        rng = np.random.default_rng(99)
        x = rng.uniform(0, 20, size=1000)
        out = cumulative_rate(x)
        # independent oracle: the slot-by-slot running-mean recurrence
        acc = x[0]
        assert abs(out[0] - acc) <= 1e-12
        for t in range(1, x.size):
            acc = (t * acc + x[t]) / (t + 1)
            assert abs(out[t] - acc) <= 1e-12


class TestOracleTimeline:
    def test_zero_training_and_feedback(self, traj):
        tl = run_timeline(traj, OraclePolicy(gamma=0.9), GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        assert np.sum(kinds == int(SlotKind.DL_TRAINING)) == 0
        assert np.sum(kinds == int(SlotKind.UL_FEEDBACK)) == 0
        assert tl.tracking_calls > 0
        assert np.sum(kinds == int(SlotKind.DATA_BELOW_THRESHOLD)) == tl.tracking_calls

    def test_peak_rss_at_status_reference(self, traj):
        tl = run_timeline(traj, OraclePolicy(gamma=0.9), GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        # first slot of each status is exactly the aligned peak |c*alpha*beta*N|^2
        starts = [0] + [i + 1 for i in np.nonzero(kinds == int(SlotKind.DATA_BELOW_THRESHOLD))[0]
                        if i + 1 < len(tl)]
        peak = (GEOM.beamformer_gain * np.abs(traj.beta) * GEOM.n_ris) ** 2
        for i in starts:
            assert tl.rss[i] == pytest.approx(peak[i], rel=1e-9)

    def test_data_slots_stay_at_or_above_threshold(self, traj):
        tl = run_timeline(traj, OraclePolicy(gamma=0.9), GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        data = kinds == int(SlotKind.DATA)
        assert np.all(tl.rss_normalized[data] >= 0.9 - 1e-12)


class TestProposedTimeline:
    def test_event_slot_accounting(self, traj):
        tl = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        events = tl.tracking_calls
        assert events > 0
        assert np.sum(kinds == int(SlotKind.DATA_BELOW_THRESHOLD)) == events
        assert np.sum(kinds == int(SlotKind.UL_FEEDBACK)) == 2 * events
        assert np.sum(kinds == int(SlotKind.DL_TRAINING)) == 7 * events

    def test_event_slot_sequence(self, traj):
        tl = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        t2 = int(np.nonzero(kinds == int(SlotKind.DATA_BELOW_THRESHOLD))[0][0])
        assert kinds[t2 + 1] == int(SlotKind.UL_FEEDBACK)
        assert np.all(kinds[t2 + 2 : t2 + 9] == int(SlotKind.DL_TRAINING))
        assert kinds[t2 + 9] == int(SlotKind.UL_FEEDBACK)
        assert kinds[t2 + 10] == int(SlotKind.DATA)

    def test_recovers_after_event(self, traj):
        tl = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        t2 = int(np.nonzero(kinds == int(SlotKind.DATA_BELOW_THRESHOLD))[0][0])
        peak = (GEOM.beamformer_gain * np.abs(traj.beta) * GEOM.n_ris) ** 2
        # retrained configuration restores at least 99% of the aligned peak
        assert tl.rss[t2 + 10] >= 0.99 * peak[t2 + 10]

    def test_custom_candidate_count(self, traj):
        from ristrack import SearchGrid

        tl = run_timeline(traj, ProposedPolicy(gamma=0.9, grid=SearchGrid(n_sol=4)),
                          GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        assert np.sum(kinds == int(SlotKind.DL_TRAINING)) == 4 * tl.tracking_calls


class TestExhaustiveTimeline:
    def test_event_slot_accounting(self, traj):
        tl = run_timeline(traj, ExhaustivePolicy(gamma=0.5, sweep=SweepSpec(10.0)),
                          GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        events = tl.tracking_calls
        assert events > 0
        assert np.sum(kinds == int(SlotKind.DL_TRAINING)) == 36 * events
        assert np.sum(kinds == int(SlotKind.UL_FEEDBACK)) == 2 * events

    def test_channel_keeps_moving_during_sweep(self, traj):
        tl = run_timeline(traj, ExhaustivePolicy(gamma=0.5, sweep=SweepSpec(10.0)),
                          GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        train = np.nonzero(kinds == int(SlotKind.DL_TRAINING))[0]
        assert tl.theta2_true[train[-1]] != tl.theta2_true[train[0]]

    def test_training_slot_i_measures_candidate_i(self):
        # slot cursor+i of an event is received under swept slope i, with the
        # channel of that slot: explicit element sum at the slot's own angle
        walk = generate_trajectory(replace(SPEC, path_length=0.2), GEOM)
        tl = run_timeline(walk, ExhaustivePolicy(gamma=0.5, sweep=SweepSpec(10.0)),
                          GEOM, noise_enabled=False)
        assert tl.tracking_calls > 1
        train = np.nonzero(kinds_of(tl) == int(SlotKind.DL_TRAINING))[0]
        first_id = {s: tl.config_id[train][tl.status_id[train] == s].min()
                    for s in np.unique(tl.status_id[train])}
        k = np.arange(GEOM.n_ris)
        for t in train:
            slope = np.deg2rad(10.0 * (tl.config_id[t] - first_id[tl.status_id[t]]))
            u = np.sin(GEOM.theta1) - np.sin(walk.theta2[t])
            gain = np.exp(1j * k * (slope - GEOM.kd * u)).sum()
            want = abs(GEOM.beamformer_gain * GEOM.alpha * walk.beta[t] * gain) ** 2
            assert tl.rss[t] == pytest.approx(want, rel=1e-9)


class TestTrajectoryEndsMidTraining:
    @pytest.mark.parametrize("policy", [ExhaustivePolicy(gamma=0.5, sweep=SweepSpec(1.0)),
                                        ProposedPolicy(gamma=0.9)])
    def test_cut_event_is_counted_and_left_open(self, traj, policy):
        full = run_timeline(traj, policy, GEOM, noise_enabled=False)
        t2 = int(np.nonzero(kinds_of(full) == int(SlotKind.DATA_BELOW_THRESHOLD))[0][0])
        # trigger, opening feedback, then three of the event's training slots
        end = t2 + 5
        cut = Trajectory(traj.anchor, traj.theta2[:end], traj.r2[:end], traj.beta[:end])
        tl = run_timeline(cut, policy, GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        assert len(tl) == end
        assert kinds[t2] == int(SlotKind.DATA_BELOW_THRESHOLD)
        assert kinds[t2 + 1] == int(SlotKind.UL_FEEDBACK)
        assert np.all(kinds[t2 + 2 :] == int(SlotKind.DL_TRAINING))
        assert np.array_equal(tl.config_id[t2 + 2 :], [1, 2, 3])
        assert tl.tracking_calls == 1
        assert np.array_equal(tl.rss[:end], full.rss[:end])


class TestTimelineStructure:
    def test_every_slot_exactly_one_kind(self, traj):
        tl = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        assert len(tl) == len(traj)
        kinds = kinds_of(tl)
        counts = sum(int(np.sum(kinds == int(k))) for k in SlotKind)
        assert counts == len(tl)

    def test_signaling_slots_have_zero_rate(self, traj):
        tl = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        nondata = kinds != int(SlotKind.DATA)
        assert np.all(tl.inst_rate[nondata] == 0.0)
        assert np.all(tl.inst_rate >= 0.0)

    def test_near_stationary_user_never_triggers(self):
        quiet = TrajectorySpec(r2_init=2.0, speed_v=1e-4, slot_duration_t0=15.6e-6,
                               path_length=1e-6, rng_seed=2)
        tl = run_timeline(generate_trajectory(quiet, GEOM), ProposedPolicy(gamma=0.9),
                          GEOM, noise_enabled=False)
        assert tl.tracking_calls == 0
        assert np.all(kinds_of(tl) == int(SlotKind.DATA))

    def test_reference_slot_normalised_to_one(self, traj):
        tl = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        assert tl.rss_normalized[0] == pytest.approx(1.0)

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

    def test_status_ids_monotone_and_count_events(self, traj):
        tl = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        status = np.asarray(tl.status_id, dtype=int)
        assert np.all(np.diff(status) >= 0)
        assert status[0] == 1
        assert status[-1] - status[0] == tl.tracking_calls

    def test_record_materialisation(self, traj):
        tl = run_timeline(traj, OraclePolicy(gamma=0.9), GEOM, noise_enabled=False)
        assert tl.kind[0] == SlotKind.DATA
        assert tl.rss_normalized[0] == pytest.approx(1.0)
        assert len(tl) == len(traj)

    def test_absolute_threshold_mode(self, traj):
        peak = (GEOM.beamformer_gain * np.abs(traj.beta[0]) * GEOM.n_ris) ** 2
        tl = run_timeline(traj, ProposedPolicy(gamma=float(0.9 * peak)), GEOM,
                          noise_enabled=False, threshold_mode="absolute")
        assert tl.tracking_calls > 0

    def test_gamma_validated_per_mode(self, traj):
        with pytest.raises(ValueError):
            run_timeline(traj, ProposedPolicy(gamma=1.5), GEOM)
        with pytest.raises(ValueError):
            run_timeline(traj, OraclePolicy(gamma=0.9), GEOM, threshold_mode="sideways")


class TestOverheadReport:
    def test_all_data_run_is_zero_percent(self):
        quiet = TrajectorySpec(r2_init=2.0, speed_v=1e-4, slot_duration_t0=15.6e-6,
                               path_length=1e-6, rng_seed=2)
        tl = run_timeline(generate_trajectory(quiet, GEOM), OraclePolicy(gamma=0.9),
                          GEOM, noise_enabled=False)
        m = overhead_report(tl, 0.9)
        assert m.pct_below_threshold == 0.0
        assert m.tracking_calls == 0
        assert math.isnan(m.avg_error_vs_oracle)

    def test_counts_all_nondata_kinds(self, traj):
        tl = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        m = overhead_report(tl, 0.9)
        kinds = kinds_of(tl)
        want = 100.0 * np.sum(kinds != int(SlotKind.DATA)) / len(tl)
        assert m.pct_below_threshold == pytest.approx(want)
        assert m.tracking_calls == tl.tracking_calls
        assert m.cumulative_rate_series[-1] == pytest.approx(tl.cum_rate[-1])

    def test_error_vs_oracle(self, traj):
        prop = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        orc = run_timeline(traj, OraclePolicy(gamma=0.9), GEOM, noise_enabled=False)
        m = overhead_report(prop, 0.9, oracle_records=orc)
        want = float(np.mean(np.abs(prop.inst_rate - orc.inst_rate)))
        assert m.avg_error_vs_oracle == pytest.approx(want)
        self_err = overhead_report(orc, 0.9, oracle_records=orc)
        assert self_err.avg_error_vs_oracle == 0.0


class TestCumulativeOrdering:
    def test_oracle_cumulative_dominates(self, traj):
        # the genie pays no signaling slots, so its running mean wins even
        # though a freshly retrained tracker can transiently beat an aged
        # genie configuration on single slots
        orc = run_timeline(traj, OraclePolicy(gamma=0.9), GEOM, noise_enabled=False)
        prop = run_timeline(traj, ProposedPolicy(gamma=0.9), GEOM, noise_enabled=False)
        assert orc.cum_rate[-1] >= prop.cum_rate[-1]


# Edge scenarios for the ledger invariants: (geometry, walk, continuations,
# threshold mode). Each is long enough for the proposed tracker to fire events.
MATRIX = {
    "snr_minus_40db": (replace(GEOM, snr_linear=1e-4), replace(SPEC, path_length=0.05),
                       (), "normalized"),
    "n_ris_1": (replace(GEOM, n_ris=1), replace(SPEC, path_length=0.05), (), "normalized"),
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
        scale = (geom.beamformer_gain * abs(walk.beta[0]) * geom.n_ris) ** 2
        scale = scale if mode == "absolute" else 1.0
        sweep = SweepSpec(10.0)
        runs = ((ProposedPolicy(0.9 * scale), ProposedPolicy().grid.n_sol),
                (ExhaustivePolicy(0.5 * scale, sweep), sweep.slopes.size),
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
WINDOW_POLICIES = (ProposedPolicy(), ExhaustivePolicy(sweep=SweepSpec(10.0)), OraclePolicy())


@pytest.fixture(scope="module")
def default_walk():
    return generate_trajectory(TrajectorySpec(path_length=0.3, rng_seed=4), WINDOW_GEOM)


class TestScanWindow:
    @pytest.mark.parametrize("window", [7, 10**9])
    def test_window_changes_no_result(self, default_walk, monkeypatch, window):
        base = [run_timeline(default_walk, p, WINDOW_GEOM, noise_seed=5)
                for p in WINDOW_POLICIES]
        monkeypatch.setattr(simengine, "_SCAN_WINDOW", window)
        for policy, want in zip(WINDOW_POLICIES, base):
            got = run_timeline(default_walk, policy, WINDOW_GEOM, noise_seed=5)
            assert want.tracking_calls > 0, policy.name
            assert got.tracking_calls == want.tracking_calls
            for col in ("kind", "status_id", "config_id"):
                assert np.array_equal(getattr(got, col), getattr(want, col)), col
            # numpy's vector loops may round the last bit differently once
            # the slices start at other offsets
            for col in ("rss", "rss_normalized", "inst_rate", "cum_rate"):
                np.testing.assert_allclose(getattr(got, col), getattr(want, col),
                                           rtol=1e-12, atol=0, err_msg=col)

    def test_each_slot_evaluated_about_once(self, default_walk, monkeypatch):
        handed = []
        original = simengine._received_samples

        def counting(cols, lo, hi, slope):
            handed.append(hi - lo)
            return original(cols, lo, hi, slope)

        monkeypatch.setattr(simengine, "_received_samples", counting)
        n = len(default_walk)
        for policy in WINDOW_POLICIES:
            handed.clear()
            tl = run_timeline(default_walk, policy, WINDOW_GEOM, noise_seed=5)
            kinds = kinds_of(tl)
            training = int(np.sum(kinds == int(SlotKind.DL_TRAINING)))
            # every window but the one holding a trigger is kept whole
            bound = n + (tl.tracking_calls + 1) * simengine._SCAN_WINDOW + training
            assert sum(handed) <= bound, policy.name
            # and the hook sees every received slot, so it cannot pass by seeing none
            assert sum(handed) >= np.sum(kinds != int(SlotKind.UL_FEEDBACK)), policy.name


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
        walk = generate_trajectory(SPEC, GEOM)
        peak = (GEOM.beamformer_gain * abs(walk.beta[0]) * GEOM.n_ris) ** 2
        normal = (ProposedPolicy(), ExhaustivePolicy(sweep=SweepSpec(10.0)), OraclePolicy())
        absolute = (ProposedPolicy(0.9 * peak), ExhaustivePolicy(0.5 * peak, SweepSpec(10.0)),
                    OraclePolicy(0.9 * peak))
        geom7 = replace(GEOM, snr_linear=20.0, n_ris=7)
        settings = (
            (normal, GEOM, dict(noise_seed=5)),
            (normal, GEOM, dict(noise_seed=6)),
            (normal, GEOM, dict(noise_seed=5)),
            (normal, GEOM, dict(noise_seed=5, noise_enabled=False)),
            (normal, geom7, dict(noise_seed=5)),
            (absolute, GEOM, dict(noise_seed=5, threshold_mode="absolute")),
        )
        for turn in range(len(normal)):
            for policies, geom, kwargs in settings:
                policy = policies[turn]
                got = run_timeline(walk, policy, geom, **kwargs)
                want = run_timeline(generate_trajectory(SPEC, GEOM), policy, geom, **kwargs)
                assert_same_timeline(got, want)
                if policy.name == "proposed":
                    assert got.tracking_calls > 0, kwargs
        kept = weakref.ref(simengine._COLUMNS[walk][1])
        del walk
        gc.collect()
        assert kept() is None

    def test_unseeded_noise_is_drawn_per_run(self):
        walk = generate_trajectory(SPEC, GEOM)
        a = run_timeline(walk, OraclePolicy(), GEOM)
        b = run_timeline(walk, OraclePolicy(), GEOM)
        assert not np.array_equal(a.rss, b.rss)
        assert walk not in simengine._COLUMNS


class TestEngineSamples:
    @pytest.mark.parametrize("policy", [ProposedPolicy(gamma=0.99),
                                        ExhaustivePolicy(gamma=0.99, sweep=SweepSpec(10.0))])
    def test_each_slot_equals_received_sample(self, monkeypatch, policy):
        # seven elements and theta2 > theta1: every aligned step lies next to
        # 2*pi, where the closed form used to lose digits
        geom = LinkGeometry(r1=2.0, n_ris=7, theta1=np.deg2rad(10.0))
        walk = generate_trajectory(TrajectorySpec(r2_init=0.5, speed_v=0.6, path_length=0.05,
                                                  rng_seed=11), geom)
        assert np.all(walk.theta2 > geom.theta1)
        seen = []
        original = simengine._received_samples

        def keep(cols, lo, hi, slope):
            y = original(cols, lo, hi, slope)
            seen.append((lo, hi, np.broadcast_to(slope, (hi - lo,)), y))
            return y

        monkeypatch.setattr(simengine, "_received_samples", keep)
        tl = run_timeline(walk, policy, geom, noise_enabled=False)
        assert tl.tracking_calls > 1
        covered = set()
        for lo, hi, slopes, y in seen:
            for i in range(lo, hi):
                cfg = RisConfiguration(slopes[i - lo], geom.n_ris)
                want = received_sample(walk[i], cfg, geom)
                assert abs(y[i - lo] - want) <= 1e-12 * abs(want), i
            covered.update(kinds_of(tl)[lo:hi].tolist())
        assert {int(SlotKind.DATA), int(SlotKind.DL_TRAINING)} <= covered
