import cmath
import gc
import math
import weakref
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import ristrack.simengine as simengine
from ristrack import (
    ExhaustivePolicy,
    LinkGeometry,
    OraclePolicy,
    ProposedPolicy,
    SlotKind,
    Trajectory,
    TrajectorySpec,
    cumulative_rate,
    generate_path,
    instantaneous_rate,
    overhead_report,
    received_sample,
    run_timeline,
    slot_count,
)
from ristrack.ris import _dirichlet
from ristrack.wavefield import TWO_PI

GEOM = LinkGeometry(r1=2.0)
SPEC = TrajectorySpec(r2_init=2.0, speed_v=0.6, path_length=0.05, rng_seed=11)


@pytest.fixture(scope="module")
def traj():
    return generate_path(SPEC, (), GEOM)


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
        tl = run_timeline(traj, ExhaustivePolicy(gamma=0.5, resolution_deg=10.0),
                          GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        events = tl.tracking_calls
        assert events > 0
        assert np.sum(kinds == int(SlotKind.DL_TRAINING)) == 36 * events
        assert np.sum(kinds == int(SlotKind.UL_FEEDBACK)) == 2 * events

    def test_channel_keeps_moving_during_sweep(self, traj):
        tl = run_timeline(traj, ExhaustivePolicy(gamma=0.5, resolution_deg=10.0),
                          GEOM, noise_enabled=False)
        kinds = kinds_of(tl)
        train = np.nonzero(kinds == int(SlotKind.DL_TRAINING))[0]
        assert tl.theta2_true[train[-1]] != tl.theta2_true[train[0]]

    def test_training_slot_i_measures_candidate_i(self):
        # slot cursor+i of an event is received under swept slope i, with the
        # channel of that slot: explicit element sum at the slot's own angle
        walk = generate_path(replace(SPEC, path_length=0.2), (), GEOM)
        tl = run_timeline(walk, ExhaustivePolicy(gamma=0.5, resolution_deg=10.0),
                          GEOM, noise_enabled=False)
        assert tl.tracking_calls > 1
        train = np.nonzero(kinds_of(tl) == int(SlotKind.DL_TRAINING))[0]
        config, status = tl.config_id, tl.status_id
        first_id = {s: config[train][status[train] == s].min() for s in np.unique(status[train])}
        k = np.arange(GEOM.n_ris)
        for t in train:
            slope = np.deg2rad(10.0 * (config[t] - first_id[status[t]]))
            u = np.sin(GEOM.theta1) - np.sin(walk.theta2[t])
            gain = np.exp(1j * k * (slope - GEOM.kd * u)).sum()
            want = abs(GEOM.beamformer_gain * GEOM.alpha * walk.beta[t] * gain) ** 2
            assert tl.rss[t] == pytest.approx(want, rel=1e-9)


class TestTrajectoryEndsMidTraining:
    @pytest.mark.parametrize("policy", [ExhaustivePolicy(gamma=0.5, resolution_deg=1.0),
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
        tl = run_timeline(generate_path(quiet, (), GEOM), ProposedPolicy(gamma=0.9),
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
        tl = run_timeline(generate_path(quiet, (), GEOM), OraclePolicy(gamma=0.9),
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

    def test_counts_read_off_the_status_table_bit_for_bit(self, default_scans):
        for tl in default_scans:
            m = overhead_report(tl, tl.gamma)
            assert m.pct_below_threshold == 100.0 * float(np.mean(tl.kind != SlotKind.DATA))
            assert m.final_cum_rate == tl.cum_rate[-1] == cumulative_rate(tl.inst_rate)[-1]
            assert m.cumulative_rate_series.shape == (1,)
            assert m.cumulative_rate_series[-1] == m.final_cum_rate

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
        scale = (geom.beamformer_gain * abs(walk.beta[0]) * geom.n_ris) ** 2
        scale = scale if mode == "absolute" else 1.0
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
    "7": dict(_SCAN_WINDOW=7),
    "1000000000": dict(_SCAN_WINDOW=10**9),
    "probing_off": dict(_LONG_STATUS=10**9),
    "probing_every_span": dict(_LONG_STATUS=0),
    "stride_1": dict(_LONG_STATUS=0, _PROBE_SLOTS=10**9),
    "two_probes_per_span": dict(_LONG_STATUS=0, _PROBE_SLOTS=2),
}


@pytest.fixture(scope="module")
def default_walk():
    return generate_path(TrajectorySpec(path_length=0.3, rng_seed=4), (), WINDOW_GEOM)


def scan_runs(walk):
    """(geometry, policy, threshold mode) of every run the scan settings are checked on."""
    # absolute thresholds sit at fixed shares of the first slot's aligned peak
    peak = (WINDOW_GEOM.beamformer_gain * abs(walk.beta[0]) * WINDOW_GEOM.n_ris) ** 2
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
        peak = (GEOM.beamformer_gain * abs(walk.beta[0]) * GEOM.n_ris) ** 2
        normal = (ProposedPolicy(), ExhaustivePolicy(resolution_deg=10.0), OraclePolicy())
        absolute = (ProposedPolicy(0.9 * peak), ExhaustivePolicy(0.5 * peak, 10.0),
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
                want = run_timeline(generate_path(SPEC, (), GEOM), policy, geom, **kwargs)
                assert_same_timeline(got, want)
                if policy.name == "proposed":
                    assert got.tracking_calls > 0, kwargs
        kept = weakref.ref(simengine._COLUMNS[walk][1])
        del walk
        gc.collect()
        assert kept() is None

    def test_unseeded_noise_is_drawn_per_run(self):
        walk = generate_path(SPEC, (), GEOM)
        a = run_timeline(walk, OraclePolicy(), GEOM)
        b = run_timeline(walk, OraclePolicy(), GEOM)
        assert not np.array_equal(a.rss, b.rss)
        assert walk not in simengine._COLUMNS


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
        # the walk's statuses are short, so spans and probes start at shorter ones
        monkeypatch.setattr(simengine, "_LONG_STATUS", 64)
        monkeypatch.setattr(simengine, "_PROBE_SLOTS", 8)
        tl = run_timeline(walk, policy, geom, noise_enabled=False)
        assert tl.tracking_calls > 1
        assert any(c.step > 1 for c in engine_calls)
        covered = set()
        kinds = kinds_of(tl)
        for call in engine_calls:
            for j, i in enumerate(call.slots):
                want = received_sample(walk[i], call.slopes[j], geom)
                assert abs(call.samples[j] - want) <= 1e-12 * abs(want), i
            covered.update(kinds[call.lo:call.hi].tolist())
        assert {int(SlotKind.DATA), int(SlotKind.DL_TRAINING)} <= covered

    def test_scalar_slope_turn_is_the_np_exp_form(self, traj):
        # a scan's one slope turns its window by cmath.exp, which must give
        # np.exp's value bit for bit, so slopes as numpy values and edge values
        # are checked as well as random ones
        cols = simengine._slot_columns(traj, GEOM, 3, True)
        lo, hi = 5, 300
        rng = np.random.default_rng(21)
        values = [0.0, -0.0, TWO_PI, np.nextafter(TWO_PI, 0.0), np.pi, -1.0, 1e6, -1e300,
                  *rng.uniform(0.0, TWO_PI, 40).tolist()]
        for value in values:
            for slope in (value, np.float64(value)):
                d, _ = _dirichlet(slope - cols.kdu[lo:hi], cols.n_ris)
                turn = np.exp(0.5j * (cols.n_ris - 1) * np.asarray(slope))
                want = turn * cols.phase[lo:hi] * d + cols.noise[lo:hi]
                got = simengine._received_samples(cols, lo, hi, slope)
                assert_same_bits(got, want, value)
        for n_ris in (2, 3, 7, 64, 100):
            for value in values:
                assert complex(np.exp(0.5j * (n_ris - 1) * np.asarray(value))) == \
                    cmath.exp(0.5j * (n_ris - 1) * value), (n_ris, value)


DERIVED = ("kind", "rss_normalized", "cum_rate", "config_id", "status_id")


def assert_same_bits(got, want, col):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), col


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
    """Blocks between the bounds, carried and alone, equal the full-range columns bit for bit."""
    full = {col: getattr(tl, col) for col in DERIVED}
    carry = None
    for lo, hi in zip(bounds, bounds[1:]):
        block, carry = tl.block(lo, hi, carry)
        alone, alone_carry = tl.block(lo, hi)
        assert alone_carry == carry
        for col in DERIVED:
            assert_same_bits(getattr(block, col), full[col][lo:hi], col)
            assert_same_bits(getattr(alone, col), full[col][lo:hi], col)
        for col in ("rss", "inst_rate", "theta2_true"):
            assert_same_bits(getattr(block, col), getattr(tl, col)[lo:hi], col)
        assert len(block) == hi - lo


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

    def test_full_range_columns_follow_the_ledger_rules(self, default_walk, default_scans):
        for (geom, _, _), tl in zip(scan_runs(default_walk), default_scans):
            assert_same_bits(tl.cum_rate, cumulative_rate(tl.inst_rate), "cum_rate")
            data = tl.kind == SlotKind.DATA
            rates = np.where(data, instantaneous_rate(tl.rss, geom.noise_var), 0.0)
            assert_same_bits(tl.inst_rate, rates, "inst_rate")
            # a status's data row starts at its reference slot, normalised to one
            table = tl.statuses
            refs = table.first[:-1][table.kind == SlotKind.DATA]
            assert np.all(tl.rss_normalized[refs] == 1.0)
            assert np.all(tl.rss[refs] == table.rss_ref[table.kind == SlotKind.DATA])

    def test_cut_training_slice(self, traj):
        for policy in (ExhaustivePolicy(gamma=0.5, resolution_deg=1.0), ProposedPolicy()):
            full = run_timeline(traj, policy, GEOM, noise_enabled=False)
            t2 = int(np.nonzero(kinds_of(full) == int(SlotKind.DATA_BELOW_THRESHOLD))[0][0])
            # cut three slots into the training slice, and before its first slot
            for end, bounds in ((t2 + 5, [0, t2, t2 + 1, t2 + 3, t2 + 5]), (t2 + 2, [0, t2 + 2])):
                cut = Trajectory(traj.anchor, traj.theta2[:end], traj.r2[:end], traj.beta[:end])
                tl = run_timeline(cut, policy, GEOM, noise_enabled=False)
                assert tl.tracking_calls == 1
                assert_blocks_match_full_range(tl, bounds)
                assert_blocks_match_full_range(tl, [0, end - 1, end, end])
                assert np.array_equal(tl.kind[t2:], [1, 3, 2, 2, 2][: end - t2])
                assert np.array_equal(tl.config_id[t2 + 2:], [1, 2, 3][: end - t2 - 2])

    def test_block_accumulates_behind_the_carry(self, default_scans):
        # the carry added after the block's own running sums rounds differently
        tl = default_scans[0]
        lo = 8192
        _, carry = tl.block(0, lo)
        block, _ = tl.block(lo, len(tl), carry)
        slots = np.arange(lo + 1, len(tl) + 1)
        added_after = (carry + np.cumsum(tl.inst_rate[lo:])) / slots
        assert not np.array_equal(added_after, tl.cum_rate[lo:])
        assert_same_bits(block.cum_rate, tl.cum_rate[lo:], "cum_rate")

    def test_a_run_holds_16_bytes_per_slot_and_its_status_table(self, default_scans):
        for tl in default_scans:
            columns = table = 0
            for f in fields(tl):
                value = getattr(tl, f.name)
                if isinstance(value, np.ndarray) and f.name != "theta2_true":
                    columns += value.nbytes
                elif is_dataclass(value):
                    table += sum(getattr(value, g.name).nbytes for g in fields(value))
            # 16 bytes per slot plus the status table, which stays small: a
            # status gives at most five rows (data, trigger, two feedbacks,
            # training) of 25 bytes
            assert columns <= 16 * len(tl), tl.policy_name
            assert tl.statuses.kind.size <= 5 * tl.tracking_calls + 1
            assert table <= 25 * (5 * tl.tracking_calls + 2)
