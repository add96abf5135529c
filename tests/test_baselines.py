import math

import numpy as np
import pytest

from ristrack import (
    ChannelState,
    ExhaustivePolicy,
    LinkGeometry,
    SlotKind,
    TrajectorySpec,
    generate_path,
    optimal_config,
    received_sample,
    run_timeline,
    wrap_two_pi,
)

GEOM = LinkGeometry()


def sweep(res: float) -> ExhaustivePolicy:
    return ExhaustivePolicy(resolution_deg=res)


def swept_rss(state, policy):
    """Noiseless strength of every swept slope at a frozen channel."""
    return np.array([abs(received_sample(state, s, GEOM)) ** 2 for s in policy.slopes])


class TestExhaustiveSweep:
    # fractional and edge resolutions as well: a benchmark's check prices an
    # event of `exhaustive_<res>deg` at ceil(360 / res) training slots
    @pytest.mark.parametrize("res,slots", [(1.0, 360), (5.0, 72), (10.0, 36), (0.7, 515),
                                           (2.5, 144), (7.0, 52), (360.0, 1)])
    def test_slot_cost(self, res, slots):
        slopes = sweep(res).slopes
        assert slopes.size == slots == math.ceil(360.0 / res)
        assert slopes[0] == 0.0 and slopes[-1] < 2 * np.pi
        assert np.allclose(np.diff(slopes), np.deg2rad(res), rtol=0, atol=1e-12)

    def test_validation(self):
        for res in (0.0, -1.0, 400.0, float("nan")):
            with pytest.raises(ValueError, match="resolution"):
                sweep(res)
        # a fractional resolution keeps its digits in the tracker's name
        assert sweep(2.5).name == "exhaustive_2.5deg"

    def test_slots_used_matches_grid(self):
        geom = LinkGeometry(r1=2.0)
        traj = generate_path(
            TrajectorySpec(r2_init=2.0, path_length=0.05, rng_seed=11), (), geom)
        for res, want in ((1.0, 360), (5.0, 72), (10.0, 36)):
            slopes = sweep(res).slopes
            assert slopes.size == want
            assert np.allclose(np.diff(slopes), np.deg2rad(res), rtol=0, atol=1e-12)
            assert slopes[0] == 0.0 and slopes[-1] < 2 * np.pi
            tl = run_timeline(traj, sweep(res), geom,
                              noise_seed=None)
            assert tl.tracking_calls > 0
            assert np.sum(tl.kind == int(SlotKind.DL_TRAINING)) == want * tl.tracking_calls

    def test_recovers_aligned_slope_within_half_step(self):
        theta2 = np.deg2rad(20.0)
        state = ChannelState(beta=0.7 + 0.2j, theta2=theta2, r2=4.0)
        policy = sweep(1.0)
        got = policy.slopes[np.argmax(swept_rss(state, policy))]
        want = wrap_two_pi(GEOM.kd * (math.sin(GEOM.theta1) - math.sin(theta2)))
        dist = min(abs(got - want), 2 * np.pi - abs(got - want))
        assert dist <= np.deg2rad(0.5) * 1.0001

    def test_oracle_beats_any_swept_configuration(self):
        state = ChannelState(beta=1.0 + 0.0j, theta2=np.deg2rad(31.0), r2=4.0)
        genie = optimal_config(GEOM.theta1, state.theta2, GEOM)
        oracle_rss = abs(received_sample(state, genie, GEOM)) ** 2
        for res in (1.0, 5.0, 10.0):
            assert np.all(oracle_rss >= swept_rss(state, sweep(res)) * (1 - 1e-12))

    def test_finer_grid_never_worse(self):
        state = ChannelState(beta=1.0 + 0.0j, theta2=np.deg2rad(26.5), r2=4.0)
        best = {res: swept_rss(state, sweep(res)).max() for res in (10.0, 5.0, 1.0)}
        assert best[1.0] >= best[5.0] * (1 - 1e-12)
        assert best[5.0] >= best[10.0] * (1 - 1e-12)

    def test_config_ids_sequential(self):
        # every event numbers its 36 candidates consecutively after the last id
        # used, and installs the first strongest one
        geom = LinkGeometry(r1=2.0)
        traj = generate_path(
            TrajectorySpec(r2_init=2.0, path_length=0.2, rng_seed=11), (), geom)
        tl = run_timeline(traj, sweep(10.0), geom,
                          noise_seed=None)
        assert tl.tracking_calls > 1
        kind, config = tl.kind, tl.config_id
        train = np.nonzero(kind == int(SlotKind.DL_TRAINING))[0]
        ids = config[train]
        assert np.array_equal(ids, np.arange(1, 1 + 36 * tl.tracking_calls))
        for event in range(tl.tracking_calls):
            slots = train[36 * event : 36 * (event + 1)]
            assert np.all(np.diff(slots) == 1)
            installed = config[slots[-1] + 1]
            assert installed == config[slots[0]] + int(np.argmax(tl.rss[slots]))
            assert kind[slots[-1] + 1] == int(SlotKind.UL_FEEDBACK)
            assert config[slots[-1] + 2] == installed


class TestOracleConfig:
    def test_equals_aligned_law(self):
        state = ChannelState(beta=1.0 + 0.0j, theta2=np.deg2rad(24.0), r2=4.0)
        genie = optimal_config(GEOM.theta1, state.theta2, GEOM)
        want = wrap_two_pi(GEOM.kd * (math.sin(GEOM.theta1) - math.sin(state.theta2)))
        assert genie == pytest.approx(want, rel=0, abs=1e-12)

    def test_noiseless_rss_is_peak(self):
        state = ChannelState(beta=0.6 - 0.1j, theta2=np.deg2rad(24.0), r2=4.0)
        genie = optimal_config(GEOM.theta1, state.theta2, GEOM)
        rss = abs(received_sample(state, genie, GEOM)) ** 2
        want = (GEOM.beamformer_gain * abs(state.beta) * GEOM.n_ris) ** 2
        assert rss == pytest.approx(want, rel=1e-9)
