import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import cartesian_states, gain_step
from ristrack import (
    ChannelState,
    LinkGeometry,
    TrajectorySpec,
    generate_path,
    slot_count,
)


GEOM = LinkGeometry()


def walk(spec: TrajectorySpec):
    return generate_path(spec, (), GEOM)


# slot counts by hand: (speed_v, slot_duration_t0, path_length, slots)
SLOT_COUNTS = {
    "single_slot": (1.0, 1.0, 1.0, 1),
    "ceiling": (1.0, 1.0, 2.5, 3),
    "reference_parameters": (0.6, 15.6e-6, 1.0, 106_838),
}


@pytest.mark.parametrize("case", list(SLOT_COUNTS))
def test_slot_count(case):
    speed_v, slot_duration_t0, path_length, slots = SLOT_COUNTS[case]
    spec = TrajectorySpec(speed_v=speed_v, slot_duration_t0=slot_duration_t0,
                          path_length=path_length)
    assert slot_count(spec) == slots


# walks by hand: (spec, what is read off the walk, its value, tolerance)
HAND_VALUES = {
    "right_angle_walk": (
        TrajectorySpec(r2_init=4.0, psi_a=np.pi / 2, speed_v=1.0, slot_duration_t0=1.0,
                       path_length=4.0),
        lambda traj, spec: traj.r2[3], 4.0 * math.sqrt(2.0), dict(rel=1e-12)),
    "r2_110_degrees": (
        TrajectorySpec(r2_init=4.0, psi_a=np.deg2rad(110.0), speed_v=1.0,
                       slot_duration_t0=0.01, path_length=0.01),
        lambda traj, spec: traj.r2[0], 4.00343, dict(abs=1e-5)),
    "theta2_increment_deg_110_degrees": (
        TrajectorySpec(theta2_init=np.deg2rad(20.0), r2_init=4.0, psi_a=np.deg2rad(110.0),
                       speed_v=1.0, slot_duration_t0=0.01, path_length=0.01),
        lambda traj, spec: np.rad2deg(traj.theta2[0] - spec.theta2_init), 0.1345,
        dict(abs=1e-3)),
}


class TestWalkGeometry:
    @pytest.mark.parametrize("case", list(HAND_VALUES))
    def test_hand_value(self, case):
        spec, read, value, tolerance = HAND_VALUES[case]
        assert read(walk(spec), spec) == pytest.approx(value, **tolerance)

    @pytest.mark.parametrize("psi_deg", [35.0, 110.0, 200.0, 290.0])
    def test_matches_cartesian_oracle(self, psi_deg):
        spec = TrajectorySpec(
            theta2_init=np.deg2rad(20.0), r2_init=4.0, psi_a=np.deg2rad(psi_deg),
            speed_v=0.5, slot_duration_t0=0.001, path_length=1.0,
        )
        traj = walk(spec)
        r2_o, th_o = cartesian_states(spec)
        assert np.max(np.abs(traj.r2 - r2_o)) <= 1e-9
        assert np.max(np.abs(traj.theta2 - th_o)) <= 1e-9

    def test_sign_follows_walking_side(self):
        base = dict(theta2_init=np.deg2rad(20.0), r2_init=4.0, speed_v=1.0,
                    slot_duration_t0=0.01, path_length=0.05)
        up = TrajectorySpec(psi_a=np.deg2rad(110.0), **base)
        down = TrajectorySpec(psi_a=np.deg2rad(250.0), **base)
        assert walk(up).theta2[4] > up.theta2_init
        assert walk(down).theta2[4] < down.theta2_init


class TestEvolveChannel:
    # the one-slot gain law that the chains below check the engine against
    def test_no_movement_is_identity(self):
        assert gain_step(0.3 + 0.4j, 4.0, 4.0, GEOM) == pytest.approx(0.3 + 0.4j)

    def test_pathloss_ratio(self):
        assert abs(gain_step(1.0 + 0.0j, 4.0, 4.1, GEOM)) == pytest.approx(8.0 / 8.1, rel=1e-12)

    def test_full_wavelength_travel_preserves_phase(self):
        beta = gain_step(2.0 * np.exp(0.7j), 4.0, 4.0 + GEOM.wavelength, GEOM)
        assert np.angle(beta) == pytest.approx(0.7, abs=1e-9)


class TestChannelStateValidation:
    @pytest.mark.parametrize("r2", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_r2_must_be_finite_and_positive(self, r2):
        with pytest.raises(ValueError, match=r"^r2 must be finite and > 0"):
            ChannelState(beta=1.0, theta2=0.2, r2=r2)

    @pytest.mark.parametrize("theta2", [math.nan, math.inf, -math.inf])
    def test_theta2_must_be_finite(self, theta2):
        with pytest.raises(ValueError, match=r"^theta2 must be finite"):
            ChannelState(beta=1.0, theta2=theta2, r2=4.0)

    @pytest.mark.parametrize("beta", [0, 0j, complex(-0.0, 0.0), complex(math.nan, 0.0),
                                      complex(1.0, math.nan), complex(math.inf, 1.0),
                                      complex(0.0, -math.inf), math.nan])
    def test_beta_must_be_finite_and_nonzero(self, beta):
        with pytest.raises(ValueError, match=r"^beta must be nonzero and finite"):
            ChannelState(beta=beta, theta2=0.2, r2=4.0)

    def test_finite_values_construct(self):
        state = ChannelState(beta=1e-300j, theta2=-3.0, r2=1e-9)
        assert (state.beta, state.theta2, state.r2) == (1e-300j, -3.0, 1e-9)


class TestGenerateTrajectory:
    geom = LinkGeometry(r1=4.0)

    def test_equal_seeds_identical(self, engine_gain):
        spec = TrajectorySpec(path_length=0.01, rng_seed=42)
        a = generate_path(spec, (), self.geom)
        b = generate_path(spec, (), self.geom)
        assert np.array_equal(engine_gain(a, self.geom), engine_gain(b, self.geom))
        assert np.array_equal(a.theta2, b.theta2)

    def test_different_seeds_differ(self, engine_gain):
        a = generate_path(TrajectorySpec(path_length=0.01, rng_seed=1), (), self.geom)
        b = generate_path(TrajectorySpec(path_length=0.01, rng_seed=2), (), self.geom)
        assert engine_gain(a, self.geom)[0] != engine_gain(b, self.geom)[0]

    def test_gain_distance_product_invariant(self, engine_gain):
        spec = TrajectorySpec(path_length=0.5, rng_seed=5)
        traj = generate_path(spec, (), self.geom)
        product = np.abs(engine_gain(traj, self.geom)) * (self.geom.r1 + traj.r2)
        assert np.max(np.abs(product / product[0] - 1.0)) < 1e-9

    def test_phase_telescopes_with_distance(self, engine_gain):
        spec = TrajectorySpec(path_length=0.2, rng_seed=5)
        traj = generate_path(spec, (), self.geom)
        expect = np.angle(traj.b0) + 2 * np.pi * (traj.r2 - spec.r2_init) / self.geom.wavelength
        got = np.angle(engine_gain(traj, self.geom))
        assert np.allclose(np.exp(1j * expect), np.exp(1j * got), atol=1e-9)

    def test_matches_slotwise_evolve_chain(self, engine_gain):
        # dual route: the engine's gain column against the per-slot chain
        spec = TrajectorySpec(path_length=0.005, rng_seed=9)
        traj = generate_path(spec, (), self.geom)
        gain = engine_gain(traj, self.geom)
        beta, r = traj.b0, traj.walk.r0
        for t, r2 in enumerate(traj.r2.tolist()):
            beta, r = gain_step(beta, r, r2, self.geom), r2
            assert gain[t] == pytest.approx(beta, rel=1e-12), t

    def test_sequence_protocol(self):
        traj = generate_path(TrajectorySpec(path_length=0.001, rng_seed=3), (), self.geom)
        assert len(traj) == slot_count(TrajectorySpec(path_length=0.001, rng_seed=3))
        # a trajectory is cut, not indexed: a slot is a column entry
        for index in (0, -1, len(traj)):
            with pytest.raises(ValueError, match=r"prefix slice \[:end\]"):
                traj[index]


class TestMultiSegment:
    geom = LinkGeometry(r1=4.0)

    def test_chained_path_is_continuous(self, engine_gain):
        spec = TrajectorySpec(path_length=0.02, rng_seed=8)
        path = generate_path(spec, ((np.deg2rad(70.0), 0.02),), self.geom)
        n1 = slot_count(spec)
        assert len(path) == n1 + slot_count(replace(spec, path_length=0.02))
        # the junction obeys the same one-slot evolution law as any other slot
        product = np.abs(engine_gain(path, self.geom)) * (self.geom.r1 + path.r2)
        assert np.max(np.abs(product / product[0] - 1.0)) < 1e-9
        jump = abs(path.r2[n1] - path.r2[n1 - 1])
        assert jump <= spec.speed_v * spec.slot_duration_t0 * 1.0001

    def test_turns_match_cartesian_polyline(self):
        # the benchmark's tracking_stress walk: 3 m, then two 1 m legs after turns
        spec = TrajectorySpec(speed_v=1.8, rng_seed=1)
        turns = ((np.deg2rad(70.0), 1.0), (np.deg2rad(150.0), 1.0))
        path = generate_path(spec, turns, self.geom)
        r2_o, th_o = cartesian_states(spec, turns)
        assert len(path) == len(r2_o) == 178_064
        assert np.max(np.abs(path.r2 - r2_o)) <= 1e-9
        assert np.max(np.abs(path.theta2 - th_o)) <= 1e-9

    @pytest.mark.parametrize("length", [0.0, math.nan])
    def test_rejects_bad_continuation_length(self, length):
        spec = TrajectorySpec(path_length=0.01, rng_seed=1)
        turns = ((np.deg2rad(70.0), 0.01), (np.deg2rad(150.0), length))
        with pytest.raises(ValueError, match=r"segment 3 of the walk: length must be finite"):
            generate_path(spec, turns, self.geom)


class TestFrontHalfPlane:
    geom = LinkGeometry(r1=4.0)
    # walks from 80 deg toward and past the surface's plane
    spec = TrajectorySpec(theta2_init=np.deg2rad(80.0), r2_init=1.0, psi_a=np.deg2rad(150.0),
                          path_length=3.0, rng_seed=1)

    def test_first_slot_past_the_plane_is_named(self):
        with pytest.raises(ValueError, match=r"\(-90, 90\) deg at slot 54243: 90\.0000"):
            generate_path(self.spec, (), self.geom)
        inside = generate_path(replace(self.spec, path_length=54_242 * 0.6 * 15.6e-6), (),
                               self.geom)
        assert len(inside) == 54_242
        assert np.max(np.abs(inside.theta2)) < np.pi / 2

    def test_nan_angle_is_outside(self):
        first = replace(self.spec, theta2_init=0.0, path_length=0.01)
        # a NaN walking angle makes every slot of the turn NaN
        with pytest.raises(ValueError, match=rf"at slot {slot_count(first) + 1}: nan deg"):
            generate_path(first, ((math.nan, 0.01),), self.geom)


class TestSpecValidation:
    @pytest.mark.parametrize("field, bad", [
        (field, bad) for field in ("speed_v", "slot_duration_t0", "path_length", "r2_init")
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0)
    ] + [("psi_a", bad) for bad in (math.nan, math.inf, -math.inf)]
      + [("theta2_init", np.pi)])  # the one pin of theta2_init's range
    def test_bad_value_is_refused(self, field, bad):
        message = {"psi_a": "psi_a must be finite",
                   "theta2_init": r"theta2_init must lie in \(-pi/2, pi/2\)",
                   }.get(field, f"{field} must be finite and > 0")
        with pytest.raises(ValueError, match=rf"^{message}"):
            TrajectorySpec(**{field: bad})

    def test_finite_values_construct(self):
        # a scale takes any finite positive value, the walking angle any finite one
        for field in ("speed_v", "slot_duration_t0", "path_length", "r2_init"):
            assert getattr(TrajectorySpec(**{field: 0.5}), field) == 0.5
        assert TrajectorySpec(psi_a=-4.0).psi_a == -4.0
