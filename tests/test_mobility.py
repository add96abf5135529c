import math
from dataclasses import replace

import numpy as np
import pytest

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


def evolve_channel(prev: ChannelState, next_r2: float, next_theta2: float,
                   wavelength: float, r1: float) -> ChannelState:
    """Per-slot oracle of the gain chain that generate_path telescopes.

    beta scales by rho = (r1 + r2_prev)/(r1 + r2_next) and rotates by
    2*pi*(r2_next - r2_prev)/lambda, the extra travel phase.
    """
    rho = (r1 + prev.r2) / (r1 + next_r2)
    beta = rho * prev.beta * np.exp(1j * 2 * np.pi * (next_r2 - prev.r2) / wavelength)
    return ChannelState(beta=complex(beta), theta2=next_theta2, r2=next_r2)


def cartesian_states(spec: TrajectorySpec, continuations=()):
    """Independent planar-coordinates oracle of a polyline walk.

    RIS at the origin, broadside along +y, position (r*sin(theta), r*cos(theta)).
    Each segment's walking direction is the unit vector from its start point
    to the RIS rotated counterclockwise by its psi_a, which reproduces the
    sign convention of the angle increment. A segment starts at the previous
    segment's last slot and covers slot_count of its length.
    """
    start = np.array(
        [spec.r2_init * math.sin(spec.theta2_init), spec.r2_init * math.cos(spec.theta2_init)]
    )
    legs = []
    for psi, length in ((spec.psi_a, spec.path_length), *continuations):
        to_ris = -start / np.hypot(*start)
        c, s = math.cos(psi), math.sin(psi)
        heading = np.array([c * to_ris[0] - s * to_ris[1], s * to_ris[0] + c * to_ris[1]])
        n = slot_count(replace(spec, path_length=length))
        disp = spec.speed_v * spec.slot_duration_t0 * np.arange(1, n + 1)
        legs.append(start[None, :] + disp[:, None] * heading[None, :])
        start = legs[-1][-1]
    pos = np.concatenate(legs)
    return np.hypot(pos[:, 0], pos[:, 1]), np.arctan2(pos[:, 0], pos[:, 1])


class TestSlotCount:
    def test_single_slot(self):
        spec = TrajectorySpec(speed_v=1.0, slot_duration_t0=1.0, path_length=1.0)
        assert slot_count(spec) == 1

    def test_ceiling(self):
        spec = TrajectorySpec(speed_v=1.0, slot_duration_t0=1.0, path_length=2.5)
        assert slot_count(spec) == 3

    def test_reference_parameters(self):
        spec = TrajectorySpec(speed_v=0.6, slot_duration_t0=15.6e-6, path_length=1.0)
        assert slot_count(spec) == 106_838


class TestR2At:
    def test_right_angle_walk(self):
        spec = TrajectorySpec(
            r2_init=4.0, psi_a=np.pi / 2, speed_v=1.0, slot_duration_t0=1.0, path_length=4.0
        )
        assert walk(spec).r2[3] == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)

    def test_hand_value_110_degrees(self):
        spec = TrajectorySpec(
            r2_init=4.0, psi_a=np.deg2rad(110.0), speed_v=1.0,
            slot_duration_t0=0.01, path_length=0.01,
        )
        assert walk(spec).r2[0] == pytest.approx(4.00343, abs=1e-5)


class TestTheta2At:
    def test_hand_increment_110_degrees(self):
        spec = TrajectorySpec(
            theta2_init=np.deg2rad(20.0), r2_init=4.0, psi_a=np.deg2rad(110.0),
            speed_v=1.0, slot_duration_t0=0.01, path_length=0.01,
        )
        inc = walk(spec).theta2[0] - spec.theta2_init
        assert np.rad2deg(inc) == pytest.approx(0.1345, abs=1e-3)

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
    def test_no_movement_is_identity(self):
        prev = ChannelState(beta=0.3 + 0.4j, theta2=0.2, r2=4.0)
        nxt = evolve_channel(prev, 4.0, 0.21, wavelength=0.005, r1=4.0)
        assert nxt.beta == pytest.approx(prev.beta)

    def test_pathloss_ratio(self):
        prev = ChannelState(beta=1.0 + 0.0j, theta2=0.2, r2=4.0)
        nxt = evolve_channel(prev, 4.1, 0.2, wavelength=0.005, r1=4.0)
        assert abs(nxt.beta) == pytest.approx(8.0 / 8.1, rel=1e-12)

    def test_full_wavelength_travel_preserves_phase(self):
        prev = ChannelState(beta=2.0 * np.exp(0.7j), theta2=0.2, r2=4.0)
        nxt = evolve_channel(prev, 4.0 + 0.005, 0.2, wavelength=0.005, r1=4.0)
        assert np.angle(nxt.beta) == pytest.approx(0.7, abs=1e-9)


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
        state = ChannelState(traj.b0, spec.theta2_init, traj.walk.r0)
        for t in range(1, len(traj) + 1):
            state = evolve_channel(state, traj.r2[t - 1], traj.theta2[t - 1],
                                   self.geom.wavelength, self.geom.r1)
            assert gain[t - 1] == pytest.approx(state.beta, rel=1e-12), t

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
    @pytest.mark.parametrize("field", ["speed_v", "slot_duration_t0", "path_length",
                                       "r2_init", "rayleigh_scale"])
    def test_scales_must_be_finite_and_positive(self, field):
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=rf"^{field} must be finite and > 0"):
                TrajectorySpec(**{field: bad})
        assert getattr(TrajectorySpec(**{field: 0.5}), field) == 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_walking_angle_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=r"^psi_a must be finite"):
            TrajectorySpec(psi_a=bad)
        assert TrajectorySpec(psi_a=-4.0).psi_a == -4.0

    def test_rejects_zero_speed(self):
        with pytest.raises(ValueError):
            TrajectorySpec(speed_v=0.0)

    def test_rejects_bad_path(self):
        with pytest.raises(ValueError):
            TrajectorySpec(path_length=-1.0)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            TrajectorySpec(theta2_init=np.pi)
