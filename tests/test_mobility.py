import math
from dataclasses import replace

import numpy as np
import pytest

from ristrack import (
    ChannelState,
    LinkGeometry,
    TrajectorySpec,
    follow_on_spec,
    generate_path,
    generate_trajectory,
    slot_count,
)


GEOM = LinkGeometry()


def walk(spec: TrajectorySpec):
    return generate_trajectory(spec, GEOM)


def evolve_channel(prev: ChannelState, next_r2: float, next_theta2: float,
                   wavelength: float, r1: float) -> ChannelState:
    """Per-slot oracle of the gain chain that generate_trajectory telescopes.

    beta scales by rho = (r1 + r2_prev)/(r1 + r2_next) and rotates by
    2*pi*(r2_next - r2_prev)/lambda, the extra travel phase.
    """
    rho = (r1 + prev.r2) / (r1 + next_r2)
    beta = rho * prev.beta * np.exp(1j * 2 * np.pi * (next_r2 - prev.r2) / wavelength)
    return ChannelState(
        beta=complex(beta), theta2=next_theta2, r2=next_r2, slot_index=prev.slot_index + 1
    )


def cartesian_states(spec: TrajectorySpec, n: int):
    """Independent planar-coordinates oracle.

    RIS at the origin, broadside along +y, position (r*sin(theta), r*cos(theta)).
    The walking direction is the A->RIS unit vector rotated counterclockwise
    by psi_a, which reproduces the sign convention of the angle increment.
    """
    a = np.array(
        [spec.r2_init * math.sin(spec.theta2_init), spec.r2_init * math.cos(spec.theta2_init)]
    )
    to_ris = -a / np.hypot(*a)
    c, s = math.cos(spec.psi_a), math.sin(spec.psi_a)
    walk = np.array([c * to_ris[0] - s * to_ris[1], s * to_ris[0] + c * to_ris[1]])
    disp = spec.speed_v * spec.slot_duration_t0 * np.arange(1, n + 1)
    pos = a[None, :] + disp[:, None] * walk[None, :]
    r2 = np.hypot(pos[:, 0], pos[:, 1])
    theta2 = np.arctan2(pos[:, 0], pos[:, 1])
    return r2, theta2


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
        r2_o, th_o = cartesian_states(spec, slot_count(spec))
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
        prev = ChannelState(beta=0.3 + 0.4j, theta2=0.2, r2=4.0, slot_index=3)
        nxt = evolve_channel(prev, 4.0, 0.21, wavelength=0.005, r1=4.0)
        assert nxt.beta == pytest.approx(prev.beta)
        assert nxt.slot_index == 4

    def test_pathloss_ratio(self):
        prev = ChannelState(beta=1.0 + 0.0j, theta2=0.2, r2=4.0)
        nxt = evolve_channel(prev, 4.1, 0.2, wavelength=0.005, r1=4.0)
        assert abs(nxt.beta) == pytest.approx(8.0 / 8.1, rel=1e-12)

    def test_full_wavelength_travel_preserves_phase(self):
        prev = ChannelState(beta=2.0 * np.exp(0.7j), theta2=0.2, r2=4.0)
        nxt = evolve_channel(prev, 4.0 + 0.005, 0.2, wavelength=0.005, r1=4.0)
        assert np.angle(nxt.beta) == pytest.approx(0.7, abs=1e-9)


class TestGenerateTrajectory:
    geom = LinkGeometry(r1=4.0)

    def test_equal_seeds_identical(self):
        spec = TrajectorySpec(path_length=0.01, rng_seed=42)
        a = generate_trajectory(spec, self.geom)
        b = generate_trajectory(spec, self.geom)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.theta2, b.theta2)

    def test_different_seeds_differ(self):
        a = generate_trajectory(TrajectorySpec(path_length=0.01, rng_seed=1), self.geom)
        b = generate_trajectory(TrajectorySpec(path_length=0.01, rng_seed=2), self.geom)
        assert a.beta[0] != b.beta[0]

    def test_gain_distance_product_invariant(self):
        spec = TrajectorySpec(path_length=0.5, rng_seed=5)
        traj = generate_trajectory(spec, self.geom)
        product = np.abs(traj.beta) * (self.geom.r1 + traj.r2)
        assert np.max(np.abs(product / product[0] - 1.0)) < 1e-9

    def test_phase_telescopes_with_distance(self):
        spec = TrajectorySpec(path_length=0.2, rng_seed=5)
        traj = generate_trajectory(spec, self.geom)
        expect = np.angle(traj.anchor.beta) + 2 * np.pi * (traj.r2 - spec.r2_init) / self.geom.wavelength
        assert np.allclose(np.exp(1j * expect), np.exp(1j * np.angle(traj.beta)), atol=1e-9)

    def test_matches_slotwise_evolve_chain(self):
        # dual route: the vectorised closed form against the per-slot chain
        spec = TrajectorySpec(path_length=0.005, rng_seed=9)
        traj = generate_trajectory(spec, self.geom)
        state = traj.anchor
        for t in range(1, len(traj) + 1):
            state = evolve_channel(state, traj.r2[t - 1], traj.theta2[t - 1],
                                   self.geom.wavelength, self.geom.r1)
            got = traj[t - 1]
            assert got.slot_index == state.slot_index
            assert got.beta == pytest.approx(state.beta, rel=1e-12)

    def test_given_beta_skips_draw(self):
        spec = TrajectorySpec(path_length=0.01, beta_init=0.5 + 0.5j)
        traj = generate_trajectory(spec, self.geom)
        assert traj.anchor.beta == 0.5 + 0.5j

    def test_sequence_protocol(self):
        traj = generate_trajectory(TrajectorySpec(path_length=0.001, rng_seed=3), self.geom)
        assert len(traj) == slot_count(TrajectorySpec(path_length=0.001, rng_seed=3))
        first = traj[0]
        assert first.slot_index == 1
        assert traj[-1].slot_index == len(traj)
        with pytest.raises(IndexError):
            traj[len(traj)]


class TestMultiSegment:
    geom = LinkGeometry(r1=4.0)

    def test_follow_on_starts_at_final_state(self):
        spec = TrajectorySpec(path_length=0.02, rng_seed=8)
        first = generate_trajectory(spec, self.geom)
        second_spec = follow_on_spec(spec, first, np.deg2rad(70.0), 0.02)
        last = first.final_state()
        assert second_spec.theta2_init == last.theta2
        assert second_spec.r2_init == last.r2
        assert second_spec.beta_init == last.beta

    def test_chained_path_is_continuous(self):
        spec = TrajectorySpec(path_length=0.02, rng_seed=8)
        path = generate_path(spec, ((np.deg2rad(70.0), 0.02),), self.geom)
        n1 = slot_count(spec)
        assert len(path) == n1 + slot_count(replace(spec, path_length=0.02))
        # the junction obeys the same one-slot evolution law as any other slot
        product = np.abs(path.beta) * (self.geom.r1 + path.r2)
        assert np.max(np.abs(product / product[0] - 1.0)) < 1e-9
        jump = abs(path.r2[n1] - path.r2[n1 - 1])
        assert jump <= spec.speed_v * spec.slot_duration_t0 * 1.0001


class TestSpecValidation:
    def test_rejects_zero_speed(self):
        with pytest.raises(ValueError):
            TrajectorySpec(speed_v=0.0)

    def test_rejects_bad_path(self):
        with pytest.raises(ValueError):
            TrajectorySpec(path_length=-1.0)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            TrajectorySpec(theta2_init=np.pi)
