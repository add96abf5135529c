import cmath
import dataclasses
import math

import numpy as np
import pytest

from oracles import brute_force_gain, matrix_pipeline_sample
from ristrack import (
    ChannelState,
    LinkGeometry,
    coherent_gain_values,
    optimal_config,
    received_sample,
    update_config,
    wrap_two_pi,
)
from ristrack.ris import _dirichlet, _geometric_sum
from ristrack.wavefield import TWO_PI

GEOM = LinkGeometry()


def gain(w: float, n: int = 64) -> complex:
    return complex(coherent_gain_values(w, n, GEOM.spacing_d, GEOM.wavelength))


def element_phases(slope: float, n_ris: int) -> np.ndarray:
    """Phases k*slope of a linear-phase surface, wrapped to [0, 2*pi)."""
    return wrap_two_pi(np.arange(n_ris) * slope)


class TestOptimalConfig:
    def test_equal_angles_all_zero(self):
        slope = optimal_config(0.3, 0.3, GEOM)
        assert slope == 0.0
        assert np.all(element_phases(slope, GEOM.n_ris) == 0.0)

    def test_hand_value_45_20(self):
        phases = element_phases(optimal_config(np.deg2rad(45.0), np.deg2rad(20.0), GEOM),
                                GEOM.n_ris)
        assert phases[1] == pytest.approx(1.1470, abs=1e-4)
        for k in range(GEOM.n_ris):
            assert phases[k] == pytest.approx(wrap_two_pi(k * phases[1]), abs=1e-9)

    # the second pair's raw slope is negative, so only the wrap brings it in
    @pytest.mark.parametrize("theta1_deg, theta2_deg", [(45.0, -37.0), (-37.0, 45.0)])
    def test_first_phase_zero_and_wrapped(self, theta1_deg, theta2_deg):
        slope = optimal_config(np.deg2rad(theta1_deg), np.deg2rad(theta2_deg), GEOM)
        assert 0.0 <= slope < 2 * np.pi
        phases = element_phases(slope, GEOM.n_ris)
        assert phases[0] == 0.0
        assert np.all((phases >= 0) & (phases < 2 * np.pi))

    def test_aligned_magnitude_reaches_n(self):
        state = ChannelState(beta=0.8 * np.exp(0.3j), theta2=np.deg2rad(20.0), r2=4.0)
        slope = optimal_config(GEOM.theta1, state.theta2, GEOM)
        y = received_sample(state, slope, GEOM)
        want = GEOM.beamformer_gain * abs(state.beta) * GEOM.n_ris
        assert abs(y) == pytest.approx(want, rel=1e-9)

    def test_maximises_over_family(self):
        # argmax invariance over a 1-degree grid of steered configurations
        rng = np.random.default_rng(3)
        for theta2 in rng.uniform(-1.0, 1.0, size=5):
            state = ChannelState(beta=1.0 + 0.0j, theta2=theta2, r2=4.0)
            best = abs(received_sample(state, optimal_config(GEOM.theta1, theta2, GEOM), GEOM))
            for cand_deg in np.arange(-60.0, 61.0, 1.0):
                cand = optimal_config(GEOM.theta1, np.deg2rad(cand_deg), GEOM)
                assert abs(received_sample(state, cand, GEOM)) <= best * (1 + 1e-12)


def phase_distance(a, b) -> float:
    """Largest distance around the circle between two element-phase vectors."""
    delta = np.abs(a - b)
    return float(np.max(np.minimum(delta, 2 * np.pi - delta)))


class TestUpdateConfig:
    def test_zero_update_keeps_slope_wrapped(self):
        slope = optimal_config(0.5, 0.1, GEOM)
        assert update_config(slope, 0.0, GEOM) == slope
        # any slope comes back wrapped as np.mod wraps it, whole turns to exactly 0
        for raw, want in ((7.0, 7.0 - 2 * np.pi), (-1.0, 2 * np.pi - 1.0), (2 * np.pi, 0.0)):
            got = update_config(raw, 0.0, GEOM)
            assert got == pytest.approx(want, abs=1e-15)
            phases = element_phases(got, 3)
            assert np.all((phases >= 0) & (phases < 2 * np.pi))

    def test_matches_direct_optimal(self):
        rng = np.random.default_rng(11)
        ws = []
        for _ in range(100):
            th_a, th_b = rng.uniform(-1.2, 1.2, size=2)
            w = math.sin(th_b) - math.sin(th_a)
            stepped = update_config(optimal_config(GEOM.theta1, th_a, GEOM), w, GEOM)
            direct = optimal_config(GEOM.theta1, th_b, GEOM)
            assert phase_distance(element_phases(stepped, GEOM.n_ris),
                                  element_phases(direct, GEOM.n_ris)) < 1e-10
            ws.append(w)
        # an array of mismatches updates one slope into one slope each, bit
        # for bit as one update at a time
        slope = optimal_config(GEOM.theta1, 0.2, GEOM)
        many = update_config(slope, ws, GEOM)
        assert many.shape == (100,)
        assert np.array_equal(many, [update_config(slope, w, GEOM) for w in ws])

    def test_updates_add(self):
        slope = optimal_config(0.5, 0.1, GEOM)
        once = update_config(update_config(slope, 0.01, GEOM), 0.02, GEOM)
        twice = update_config(slope, 0.03, GEOM)
        assert phase_distance(element_phases(once, GEOM.n_ris),
                              element_phases(twice, GEOM.n_ris)) < 1e-10

    def test_rejects_large_w(self):
        slope = optimal_config(0.5, 0.1, GEOM)
        with pytest.raises(ValueError):
            update_config(slope, 2.5, GEOM)
        with pytest.raises(ValueError):
            update_config(slope, [0.1, -2.5], GEOM)
        with pytest.raises(ValueError):
            update_config(slope, np.array([[0.1, 0.2], [2.0000000001, 0.0]]), GEOM)
        # NaN fails the check too, alone and inside an array
        for w in (math.nan, [0.1, math.nan]):
            with pytest.raises(ValueError, match=r"^\|w\| must be <= 2"):
                update_config(slope, w, GEOM)

    def test_sequence_equals_array_law_bit_for_bit(self):
        # a sequence, an array or one mismatch is the array law
        # wrap_two_pi(slope - kd*w) bit for bit, one mismatch as a float, also
        # for mismatches that land next to a whole turn, at signed zeros and
        # at |w| = 2
        rng = np.random.default_rng(12)
        kd = GEOM.kd
        for slope in (0.0, 1.3, np.float64(6.2), TWO_PI - 1e-13):
            ws = [0.0, -0.0, 2.0, -2.0]
            for k in (-1, 0, 1):
                seam = (slope - k * TWO_PI) / kd
                ws += [np.nextafter(seam, -np.inf), seam, np.nextafter(seam, np.inf)]
            ws = [w for w in ws if abs(w) <= 2.0] + rng.uniform(-2.0, 2.0, 20).tolist()
            # a long array as well
            long = rng.uniform(-2.0, 2.0, 1500)
            for w in (ws, np.array(ws), long, np.array(ws[:6]).reshape(2, 3)):
                got = update_config(slope, w, GEOM)
                want = wrap_two_pi(slope - kd * np.asarray(w, dtype=float))
                assert isinstance(got, np.ndarray) and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            for w in ws[:8]:
                for one in (w, np.float64(w), np.array(w)):
                    got = update_config(slope, one, GEOM)
                    assert type(got) is float
                    assert repr(got) == repr(float(wrap_two_pi(slope - kd * np.asarray(w))))


class TestCoherentGain:
    def test_full_circle_sum_is_zero(self):
        # per-element step 2*pi/N closes the circle
        w = (2 * np.pi / 64) / GEOM.kd
        assert abs(gain(w)) < 1e-9 * 64

    def test_matches_brute_force(self):
        w = np.random.default_rng(23).uniform(-2, 2, size=300)
        closed = coherent_gain_values(w, 64, GEOM.spacing_d, GEOM.wavelength)
        direct = brute_force_gain(GEOM.kd * w, 64)
        assert np.all(np.abs(closed - direct) <= 1e-10 * np.maximum(1.0, np.abs(direct)))

    def test_magnitude_even_angle_odd(self):
        rng = np.random.default_rng(5)
        for w in rng.uniform(0.001, 1.5, size=50):
            plus, minus = gain(w), gain(-w)
            assert abs(plus) == pytest.approx(abs(minus), rel=1e-10)
            if abs(plus) > 1e-9:
                assert cmath.phase(plus) == pytest.approx(-cmath.phase(minus), abs=1e-9)

    def test_bounded_by_n_with_grating_equality(self):
        rng = np.random.default_rng(6)
        ws = rng.uniform(-2, 2, size=200)
        for w in ws:
            assert abs(gain(w)) <= 64 + 1e-9
        # |w| = 2 at half-wavelength spacing is the grating condition
        assert abs(gain(2.0)) == pytest.approx(64)


class TestReceivedSample:
    def test_stale_config_gives_coherent_gain(self):
        th_s, th_next = np.deg2rad(20.0), np.deg2rad(20.7)
        stale = optimal_config(GEOM.theta1, th_s, GEOM)
        state = ChannelState(beta=0.9 * np.exp(-0.2j), theta2=th_next, r2=4.0)
        y = received_sample(state, stale, GEOM)
        w = math.sin(th_next) - math.sin(th_s)
        want = GEOM.beamformer_gain * state.beta * gain(w, GEOM.n_ris)
        assert y == pytest.approx(want, rel=1e-9)

    def test_matches_matrix_pipeline(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            geom = LinkGeometry(theta1=rng.uniform(-1.2, 1.2))
            phi_ap = rng.uniform(-1.2, 1.2)  # the AP's steering angle must cancel
            theta2 = rng.uniform(-1.2, 1.2)
            beta = complex(rng.normal(), rng.normal()) or 1.0
            slope = rng.uniform(0, 2 * np.pi)
            state = ChannelState(beta=beta, theta2=theta2, r2=4.0)
            got = received_sample(state, slope, geom)
            want = matrix_pipeline_sample(beta, theta2, slope, geom, phi_ap)
            assert got == pytest.approx(want, rel=1e-9)

    def test_noise_is_added(self):
        state = ChannelState(beta=1.0 + 0.0j, theta2=0.3, r2=4.0)
        slope = optimal_config(GEOM.theta1, 0.3, GEOM)
        clean = received_sample(state, slope, GEOM)
        noisy = received_sample(state, slope, GEOM, noise=0.5 - 0.25j)
        assert noisy - clean == pytest.approx(0.5 - 0.25j)

    def test_vector_form_matches_scalar(self):
        rng = np.random.default_rng(29)
        betas = rng.normal(size=8) + 1j * rng.normal(size=8)
        thetas = rng.uniform(-1.0, 1.0, size=8)
        slope = optimal_config(GEOM.theta1, 0.2, GEOM)
        # column form: amplitude times the element sum of each slot's step
        u = np.sin(GEOM.theta1) - np.sin(thetas)
        gains = _geometric_sum(slope - GEOM.kd * u, GEOM.n_ris)
        ys = GEOM.beamformer_gain * betas * gains
        for i in range(8):
            one = received_sample(
                ChannelState(beta=betas[i], theta2=thetas[i], r2=4.0), slope, GEOM
            )
            assert ys[i] == pytest.approx(one, rel=1e-12)


def extended_element_sum(mu, n: int) -> np.ndarray:
    """sum_k exp(j*k*mu) summed element by element in extended precision."""
    k = np.arange(n, dtype=np.longdouble)
    phase = np.asarray(mu, dtype=np.longdouble)[:, None] * k
    return (np.cos(phase).sum(axis=1) + 1j * np.sin(phase).sum(axis=1)).astype(complex)


class TestKernelAccuracy:
    # steps within 1e-9, 1e-6 and 1e-3 rad of 0 and of +-2*pi: the engine's
    # slots right after an alignment sit there (next to 2*pi when theta2 >
    # theta1). The ratio form (exp(j*N*mu) - 1) / (exp(j*mu) - 1) lost up to
    # 5e-9 relative next to 0, and next to +-2*pi at N = 7 or 100 about
    # 5e-15 divided by the distance (5e-6 at 1e-9 rad, 5e-4 at 1e-11 rad)
    # a one-element geometry is rejected, so n_ris = 1 checks only the
    # geometry-free coherent_gain_values
    @pytest.mark.parametrize("n_ris", [1, 7, 64, 100])
    def test_matches_extended_element_sum_next_to_every_turn(self, n_ris):
        rng = np.random.default_rng(n_ris)
        geom = dataclasses.replace(GEOM, n_ris=n_ris) if n_ris > 1 else None
        for centre in (0.0, 2 * np.pi, -2 * np.pi):
            for band in (1e-9, 1e-6, 1e-3):
                step = centre + band * rng.uniform(0.1, 1.0, 32) * rng.choice([-1.0, 1.0], 32)
                w = step / GEOM.kd
                got = coherent_gain_values(w, n_ris, GEOM.spacing_d, GEOM.wavelength)
                want = extended_element_sum(GEOM.kd * w, n_ris)
                assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), (centre, band)
                if geom is None:
                    continue
                slope = rng.uniform(0, 2 * np.pi, 32)
                u = (slope - step) / geom.kd
                got = _geometric_sum(slope - geom.kd * u, n_ris)
                want = extended_element_sum(slope - geom.kd * u, n_ris)
                assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), (centre, band)
        # whole turns are degenerate steps: exactly N
        turns = np.array([0.0, 2 * np.pi, -2 * np.pi, 4 * np.pi]) / GEOM.kd
        got = coherent_gain_values(turns, n_ris, GEOM.spacing_d, GEOM.wavelength)
        assert np.all(got == n_ris + 0j)


def fmod_dirichlet(mu, n_ris: int):
    """_dirichlet with its np.fmod turn-parity fix-up, kept as its bit-level oracle."""
    mu = np.asarray(mu, dtype=float)
    turns = np.rint(mu / TWO_PI)
    half = 0.5 * mu - np.pi * turns
    den = np.sin(half)
    d = np.sin(n_ris * half)
    degenerate = np.abs(den) < 0.5e-12
    if degenerate.any():
        d = np.where(degenerate, float(n_ris), d / (den + degenerate))
    else:
        d = d / den
    if n_ris % 2 == 0 and turns.any():
        d = np.where(np.fmod(turns, 2.0) != 0.0, -d, d)
    return d, degenerate


class TestDirichletParity:
    @pytest.mark.parametrize("n_ris", [2, 7, 64, 100])
    def test_equals_fmod_parity_bit_for_bit(self, n_ris):
        rng = np.random.default_rng(100 + n_ris)
        turns = np.concatenate([np.arange(-8.0, 9.0), rng.integers(-10**6, 10**6, 256),
                                [-1e6, -1e6 + 1, 1e6 - 1, 1e6]])
        for offset in (rng.uniform(-np.pi, np.pi, turns.size), np.zeros(turns.size),
                       rng.uniform(-1e-9, 1e-9, turns.size)):
            mu = turns * TWO_PI + offset
            d, degenerate = _dirichlet(mu, n_ris)
            want_d, want_degenerate = fmod_dirichlet(mu, n_ris)
            assert np.array_equal(d, want_d)
            assert np.array_equal(np.signbit(d), np.signbit(want_d))
            assert np.array_equal(degenerate, want_degenerate)


class TestGeometricSum:
    # random steps over the whole range; TestKernelAccuracy covers the steps
    # next to whole turns, and degenerate steps return N + 0j exactly
    def test_matches_explicit_element_sum(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            slope = rng.uniform(0, 2 * np.pi)
            u = rng.uniform(-2, 2, size=16)
            got = _geometric_sum(slope - GEOM.kd * u, GEOM.n_ris)
            want = brute_force_gain(slope - GEOM.kd * u, GEOM.n_ris)
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
        for th2_deg in (20.0, 45.0, 70.0, -37.0):
            theta2 = np.deg2rad(th2_deg)
            aligned = optimal_config(GEOM.theta1, theta2, GEOM)
            u = np.sin(GEOM.theta1) - np.sin(theta2)
            step = aligned - GEOM.kd * np.array([u])
            assert _geometric_sum(step, GEOM.n_ris)[0] == GEOM.n_ris + 0j

