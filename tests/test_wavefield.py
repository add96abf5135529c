import math
import warnings

import numpy as np
import pytest

from ristrack import (
    LinkGeometry,
    steering_vector,
    wrap_principal,
    wrap_two_pi,
)
from ristrack.wavefield import PHASE_SNAP, TWO_PI


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        v = steering_vector(0.0, 4, 0.0025, 0.005)
        assert np.allclose(v, np.ones(4), atol=1e-15)

    def test_thirty_degrees_half_wavelength(self):
        # sin(30 deg) = 1/2 forces a -pi/2 phase step at d = lambda/2
        v = steering_vector(np.pi / 6, 2, 0.0025, 0.005)
        assert v[0] == 1.0 + 0.0j
        assert abs(v[1] - (-1j)) < 1e-12

    def test_self_inner_product_equals_count(self):
        v = steering_vector(np.pi / 4, 64, 0.0025, 0.005)
        # independent oracle: explicit accumulation loop
        acc = 0.0j
        for k in range(64):
            acc += np.conj(v[k]) * v[k]
        assert abs(acc - 64.0) < 1e-10 * 64.0

    def test_unit_magnitude_and_leading_one(self):
        rng = np.random.default_rng(7)
        for angle in rng.uniform(-1.5, 1.5, size=20):
            v = steering_vector(angle, 33, 0.0025, 0.005)
            assert v[0] == 1.0 + 0.0j
            assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            steering_vector(0.1, 0, 0.0025, 0.005)
        with pytest.raises(ValueError):
            steering_vector(0.1, 4, -1.0, 0.005)
        with pytest.raises(ValueError):
            steering_vector(0.1, 4, 0.0025, 0.0)


class TestWrapping:
    def test_wrap_two_pi_range_and_snap(self):
        vals = wrap_two_pi(np.array([-1e-15, 2 * np.pi - 1e-15, 2 * np.pi, 7.0, -7.0]))
        assert vals[0] == 0.0
        assert vals[1] == 0.0
        assert vals[2] == 0.0
        assert np.all((vals >= 0) & (vals < 2 * np.pi))

    def test_wrap_principal_half_open(self):
        assert wrap_principal(np.pi) == pytest.approx(np.pi)
        assert wrap_principal(-np.pi) == pytest.approx(np.pi)
        assert wrap_principal(3 * np.pi) == pytest.approx(np.pi)
        x = np.linspace(-10, 10, 1001)
        w = wrap_principal(x)
        assert np.all((w > -np.pi) & (w <= np.pi))
        assert np.allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)


def mod_wrap_principal(x):
    """The np.mod form of wrap_principal, kept as its bit-level oracle."""
    out = -(np.mod(-np.asarray(x, dtype=float) + np.pi, TWO_PI) - np.pi)
    return float(out) if out.ndim == 0 else out


def mod_wrap_two_pi(phases):
    """The np.mod form of wrap_two_pi, kept as its bit-level oracle."""
    out = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    out = np.where((out < PHASE_SNAP) | (out > TWO_PI - PHASE_SNAP), 0.0, out)
    return float(out) if out.ndim == 0 else out


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def ulp_neighbourhoods(radius=40, ks=range(-8, 9)):
    """k*pi for k in `ks`, each with its `radius` neighbouring doubles on either side."""
    out = []
    for k in ks:
        below = above = k * np.pi
        row = [below]
        for _ in range(radius):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            row += [below, above]
        out.append(row)
    return np.array(out)


SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e300,
                    TWO_PI, -TWO_PI, 2 * TWO_PI, -2 * TWO_PI, 3 * TWO_PI, 5e-324, -5e-324])


def seam_values():
    """+-0 and each seam of the wraps with one double either side.

    The seams are k*TWO_PI for the reduction itself and pi + k*TWO_PI, where
    wrap_principal reduces -x + pi across a whole turn.
    """
    out = [0.0, -0.0]
    for k in range(-3, 4):
        for seam in (k * TWO_PI, math.pi + k * TWO_PI):
            out += [np.nextafter(seam, -np.inf), seam, np.nextafter(seam, np.inf)]
    return np.array(out)


class TestWrapBits:
    # the wraps must equal the np.mod forms bit for bit, values and signs
    CASES = {
        "inside": np.random.default_rng(1).uniform(-3 * np.pi, 5 * np.pi, (101, 105)),
        "principal_inside": np.random.default_rng(2).uniform(-5 * np.pi, 3 * np.pi, 4096),
        "outside": np.random.default_rng(3).uniform(-40.0, 40.0, 4096),
        # past two turns of zero on one side only
        "past_upper": np.random.default_rng(5).uniform(-1.0, 8 * np.pi, 4096),
        "past_lower": np.random.default_rng(6).uniform(-6 * np.pi, 1.0, 4096),
        "ulps": ulp_neighbourhoods(),
        # k*pi neighbourhoods within two turns of zero
        "ulps_inside": ulp_neighbourhoods(ks=range(-3, 5)),
        "special": SPECIAL,
        # -0 must come out +0
        "zeros_and_turns": np.array([0.0, -0.0, TWO_PI, -TWO_PI, 2 * TWO_PI, -2 * TWO_PI,
                                     np.pi, -np.pi, 5e-324, -5e-324]),
        "empty": np.zeros((0, 3)),
        "seams": seam_values(),
        "seams_and_non_finite": np.concatenate([[40.0, -1e300, np.inf, np.nan], seam_values()]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("wrap,oracle", [(wrap_principal, mod_wrap_principal),
                                             (wrap_two_pi, mod_wrap_two_pi)])
    def test_arrays_equal_mod_form(self, case, wrap, oracle):
        x = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # np.mod of inf
            want = oracle(x)
            got = wrap(x)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("wrap,oracle", [(wrap_principal, mod_wrap_principal),
                                             (wrap_two_pi, mod_wrap_two_pi)])
    def test_scalars_equal_mod_form_and_stay_float(self, wrap, oracle):
        values = np.concatenate([ulp_neighbourhoods(8).ravel(), SPECIAL,
                                 np.random.default_rng(4).uniform(-30.0, 30.0, 64)])
        for v in values.tolist():
            for x in (v, np.float64(v), np.array(v)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # np.mod of inf
                    want = oracle(v)
                    got = wrap(x)
                assert type(got) is float, type(x)
                assert_same_bits(got, want)


class TestLinkGeometry:
    def test_default_spacing_is_half_wavelength(self):
        geom = LinkGeometry(wavelength=0.01)
        assert geom.spacing_d == pytest.approx(0.005)

    def test_beamformer_gain(self):
        geom = LinkGeometry(n_tx=16, snr_linear=10.0)
        assert geom.beamformer_gain == pytest.approx(math.sqrt(160.0))

    @pytest.mark.parametrize("alpha", [0, 0j, -0.0, complex(-0.0, -0.0)])
    def test_zero_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be nonzero"):
            LinkGeometry(alpha=alpha)
        assert LinkGeometry(alpha=1e-3j).alpha == 1e-3j

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            LinkGeometry(n_tx=0)
        with pytest.raises(ValueError, match="n_ris must be >= 2"):
            LinkGeometry(n_ris=1)
        assert LinkGeometry(n_ris=2).n_ris == 2
        with pytest.raises(ValueError):
            LinkGeometry(r1=0.0)
        with pytest.raises(ValueError):
            LinkGeometry(theta1=np.pi / 2)
        with pytest.raises(ValueError):
            LinkGeometry(wavelength=-0.005)
