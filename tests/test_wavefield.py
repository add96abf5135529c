import math

import numpy as np
import pytest

from ristrack import (
    LinkGeometry,
    steering_vector,
    wrap_principal,
    wrap_two_pi,
)


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


class TestLinkGeometry:
    def test_default_spacing_is_half_wavelength(self):
        geom = LinkGeometry(wavelength=0.01)
        assert geom.spacing_d == pytest.approx(0.005)

    def test_beamformer_gain(self):
        geom = LinkGeometry(n_tx=16, snr_linear=10.0)
        assert geom.beamformer_gain == pytest.approx(math.sqrt(160.0))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            LinkGeometry(n_tx=0)
        with pytest.raises(ValueError):
            LinkGeometry(r1=0.0)
        with pytest.raises(ValueError):
            LinkGeometry(theta1=np.pi / 2)
        with pytest.raises(ValueError):
            LinkGeometry(wavelength=-0.005)
