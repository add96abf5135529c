"""The ledger's numpy cell formatter against Python's own ``%.12g`` and ``%d``."""

import numpy as np
import pytest

from ristrack.ledger import _float_words, _int_words


def kernel_text(values):
    words = _float_words(np.asarray(values, dtype=float))
    cells = words.tobytes().translate(None, b"\0").split(b",")
    assert cells[0] == b""  # every cell starts with its comma
    return cells[1:]


def python_text(values):
    return [b"%.12g" % x for x in np.asarray(values, dtype=float).tolist()]


def assert_same_text(values):
    values = np.asarray(values, dtype=float)
    got, want = kernel_text(values), python_text(values)
    assert len(got) == len(want)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, wrong[:10]


def test_named_values():
    # stripping integer zeros, or carrying an 11-digit mantissa to 12 digits,
    # prints b"1" and b"0.0001" for the first two
    assert kernel_text([100.0, 9.999999999995e-05, 999999999999.5, 203369596980.0]) == [
        b"100", b"9.99999999999e-05", b"1e+12", b"203369596980"]


def test_half_unit_ties():
    rng = np.random.default_rng(11)
    k = rng.integers(0, 10**12, 20000)
    ties = (k + 0.5) * 10.0 ** rng.integers(-18, 2, k.size)
    assert_same_text(np.concatenate((ties, -ties)))


def test_powers_of_ten_and_their_neighbours():
    p = 10.0 ** np.arange(-30, 31)
    values = np.concatenate((p, np.nextafter(p, 0), np.nextafter(p, np.inf), p * (1 - 5e-13)))
    assert_same_text(np.concatenate((values, -values)))


def test_integers_ending_in_zeros():
    rng = np.random.default_rng(12)
    mantissa = rng.integers(1, 10**6, 5000)
    values = mantissa * 10.0 ** rng.integers(0, 12, mantissa.size)
    assert_same_text(np.concatenate(([100.0, 1e11, 1.2e11, 203369596980.0], values)))


def test_rounded_decimals():
    rng = np.random.default_rng(13)
    digits = rng.integers(0, 12, 20000)
    assert_same_text(np.rint(rng.uniform(0, 1000, digits.size) * 10.0**digits) / 10.0**digits)


def test_special_values():
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny / 3, tiny,
              np.finfo(float).max, -np.finfo(float).max, 1e-4, 1e-5, 1e12, 1e13]
    assert_same_text(values)
    assert kernel_text([0.0, -0.0])[:2] == [b"0", b"-0"]


@pytest.mark.parametrize("decades", [30, 300])
def test_log_uniform_magnitudes(decades):
    rng = np.random.default_rng(decades)
    values = 10.0 ** rng.uniform(-decades, decades, 100000) * rng.choice([-1, 1], 100000)
    assert_same_text(values)


def test_integers():
    values = np.array([0, 1, 9, 10, 9999, 10000, 10**4 + 1, 10**8 - 1, 10**8, 10**8 + 1,
                       123456789012, 10**12 - 1, -1, -10**4, -(10**12 - 1)])
    text = _int_words(values).tobytes().translate(None, b"\0").split(b",")[1:]
    assert text == [b"%d" % x for x in values.tolist()]
