"""Polynomial helper routines, double and extended backends."""

import numpy as np
import pytest

from voroderiv import _poly
from voroderiv._poly import DOUBLE, EXTENDED


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED])
def test_trim_drops_only_exact_zeros(precision):
    # a top coefficient 1e-300 times the largest is kept, not cut as noise
    t = _poly.trim(_poly.asarray([1.0, 2.0, 1e-300, 0.0, 0.0], precision))
    assert _poly.degree(t) == 2
    assert t[2] == _poly.scalar(1e-300, precision)
    assert _poly.degree(_poly.trim(_poly.asarray([0.0, 1.0, 0.0], precision))) == 1


def test_trim_keeps_exact_zero_polynomial_as_length_one():
    t = _poly.trim(_poly.asarray([0.0, 0.0], DOUBLE))
    assert len(t) == 1


def test_polymul_small_case():
    a = _poly.asarray([1.0, 1.0], DOUBLE)       # 1 + z
    b = _poly.asarray([-1.0, 1.0], DOUBLE)      # -1 + z
    c = np.convolve(a, b)
    assert np.allclose(np.asarray(c, dtype=complex), [-1.0, 0.0, 1.0])


def test_polypow_matches_repeated_mul():
    base = _poly.asarray([2.0, -1.0, 1.0], DOUBLE)
    direct = _poly.asarray([1.0], DOUBLE)
    for _ in range(5):
        direct = np.convolve(direct, base)
    fast = _poly.polypow(base, 5)
    assert np.allclose(np.asarray(fast, dtype=complex),
                       np.asarray(direct, dtype=complex))


def test_polyval_horner_on_array():
    p = _poly.asarray([1.0, 0.0, 1.0], DOUBLE)  # 1 + z^2
    z = np.array([1.0 + 0j, 2j])
    v = _poly.polyval(p, z)
    assert np.allclose(v, [2.0, -3.0])
    # rows 1 + z^2 and 2 - z stacked as (powers, rows, 1): one row per output row
    rows = np.array([[1.0, 2.0], [0.0, -1.0], [1.0, 0.0]], dtype=complex)[:, :, None]
    assert np.allclose(_poly.polyval(rows, z), [[2.0, -3.0], [1.0, 2.0 - 2j]])


def test_polyder():
    p = _poly.asarray([5.0, 3.0, 1.0], DOUBLE)
    dp = _poly.polyder(p)
    assert np.allclose(np.asarray(dp, dtype=complex), [3.0, 2.0])


def test_taylor_shift_recenters():
    # p(z) = z^2 shifted to center 1: (w+1)^2 = 1 + 2w + w^2
    p = _poly.asarray([0.0, 0.0, 1.0], DOUBLE)
    q = _poly.taylor_shift(p, 1.0)
    assert np.allclose(np.asarray(q, dtype=complex), [1.0, 2.0, 1.0])


def test_taylor_shift_roundtrip_random():
    rng = np.random.default_rng(2)
    p = _poly.asarray(rng.normal(size=7) + 1j * rng.normal(size=7), DOUBLE)
    c = 0.3 - 0.8j
    back = _poly.taylor_shift(_poly.taylor_shift(p, c), -c)
    assert np.allclose(np.asarray(back, dtype=complex),
                       np.asarray(p, dtype=complex), atol=1e-12)


def test_series_inverse():
    # 1/(1 - z) = 1 + z + z^2 + ...
    p = _poly.asarray([1.0, -1.0], DOUBLE)
    inv = _poly.series_inverse(p, 5)
    assert np.allclose(np.asarray(inv, dtype=complex), np.ones(5))


def test_polydivmod():
    # (z^2 - 1) / (z - 1) = z + 1 rem 0
    num = _poly.asarray([-1.0, 0.0, 1.0], DOUBLE)
    den = _poly.asarray([-1.0, 1.0], DOUBLE)
    q, r = _poly.polydivmod(num, den)
    assert np.allclose(np.asarray(q, dtype=complex), [1.0, 1.0])
    assert np.abs(r).max() <= 1e-14


def test_extended_backend_roundtrip():
    import mpmath
    p = _poly.asarray([1.0, 2.0], EXTENDED)
    assert p.dtype == object
    v = _poly.polyval(p, _poly.scalar(0.5, EXTENDED))
    assert abs(complex(v) - 2.0) < 1e-30


def test_extended_polymul_matches_double():
    a = [1.0 + 1j, -0.5, 2.0]
    b = [0.25, 1.0 - 1j]
    cd = np.convolve(_poly.asarray(a, DOUBLE), _poly.asarray(b, DOUBLE))
    ce = np.convolve(_poly.asarray(a, EXTENDED), _poly.asarray(b, EXTENDED))
    assert np.allclose(np.asarray(cd, dtype=complex),
                       np.array([complex(c) for c in ce]))


def test_precision_of():
    assert _poly.precision_of(_poly.asarray([1.0], DOUBLE)) == DOUBLE
    assert _poly.precision_of(_poly.asarray([1.0], EXTENDED)) == EXTENDED
