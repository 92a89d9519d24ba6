"""Differential equations satisfied by the derivative numerators."""

import mpmath
import pytest

from voroderiv.errors import CoefficientOverflow
from voroderiv.odecheck import (AtPole, PowerSumFunction,
                                d2_numerator_residual, powersum_residual)


def test_two_pole_residual_vanishes():
    # corrected coefficient weights: the residual is identically zero
    for n in (1, 2, 5, 12):
        for z in (0.3 + 0.2j, -1.5, 2.0j):
            r = d2_numerator_residual(1.0, -1.0, n, z)
            assert abs(r) < 1e-12


def test_two_pole_residual_complex_poles():
    r = d2_numerator_residual(0.5 + 0.5j, -1.0 + 0.2j, 7, 0.1 - 0.9j)
    assert abs(r) < 1e-12


def test_printed_variant_leaves_witness():
    # the miscopied second-derivative weight gives a nonzero remainder;
    # for poles +-1 at n = 1 the witness polynomial is -(2/3) z^2 + 2/3,
    # so at z = 1/2 it equals 1/2
    r = d2_numerator_residual(1.0, -1.0, 1, 0.5, printed=True,
                              relative=False)
    assert r == pytest.approx(0.5)
    assert abs(d2_numerator_residual(1.0, -1.0, 1, 1.0, printed=True,
                                     relative=False)) < 1e-14


def test_printed_variant_nonzero_generically():
    vals = [abs(d2_numerator_residual(1.0, -1.0, n, 0.37, printed=True))
            for n in (1, 2, 3)]
    assert min(vals) > 1e-6


def test_n_below_one_rejected():
    with pytest.raises(ValueError):
        d2_numerator_residual(1.0, -1.0, 0, 0.5)


def test_powersum_derivative_at_matches_finite_differences():
    f = PowerSumFunction(1.5, (1.0, -1.0, 1.0j), (1.0, 2.0, 0.5 - 0.5j))
    z = 0.4 + 0.8j
    h = 1e-6
    fd = (f.derivative_at(0, z + h) - f.derivative_at(0, z - h)) / (2.0 * h)
    assert abs(f.derivative_at(1, z) - fd) < 1e-7 * abs(fd)


def test_powersum_derivative_at_high_order():
    # (s)_n and (z - z_j)^(-s-n) each overflow a double at n = 200 though
    # their product fits; past the double range the value raises
    f = PowerSumFunction(1, (1.0, -1.0, 1.0j), (1.0, 1.0, 1.0))
    with mpmath.workdps(30):
        exact = complex(mpmath.rf(1, 200) * sum((5 - mpmath.mpc(p)) ** -201 for p in f.poles))
    assert abs(f.derivative_at(200, 5.0) - exact) < 1e-12 * abs(exact)
    for z in (40.0, 0.3 + 0.7j):
        with pytest.raises(CoefficientOverflow, match="n=1000"):
            f.derivative_at(1000, z)


def test_powersum_residual_vanishes():
    f = PowerSumFunction(1.5, (1.0, -1.0, 1.0j), (1.0, 2.0, 0.5 - 0.5j))
    for n in (0, 1, 4):
        for z in (0.4 + 0.8j, -2.0, 1.0 - 1.0j):
            assert abs(powersum_residual(f, n, z)) < 1e-10


def test_powersum_residual_integer_exponent():
    # s = 1 reduces to a plain rational function; the identity still holds
    f = PowerSumFunction(1.0, (2.0, -0.5j), (1.0, 1.0))
    assert abs(powersum_residual(f, 3, 0.7 + 0.1j)) < 1e-11


def test_at_pole_guard():
    f = PowerSumFunction(1.5, (1.0, -1.0), (1.0, 1.0))
    with pytest.raises(AtPole):
        powersum_residual(f, 2, 1.0)


def test_derivative_at_pole_raises_at_pole():
    # the log-space powers would take log 0 there
    f = PowerSumFunction(1, (1.0, -1.0, 1.0j), (1.0, 1.0, 1.0))
    for z in (1.0, 1.0j):
        with pytest.raises(AtPole):
            f.derivative_at(3, z)


@pytest.mark.parametrize("n", [200, 1000, 10000])
def test_powersum_residual_at_high_order(n):
    # (s)_n and (z - z_j)^(-s-n) each overflow a double from n ~ 140 on;
    # the relative residual must not
    for f in (PowerSumFunction(1, (1.0, -1.0, 1.0j), (1.0, 1.0, 1.0)),
              PowerSumFunction(1.5, (1.0, -1.0, 1.0j), (1.0, 2.0, 0.5 - 0.5j))):
        for z in (0.3 + 0.7j, -2.0, 1.0 - 1.0j):
            assert abs(powersum_residual(f, n, z)) < 1e-12
