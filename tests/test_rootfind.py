"""Simultaneous root finding and bounds."""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from voroderiv import _poly, rootfind
from voroderiv.rootfind import (NoConvergence, ZeroPolynomial, fujiwara_bound,
                                solve)


def multiset_distance(found, expected):
    found = np.asarray(found, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    cost = np.abs(found[:, None] - expected[None, :])
    ri, ci = linear_sum_assignment(cost)
    return cost[ri, ci].max()


def test_cube_roots_of_unity():
    rs = solve([-1.0, 0.0, 0.0, 1.0])
    expected = [np.exp(2j * math.pi * k / 3) for k in range(3)]
    assert rs.converged.all()
    assert multiset_distance(rs.roots, expected) < 1e-12


def test_repeated_root_bound():
    # z^3: a triple root is resolved to about tol^(1/3)
    rs = solve([0.0, 0.0, 0.0, 1.0], tolerance=1e-12)
    assert np.abs(rs.roots).max() < 1e-3


def test_fujiwara_frozen_examples():
    assert fujiwara_bound([1.0, 0.0, 1.0]) == pytest.approx(2.0)
    assert fujiwara_bound([-4.0, 0.0, 1.0]) == pytest.approx(4.0)


def test_degree_below_one_rejected():
    with pytest.raises(ZeroPolynomial):
        solve([0.0])
    with pytest.raises(ZeroPolynomial):
        solve([3.0])


@pytest.mark.parametrize("coeffs", [[math.nan, 1.0], [1.0, math.inf, 1.0]])
def test_non_finite_coefficients_rejected(coeffs):
    # a NaN must not read as a zero coefficient and yield roots at 0
    with pytest.raises(ValueError):
        solve(coeffs)
    with pytest.raises(ValueError):
        solve(_poly.asarray(coeffs, _poly.EXTENDED))


def test_reconstruction_invariant_degree_200():
    # random degree-200 polynomial: rebuild from the computed roots and
    # compare coefficients relatively; the expansion itself is done in
    # extended precision so the check measures root accuracy only
    import mpmath
    rng = np.random.default_rng(7)
    p = rng.normal(size=201) + 1j * rng.normal(size=201)
    rs = solve(list(p), tolerance=1e-13)
    assert rs.converged.all()
    with mpmath.workdps(60):
        rebuilt = [mpmath.mpc(p[-1])]
        for r in rs.roots:
            rr = mpmath.mpc(r)
            new = [mpmath.mpc(0)] * (len(rebuilt) + 1)
            for k, c in enumerate(rebuilt):
                new[k] += -rr * c
                new[k + 1] += c
            rebuilt = new
    rel = max(abs(complex(c) - pc) for c, pc in zip(rebuilt, p))
    assert rel / np.abs(p).max() < 1e-6


def test_cotangent_expansion_roots():
    # numerator of the 30th derivative of 1/(z^2+1) has the 30 roots
    # cot(k pi / 31), k = 1..30
    from voroderiv import rational
    form = rational.polar_decompose([1.0], [(1j, 1), (-1j, 1)])
    res = rational.numerator(rational.derivative_state(form, 30))
    assert res.degree == 30
    rs = solve(res.r_n, tolerance=1e-13)
    expected = [1.0 / math.tan(k * math.pi / 31) for k in range(1, 31)]
    assert multiset_distance(rs.roots, expected) < 5e-13


def test_no_convergence_carries_partial_rootset():
    rng = np.random.default_rng(3)
    p = list(rng.normal(size=40))
    with pytest.raises(NoConvergence) as e:
        solve(p, tolerance=1e-15, max_sweeps=1)
    rs = e.value.rootset
    assert len(rs.roots) == 39
    assert not rs.converged.all()


def test_extended_precision_path():
    rs = solve([-1.0, 0.0, 0.0, 1.0], tolerance=1e-20, precision="extended")
    r = sorted(rs.roots, key=lambda w: (round(float(w.real), 6),
                                        float(w.imag)))
    assert abs(complex(r[-1]) - 1.0) < 1e-20
    assert rs.converged.all()


def test_custom_start_points_used():
    # start exactly at the roots of z^2 - 4: converges immediately
    rs = solve([-4.0, 0.0, 1.0], start=np.array([2.0 + 0j, -2.0 + 0j]))
    assert multiset_distance(rs.roots, [2.0, -2.0]) < 1e-14


def test_evaluator_hook_consistent_with_coefficients():
    # an evaluator computing the same polynomial must give the same roots
    p = [-6.0, 11.0, -6.0, 1.0]  # (z-1)(z-2)(z-3)

    def ev(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        v = ((z - 1.0) * (z - 2.0) * (z - 3.0))
        d = ((z - 2.0) * (z - 3.0) + (z - 1.0) * (z - 3.0)
             + (z - 1.0) * (z - 2.0))
        return v, d

    rs = solve(p, evaluator=ev)
    assert multiset_distance(rs.roots, [1.0, 2.0, 3.0]) < 1e-10


def test_residuals_reported():
    rs = solve([-1.0, 0.0, 1.0])
    assert np.all(rs.residuals < 1e-12)
    assert len(rs.converged_roots()) == 2
