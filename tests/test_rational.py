"""Polar form derivatives, numerators, and the structural evaluator."""

import cmath
import itertools
import math
from math import comb

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from voroderiv import _poly, asympt, measure, rational, rootfind, voronoi
from families import multi_pole_draws, single_pole_draws
from voroderiv.errors import CoefficientOverflow, NoConvergence, ZeroPolynomial
from voroderiv.rational import (DegreeCollapse, DuplicatePole, derivative_state,
                                newton_evaluator, numerator, polar_decompose, polar_form)


MIXED = dict(orders=(1, 2, 3), coeffs=((1.0,), (0.5, 2.0), (1.0, 0.3j, 1.0 + 1j)))


def multiset_distance(found, expected):
    cost = np.abs(np.asarray(found)[:, None] - np.asarray(expected)[None, :])
    ri, ci = linear_sum_assignment(cost)
    return cost[ri, ci].max()


def test_polar_form_evaluates_like_the_quotient():
    # 1/(z-1) + 2/(z+1)^2 against the assembled quotient
    form = polar_form([1.0, -1.0], [1, 2], [[1.0], [0.0, 2.0]])
    z = np.array([0.5j, 2.0 + 1.0j, -3.0])
    expect = 1.0 / (z - 1.0) + 2.0 / (z + 1.0) ** 2
    assert np.allclose(form.evaluate(z), expect)


def test_duplicate_pole_rejected():
    with pytest.raises(DuplicatePole, match="poles 0 and 1 coincide"):
        polar_form([1.0, 1.0 + 1e-18], [1, 1], [[1.0], [1.0]])
    # polar_decompose checks before its Taylor shifts divide by z_i - z_l
    with pytest.raises(DuplicatePole, match="poles 1 and 2 coincide"):
        polar_decompose([1.0], [(0.0, 1), (1.0, 2), (1.0 + 1e-18, 1)])


def test_polar_decompose_recovers_simple_fractions():
    # 1/(z^2+1) = (i/2)/(z+i) - (i/2)/(z-i)
    form = polar_decompose([1.0], [(1j, 1), (-1j, 1)])
    z = np.array([0.3 + 0.1j, 2.0, -1.5j + 0.2])
    assert np.allclose(form.evaluate(z), 1.0 / (z * z + 1.0))


def test_polar_decompose_extended_runs_at_extended_precision():
    # 1/((z - a)^2 (z - b)^2) has the residue -2/(a - b)^3 at a; the
    # poles are the doubles nearest 1/3 and 1/7
    a, b = 1.0 / 3.0, 1.0 / 7.0
    form = polar_decompose([1.0], [(a, 2), (b, 2)], precision="extended")
    with mpmath.workdps(60):
        exact = -2 / (mpmath.mpf(a) - mpmath.mpf(b)) ** 3
        assert abs(form.coeffs[0][0] - exact) <= 1e-35 * abs(exact)


@pytest.mark.parametrize("precision, order", [("double", 11), ("extended", 50)])
def test_polar_decompose_accepts_a_high_order_pole(precision, order):
    # 1/(z - z0)^r is its own decomposition; the recombination check
    # once evaluated (z - z0)^r expanded, whose rounding near z0 failed it
    form = polar_decompose([1.0], [(0.8 + 0.1j, order)], precision=precision)
    assert [complex(c) for c in form.coeffs[0]] == [0.0] * (order - 1) + [1.0]
    assert not any(complex(c) for c in form.polynomial_part)


def test_polar_decompose_rounds_an_extended_decomposition():
    # draw 137 of the single-pole family: order 6, numerator degree 12.
    # Decomposed in double its coefficients were off by 1.2e-12 relative,
    # and the recombination check rejected it
    numer, poles = list(single_pole_draws())[137]
    form = polar_decompose(numer, poles)
    exact = polar_decompose(numer, poles, precision="extended")
    for got, want in ((form.coeffs[0], exact.coeffs[0]),
                      (form.polynomial_part, exact.polynomial_part)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a - complex(b)) <= 1e-15 * abs(complex(b))


def test_derivative_matches_finite_differences():
    form = polar_form([1.0, -1.0 + 0.5j], [1, 2],
                      [[2.0], [1.0 - 1.0j, 0.5]], polynomial_part=[0.25])
    st0 = derivative_state(form, 0)
    st1 = derivative_state(st0.base, st0.n + 1)
    z = 0.4 + 0.9j
    h = 1e-6
    fd = (form.evaluate(z + h) - form.evaluate(z - h)) / (2.0 * h)
    # scaled_coeffs hold the derivative divided by n!, so n=1 is the plain one
    assert abs(st1.evaluate(z) - fd) < 1e-8 * abs(fd)


def stepped_state(form, n):
    """Order-n scaled coefficients by stepping the recurrence from n = 0.

    c_{i,j,m+1} = -c_{i,j,m} (j+m)/(m+1) and pp_{m+1} = pp_m'/(m+1): the
    reference for derivative_state's closed form.
    """
    coeffs, pp = form.coeffs, form.polynomial_part
    with _poly.workprec():
        for m in range(n):
            coeffs = [[-c * (j + 1 + m) / (m + 1) for j, c in enumerate(cs)] for cs in coeffs]
            pp = _poly.polyder(pp) / (m + 1)
    return coeffs, pp


@pytest.mark.parametrize("precision, rel", [("double", 1e-13), ("extended", 1e-35)])
def test_closed_form_matches_the_recurrence(precision, rel):
    # orders 1, 2, 3 and a cubic polynomial part, so n = 4 is past deg pp
    form = polar_form([0.0, 1.0, 1.0j], precision=precision,
                      polynomial_part=[0.3, -1.0, 0.5j, 2.0], **MIXED)
    for n in (0, 1, 2, 3, 4, 50, 1000):
        state = derivative_state(form, n)
        coeffs, pp = stepped_state(form, n)
        assert state.n == n and len(state.poly_part_scaled) == len(pp)
        pairs = list(zip(state.poly_part_scaled, pp))
        for got, want in zip(state.scaled_coeffs, coeffs):
            pairs += list(zip(got, want))
        for got, want in pairs:
            assert abs(got - want) <= rel * abs(want)


def test_leading_term_past_the_double_range():
    # Q = z^-300: alpha_2000/2000! = C(2299, 2000), about 1e385.  In
    # double precision it is infinite, never NaN; in extended it is exact
    coeffs = [[0.0] * 299 + [1.0]]
    _, alpha = rational.leading_term(derivative_state(polar_form([0.0], [300], coeffs), 2000))
    assert abs(alpha) == math.inf
    form = polar_form([0.0], [300], coeffs, precision="extended")
    _, alpha = rational.leading_term(derivative_state(form, 2000))
    with _poly.workprec():
        exact = mpmath.mpf(math.comb(2299, 2000))
        assert abs(alpha - exact) <= 1e-35 * exact


def test_second_derivative_by_richardson():
    form = polar_form([0.5j, -2.0], [1, 1], [[1.0], [3.0]])
    st = derivative_state(form, 2)
    z = 1.0 + 1.0j

    def d2(h):
        return (form.evaluate(z + h) - 2.0 * form.evaluate(z)
                + form.evaluate(z - h)) / h ** 2

    fd = (4.0 * d2(5e-4) - d2(1e-3)) / 3.0
    assert abs(st.evaluate(z) * 2.0 - fd) < 1e-6 * abs(fd)


def test_numerator_frozen_small_cases():
    # Q = 1/(z^2+1) in polar form; numerators of the first derivatives,
    # monic, checked against hand computation:
    #   Q'   has numerator z (alpha_1/1! = -2)
    #   Q''  has numerator z^2 - 1/3 (alpha_2/2! = 3)
    #   Q''' has numerator z^3 - z (alpha_3/3! = -4)
    form = polar_decompose([1.0], [(1j, 1), (-1j, 1)])
    frozen = {
        1: ([0.0, 1.0], -2.0),
        2: ([-1.0 / 3.0, 0.0, 1.0], 3.0),
        3: ([0.0, -1.0, 0.0, 1.0], -4.0),
    }
    for res in (numerator(derivative_state(form, n)) for n in (1, 2, 3)):
        coeffs, alpha = frozen[res.n]
        assert res.degree == len(coeffs) - 1
        assert np.allclose(np.asarray(res.r_n, dtype=complex), coeffs,
                           atol=1e-12)
        assert abs(complex(res.alpha_over_factorial) - alpha) < 1e-12


def test_numerator_degree_generic_simple_poles():
    # three simple poles with generic coefficients: degree (d-1)(n+1)
    form = polar_form([0.0, 1.0, 1.0j], [1, 1, 1], [[1.0], [2.0], [1.0 + 1j]])
    for n in (1, 2, 5, 9):
        res = numerator(derivative_state(form, n))
        assert res.degree == 2 * (n + 1)


def test_numerator_cancelling_instance_degree_n():
    # 1/(z^2-1): leading terms cancel, m_n = n exactly
    form = polar_decompose([1.0], [(1.0, 1), (-1.0, 1)])
    for n in (1, 3, 8, 15):
        res = numerator(derivative_state(form, n))
        assert res.degree == n


def test_degree_collapse_raised_for_absurd_floor(monkeypatch):
    # a floor above every summed magnitude zeroes all of R'
    monkeypatch.setattr(_poly, "DEGREE_FLOOR", {_poly.DOUBLE: 10.0, _poly.EXTENDED: 10.0})
    form = polar_decompose([1.0], [(1.0, 1), (-1.0, 1)])
    with pytest.raises(DegreeCollapse):
        numerator(derivative_state(form, 4))


def expansion_lead(state):
    """(degree, top coefficient) of the dense order-n expansion itself.

    Sums the numerator's terms at order n, not at order 0 as
    leading_term does, and drops top slots that are at most 1e-9 (1e-30
    in extended precision) of the magnitudes summed into them.
    """
    precision = state.base.precision
    terms = list(rational._model(state).terms(None))
    width = max(len(t) for t in terms)
    total, mags = _poly.zeros(width, precision), np.zeros(width)
    with _poly.workprec():
        for t in terms:
            total[: len(t)] += t
            mags[: len(t)] += [float(abs(c)) for c in t]
    floor = 1e-9 if precision == _poly.DOUBLE else 1e-30
    top = width - 1
    while abs(total[top]) <= floor * mags[top]:
        top -= 1
    return top, total[top]


CANCELLING = dict(poles=[1.0, -1.0], orders=[1, 1], coeffs=[[0.5], [-0.5]])
WITH_PP = dict(poles=[0.0, 1.0, 1.0j], orders=[1, 2, 1],
               coeffs=[[1.0], [0.5, 2.0], [1.0 + 1j]], polynomial_part=[0.3, -1.0, 0.5j])


@pytest.mark.parametrize("spec, precision, orders", [
    (dict(poles=[0.0, 1.0, 1.0j], orders=[1, 1, 1], coeffs=[[1.0], [2.0], [1.0 + 1j]]),
     "double", (0, 1, 5, 9)),
    (dict(poles=[np.exp(2j * np.pi * k / 3) for k in range(3)], **MIXED),
     "double", (0, 2, 7)),
    (CANCELLING, "double", (1, 4, 10)),
    (CANCELLING, "extended", (1, 4, 10)),
    (WITH_PP, "double", (0, 1, 2, 3, 5)),  # deg pp = 2: n <= q, then n > q
])
def test_closed_form_matches_the_expansion(spec, precision, orders):
    form = polar_form(precision=precision, **spec)
    rel = 1e-12 if precision == "double" else 1e-30
    for n in orders:
        state = derivative_state(form, n)
        degree, alpha = rational.leading_term(state)
        top, lead = expansion_lead(state)
        assert degree == top
        assert abs(alpha - lead) <= rel * abs(lead)
        res = numerator(state)
        assert res.degree == degree and res.alpha_over_factorial == alpha
        assert abs(res.r_n[-1] - 1) < 1e-15  # monic


def test_numerator_raises_on_an_overflowing_expansion():
    # three unit-circle poles: R_1000's expansion is mostly NaN in double
    form = polar_form([np.exp(2j * np.pi * k / 3) for k in range(3)], [1, 1, 1],
                      [[1.0], [2.0], [1.0 + 1j]])
    with pytest.raises(CoefficientOverflow, match="order n=1000 overflowed"):
        numerator(derivative_state(form, 1000))


def eight_poles(scale):
    rng = np.random.default_rng(2)
    poles = scale * (rng.normal(size=8) + 1j * rng.normal(size=8))
    return polar_decompose([1.0], [(p, 1) for p in poles])


def test_zeros_take_the_closed_form_degree():
    # Q = 1/prod (z - z_i): deg R_100 = 7 n = 700.  The dense expansion's
    # slot 701 carried rounding above its floor here, so the degree read
    # from it was 701 and one root never converged
    form = eight_poles(0.7)
    assert numerator(derivative_state(form, 100)).degree == 700
    rs = rational.zeros(form, 100)
    assert len(rs) == 700 and rs.all_converged


def test_zeros_extended_run_on_the_structural_evaluator():
    # criterion 03's first draw (seed 4): order 40, degree 41, which the
    # coefficient solve at 40 digits did not converge
    rng = np.random.default_rng(4)
    a1, a2 = (rng.normal() + 1j * rng.normal() for _ in range(2))
    z1 = rng.normal() + 1j * rng.normal()
    z2 = z1 + (rng.normal() + 1j * rng.normal())
    assert abs(z2 - z1) >= 0.3
    n = int(rng.integers(2, 61))
    assert n == 41
    form = polar_form([z1, z2], [1, 1], [[a1], [a2]], precision="extended")
    rs = rational.zeros(form, n - 1)
    assert rs.roots.dtype == object and rs.all_converged
    oracle = asympt.twopole_zeros(a1, a2, z1, z2, n)
    assert len(rs) == len(oracle) == 41
    assert multiset_distance(rs.roots.astype(complex), oracle) < 1e-8


def test_extended_evaluator_matches_double():
    # the model evaluator on mpc object arrays against the complex path, d = 3
    # with a double pole and a polynomial part
    spec = dict(poles=[0.0, 1.0, 1.0j], orders=[1, 2, 1],
                coeffs=[[1.0], [0.5, 2.0], [1.0 + 1j]], polynomial_part=[0.3, -1.0])
    z = np.array([0.1 + 0.2j, -0.9j, 1.3, 0.3 + 1.2j, -2.0 + 1.5j])
    double = newton_evaluator(derivative_state(polar_form(**spec), 6))(z)
    with _poly.workprec():
        ext = newton_evaluator(derivative_state(polar_form(precision="extended", **spec), 6))(
            _poly.asarray(z, _poly.EXTENDED))
    for d, e in zip(double, ext):
        assert e.dtype == object
        assert np.abs(e.astype(complex) - d).max() <= 1e-13 * np.abs(d).max()


def test_zeros_of_a_constant_numerator_raise():
    # 1/(z^2 - 1) has R_0 = 1, and 1/(z - 1) has constant R_n at every n
    with pytest.raises(ZeroPolynomial):
        rational.zeros(polar_form(**CANCELLING), 0)
    with pytest.raises(ZeroPolynomial):
        rational.zeros(polar_form([1.0], [1], [[1.0]]), 3)


def test_degree_diagnostics_cancelling_instance():
    # 1/(z^2-1): degree drops to n, so deg/n is exactly 1 at every n,
    # and log|n!/alpha_n|/n stays finite
    form = polar_decompose([1.0], [(1.0, 1), (-1.0, 1)])
    results = [numerator(derivative_state(form, n)) for n in (1, 2, 3, 4)]
    diag = rational.degree_diagnostics(results)
    assert [row[0] for row in diag] == [1, 2, 3, 4]
    for n, deg_ratio, log_ratio in diag:
        assert deg_ratio == 1.0
        assert np.isfinite(log_ratio)


def test_numerator_single_pole_matches_finite_differences():
    # Q = (z+2)/(z-1)^3 has Q' = alpha_1 r_1 / (z-1)^4, checked against
    # finite differences of Q
    def f(z):
        return (z + 2.0) / (z - 1.0) ** 3

    res = numerator(derivative_state(polar_decompose([2.0, 1.0], [(1.0, 3)]), 1))
    z = 2.5 + 0.3j
    h = 1e-6
    fd = (f(z + h) - f(z - h)) / (2.0 * h)
    val = res.alpha_over_factorial * _poly.polyval(res.r_n, z) / (z - 1.0) ** 4
    assert abs(val - fd) < 1e-7 * abs(fd)


def test_newton_evaluator_agrees_with_horner():
    form = polar_form([0.0, 1.0, 1.0j], [1, 1, 1], [[1.0], [2.0], [1.0 + 1j]])
    st = derivative_state(form, 6)
    res = numerator(st)
    ev = newton_evaluator(st)
    z = np.array([0.4 + 0.2j, -0.9j, 1.3, 0.5 + 0.5j])
    pv, dv = ev(z)
    hv = _poly.polyval(res.r_n, z)
    hd = _poly.polyval(_poly.polyder(res.r_n), z)
    # the evaluator carries a per-point exponential scale, so compare the
    # logarithmic derivative N'/N which is scale free
    assert np.allclose(dv / pv, hd / hv, rtol=1e-9)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_numerator_and_evaluator_with_polynomial_part(n):
    # orders (1, 2, 1) and a quadratic polynomial part, which survives
    # the derivative for n <= 2 and is gone from n = 3 on
    form = polar_form([0.0, 1.0, 1.0j], [1, 2, 1],
                      [[1.0], [0.5, 2.0], [1.0 + 1j]],
                      polynomial_part=[0.3, -1.0, 0.5j])
    st = derivative_state(form, n)
    res = numerator(st)
    assert res.degree == (6 + 2 * n if n <= 2 else 2 * n + 3)
    # points in the cells, off the skeleton where Horner on r_n cancels
    z = np.array([0.1 + 0.2j, -0.9j, 1.3, 0.3 + 1.2j, -2.0 + 1.5j])
    p_p0n = z ** (1 + n) * (z - 1.0) ** (2 + n) * (z - 1.0j) ** (1 + n)
    value = res.alpha_over_factorial * _poly.polyval(res.r_n, z) / p_p0n
    assert np.allclose(value, st.evaluate(z), rtol=1e-12, atol=0.0)
    pv, dv = newton_evaluator(st)(z)
    hv = _poly.polyval(res.r_n, z)
    hd = _poly.polyval(_poly.polyder(res.r_n), z)
    assert np.allclose(dv / pv, hd / hv, rtol=1e-9)


def test_extended_precision_numerator_matches_double():
    # cancelling coefficients, degree n in both backends
    form_d = polar_form([1.0, -1.0], [1, 1], [[0.5], [-0.5]])
    form_e = polar_form([1.0, -1.0], [1, 1], [[0.5], [-0.5]],
                        precision="extended")
    rd = numerator(derivative_state(form_d, 6))
    re_ = numerator(derivative_state(form_e, 6))
    assert rd.degree == re_.degree == 6
    assert np.allclose(np.asarray(rd.r_n, dtype=complex),
                       np.array([complex(c) for c in re_.r_n]), atol=1e-10)


@pytest.mark.parametrize("n", [1, 4, 12])
def test_zeros_single_pole_matches_closed_form(n):
    # 1/(z-p) + 2/(z-p)^2 + (3+i)/(z-p)^3 = r(z-p)/(z-p)^3 with
    # r(w) = w^2 + 2w + 3 + i; its derivatives keep two zeros, those of
    # sum_j a_j (-1)^n C(j+n-1, n) w^(r-j) shifted by p
    p = 0.5 + 0.2j
    a = [1.0, 2.0, 3.0 + 1j]
    form = polar_form([p], [3], [a])
    closed = [a[j - 1] * (-1) ** n * comb(j + n - 1, n) for j in (3, 2, 1)]
    expected = np.sort_complex(np.roots(closed[::-1]) + p)
    rs = rational.zeros(form, n)
    assert rs.all_converged
    assert np.abs(np.sort_complex(rs.roots) - expected).max() < 1e-12


def cube_problem(n, orders=(1, 1, 1), coeffs=((1.0,), (2.0,), (1.0 + 1j,))):
    """Poles at the cube roots of unity: (state, diagram, degree of R_n)."""
    poles = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    form = polar_form(poles, orders, coeffs)
    state = derivative_state(form, n)
    return state, voronoi.build(poles), numerator(state).degree



def test_balance_starts_lie_on_the_zeros_away_from_the_vertex():
    # the two-term zeros are exponentially close to those of R_n
    state, diagram, degree = cube_problem(100)
    starts = rational.balance_starts(state, diagram, degree)
    roots = rational.zeros(state.base, 100).roots
    gap = np.abs(starts[:, None] - roots[None, :]).min(axis=1)
    assert np.median(gap) < 1e-12
    # the one vertex is at the origin; far out on the unbounded edges
    # the third pole is nearly as close as the two that balance
    interior = (np.abs(starts) > 0.2) & (np.abs(starts) < 4.0)
    assert interior.sum() > 0.7 * degree
    assert gap[interior].max() < 1e-12


def test_balance_starts_come_from_the_edges():
    # d=3, n=100: the edges give more two-term zeros than the degree, so
    # no start comes from the skeleton
    state, diagram, degree = cube_problem(100)
    starts = rational.balance_starts(state, diagram, degree)
    assert len(starts) == degree == 202
    candidates = np.concatenate([rational._edge_balance_zeros(state, *e.pair)
                                 for e in diagram.edges])
    assert np.abs(starts[:, None] - candidates[None, :]).min(axis=1).max() < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2])
def test_balance_starts_fill_a_polynomial_part_shortfall(n):
    # at n <= deg pp the polynomial part leads far out and the edges give
    # fewer two-term zeros than the degree: the skeleton fills the rest
    poles = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    form = polar_form(poles, (1, 1, 1), ((1.0,), (2.0,), (1.0 + 1j,)),
                      polynomial_part=[0.5, 1.0, 2.0, 1.0])
    state = derivative_state(form, n)
    degree, _ = rational.leading_term(state)
    diagram = voronoi.build(poles)
    found = sum(len(rational._edge_balance_zeros(state, *e.pair)) for e in diagram.edges)
    assert found == degree - 3 + n
    starts = rational.balance_starts(state, diagram, degree)
    assert len(starts) == len(np.unique(starts)) == degree
    rs = rational.zeros(form, n)
    assert rs.all_converged and len(rs) == degree


@pytest.mark.parametrize("n", [5, 100])
@pytest.mark.parametrize("poles, orders, coeffs, short", [
    ([1, -1], [3, 1], [[0.5, 0.1, 2.0], [1 - 1j]], 1),
    ([0.3j, 2.0], [1, 4], [[1.0], [0.2, 0.1, 0.3, 1 + 1j]], 2)])
def test_balance_starts_fill_an_unequal_orders_shortfall(poles, orders, coeffs, short, n):
    # two poles of unequal orders can give fewer two-term zeros than the
    # degree, with no polynomial part: the zeros missed lie far out, at
    # |z| of order n, and the skeleton fills their starts
    form = polar_form(poles, orders, coeffs)
    state = derivative_state(form, n)
    degree, _ = rational.leading_term(state)
    found = sum(len(rational._edge_balance_zeros(state, *e.pair)) for e in form.diagram.edges)
    assert found == degree - short
    starts = rational.balance_starts(state, form.diagram, degree)
    assert len(starts) == len(np.unique(starts)) == degree
    rs = rational.zeros(form, n)
    assert rs.all_converged and len(rs) == degree


def test_balance_starts_trim_a_surplus_nearest_the_vertex_first():
    state, diagram, degree = cube_problem(100)
    full = rational.balance_starts(state, diagram, degree)
    trimmed = rational.balance_starts(state, diagram, degree - 5)
    assert len(trimmed) == degree - 5
    kept = np.isin(full, trimmed)
    assert kept.sum() == degree - 5
    # ratio of second- to third-nearest pole distance: 1 at the vertex
    dist = np.sort(np.abs(full[:, None] - np.array(diagram.sites)), axis=1)
    ratio = dist[:, 1] / dist[:, 2]
    assert ratio[~kept].min() >= ratio[kept].max()


def abs_margin_balance_starts(state, diagram, degree):
    """balance_starts with the margins from np.abs of complex differences,
    the reference for the branch form (no polynomial part)."""
    poles = np.array([complex(z) for z in state.base.poles])
    top = np.log(np.abs([complex(cs[-1]) for cs in state.scaled_coeffs]))
    expo = state.n + np.array(state.base.orders)
    pts = [rational._edge_balance_zeros(state, *e.pair) for e in diagram.edges]
    margin = []
    for e, z in zip(diagram.edges, pts):
        i, j = e.pair
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = top[:, None] - expo[:, None] * np.log(np.abs(z - poles[:, None]))
            rest = np.delete(logs, [i, j], axis=0).max(axis=0, initial=-np.inf)
            m = np.minimum(logs[i], logs[j]) - rest
        margin.append(np.where(np.isfinite(m), m, -np.inf))
    keep = np.argsort(-np.concatenate(margin), kind="stable")[:degree]
    return np.concatenate(pts)[np.sort(keep)]


@pytest.mark.parametrize("n", [100, 300])
def test_balance_starts_match_the_abs_margin_ranking(n):
    # the benchmark's d = 8 problem at seed 1: criterion 13's eight poles
    # turned about 0 (perfbench/workloads.py, d8_poles(1)), with the
    # residues of 1 / prod (z - z_i)
    rng = np.random.default_rng(11)
    turn = cmath.exp(2j * math.pi * np.random.default_rng(1).random())
    poles = [complex(turn * z) for z in rng.normal(size=8) + 1j * rng.normal(size=8)]
    residues = [1.0 / np.prod([z - w for k, w in enumerate(poles) if k != i])
                for i, z in enumerate(poles)]
    form = polar_form(poles, [1] * 8, [(a,) for a in residues])
    state = derivative_state(form, n)
    degree, _ = rational.leading_term(state)
    diagram = voronoi.build(poles)
    assert np.array_equal(rational.balance_starts(state, diagram, degree),
                          abs_margin_balance_starts(state, diagram, degree))


@pytest.mark.parametrize("n", [0, 3, 40])
def test_balance_starts_count_and_determinism(n):
    for problem in (cube_problem(n), cube_problem(n, **MIXED)):
        state, diagram, degree = problem
        first = rational.balance_starts(state, diagram, degree)
        again = rational.balance_starts(state, diagram, degree)
        assert len(first) == degree
        assert first.tobytes() == again.tobytes()
        assert len(np.unique(first)) == degree


def test_zeros_mixed_orders_match_extended_numerator():
    # orders 1, 2, 3: the two-term equation has unequal exponents
    for n in (2, 5, 9):
        state, _, degree = cube_problem(n, **MIXED)
        ext = polar_form(state.base.poles, MIXED["orders"], MIXED["coeffs"],
                         precision="extended")
        r_n = numerator(derivative_state(ext, n)).r_n
        expected = np.roots(np.array([complex(c) for c in r_n])[::-1])
        rs = rational.zeros(state.base, n)
        assert rs.all_converged and len(rs) == degree
        assert multiset_distance(rs.roots, expected) < 1e-9


def test_zeros_start_on_the_two_term_zeros():
    # edge-interior instance (the ladder's d=3 problem): the skeleton
    # starts needed 13 sweeps here
    state, _, _ = cube_problem(400)
    rs = rational.zeros(state.base, 400)
    assert rs.all_converged
    assert rs.sweeps <= 6


def test_newton_passes_certify_most_balance_starts():
    state, _, degree = cube_problem(400)
    rs = rational.zeros(state.base, 400)
    assert rs.all_converged
    assert rs.certified >= 0.95 * degree


@pytest.mark.parametrize("problem, share", [("cube", 0.01), ("eight", 0.1)])
def test_first_sweep_runs_on_the_uncertified_roots(problem, share):
    # the Aberth sweeps once started on every root: 2002 of 2002 (d=3,
    # n=1000) and 2100 of 2100 (criterion 13's poles, n=300)
    if problem == "cube":
        # the form alone: expanding R_1000 would overflow
        form, n = cube_problem(0)[0].base, 1000
    else:
        rng = np.random.default_rng(11)
        poles = list(rng.normal(size=8) + 1j * rng.normal(size=8))
        form, n = polar_decompose([1.0], [(p, 1) for p in poles]), 300
    rs = rational.zeros(form, n)
    assert rs.all_converged
    assert rs.active_trace[0] <= share * len(rs)


def test_far_field_prelude_certifies_the_far_out_starts():
    # criterion 13's draw: Newton on R_n itself pulls a far-out start by
    # about m/z, so from the same starts it certified 1979 of 2100 and
    # left 121 roots to the first sweep
    rng = np.random.default_rng(11)
    poles = list(rng.normal(size=8) + 1j * rng.normal(size=8))
    rs = rational.zeros(polar_decompose([1.0], [(p, 1) for p in poles]), 300)
    assert rs.all_converged
    assert rs.certified >= 2080 and rs.active_trace[0] <= 16
    assert np.abs(rs.roots).max() == pytest.approx(58.0051170150899, rel=1e-12)


def test_far_field_evaluator_sums_pole_by_pole():
    # N' - h N with h = sum_k t_k/(z - z_k) - K/z, bit for bit a pole by
    # pole sum at every batch size: numpy sums a lone point's column of
    # eight poles pairwise, so the evaluator pairs it
    rng = np.random.default_rng(11)
    poles = list(rng.normal(size=8) + 1j * rng.normal(size=8))
    state = derivative_state(polar_decompose([1.0], [(p, 1) for p in poles]), 300)
    degree = rational.leading_term(state)[0]
    z = rational.balance_starts(state, state.base.diagram, degree)[:200]
    tops = [300 + r for r in state.base.orders]
    h = sum(t / (z - zk) for t, zk in zip(tops, state.base.poles)) - (sum(tops) - degree) / z
    evaluate = rational._far_field_evaluator(state, degree)
    p, dp, q = evaluate(z)
    q = q()
    assert q.tobytes() == (dp - h * p).tobytes()
    for size in (1, 2, 3):
        parts = [evaluate(z[s:s + size])[2]() for s in range(0, len(z), size)]
        assert np.concatenate(parts).tobytes() == q.tobytes()


def test_far_field_q_is_formed_only_by_the_newton_passes(monkeypatch):
    # criterion 13's draw: each evaluator call records whether its q was
    # formed; the Newton passes (the first calls) form it once each, the
    # sweeps and the residual call at the first read of the residuals
    # never, and forming q at every call instead gives the same RootSet
    rng = np.random.default_rng(11)
    poles = list(rng.normal(size=8) + 1j * rng.normal(size=8))
    form = polar_decompose([1.0], [(p, 1) for p in poles])
    far_field = rational._far_field_evaluator

    def counting(state, degree):
        evaluate = far_field(state, degree)

        def eval_pdq(z):
            p, dp, q = evaluate(z)
            calls.append(0)

            def counted():
                calls[-1] += 1
                return q()

            return p, dp, counted

        return eval_pdq

    def eager(state, degree):
        evaluate = far_field(state, degree)

        def eval_pdq(z):
            p, dp, q = evaluate(z)
            q = q()
            return p, dp, lambda: q

        return eval_pdq

    calls = []
    monkeypatch.setattr(rational, "_far_field_evaluator", counting)
    lazy = rational.zeros(form, 300)
    passes = calls.index(0)
    assert 1 <= passes <= rootfind.NEWTON_PASSES and calls[:passes] == [1] * passes
    assert calls[passes:] == [0] * lazy.sweeps
    lazy.residuals
    assert calls[passes:] == [0] * (lazy.sweeps + 1)
    monkeypatch.setattr(rational, "_far_field_evaluator", eager)
    formed = rational.zeros(form, 300)
    assert lazy.roots.tobytes() == formed.roots.tobytes()
    assert lazy.residuals.tobytes() == formed.residuals.tobytes()
    assert np.array_equal(lazy.converged, formed.converged)
    assert lazy.active_trace == formed.active_trace and lazy.certified == formed.certified


def test_returned_roots_have_disjoint_inclusion_disks():
    # every tenth draw of the multi-pole family from draw 6: the disks
    # (m + 1) |N/N'| + 4 u |z| about the returned roots meet no other
    # one, so each holds a zero of its own; a prelude that certifies a
    # point after a step outside its Henrici disk can freeze it far out
    # (draw 536: |z| near 1e28), where its residual is about |z|/m
    for form, n in itertools.islice(multi_pole_draws(), 6, None, 10):
        rs = rational.zeros(form, n)
        radius = (len(rs) + 1) * rs.residuals + 4.0 * np.finfo(float).eps * np.abs(rs.roots)
        assert rootfind._disjoint(rs.roots, radius).all()


def test_a_duplicated_start_is_never_certified_twice():
    # both copies of a start run to the same zero, so their inclusion
    # disks meet and neither is frozen
    state, diagram, degree = cube_problem(100)
    starts = rational.balance_starts(state, diagram, degree)
    evaluator = newton_evaluator(state)
    undisturbed = rootfind.solve(None, 1e-12, evaluator=evaluator, start=starts)
    copy = starts.copy()
    for offset in (0.0, 1e-9):
        copy[-1] = starts[0] + offset
        _, frozen = rootfind._newton_passes(evaluator, 1e-12, copy)
        assert not (frozen[0] and frozen[-1])
    copy[-1] = starts[0]
    with np.errstate(all="ignore"), pytest.raises(
            NoConvergence, match=r"of 202 roots unconverged, \d+ certified"):
        rootfind.solve(None, 1e-12, evaluator=evaluator, start=copy)
    copy[-1] = starts[0] + 1e-9
    rs = rootfind.solve(None, 1e-12, evaluator=evaluator, start=copy)
    assert rs.all_converged
    assert multiset_distance(rs.roots, undisturbed.roots) < 1e-10


def test_zeros_makes_one_attempt(monkeypatch):
    # coincident starts stall; zeros raises with that attempt's roots
    # and never restarts from measure.skeleton_starts
    state, _, degree = cube_problem(12)
    start = np.zeros(degree, dtype=complex)
    monkeypatch.setattr(rational, "balance_starts", lambda state, diagram, degree: start)

    def no_skeleton(*args, **kwargs):
        raise AssertionError("skeleton_starts called")

    monkeypatch.setattr(measure, "skeleton_starts", no_skeleton)
    with np.errstate(all="ignore"):
        with pytest.raises(NoConvergence) as info:
            rational.zeros(state.base, 12)
        direct = rootfind._aberth(newton_evaluator(state), 1e-12, start,
                                  rootfind.MAX_SWEEPS["double"])
    assert not direct.all_converged
    assert info.value.rootset.roots.tobytes() == direct.roots.tobytes()


def test_zeros_build_the_diagram_once_per_form(monkeypatch):
    # PolarForm.diagram is built on first read and shared by every order
    built = []
    build = voronoi.build
    monkeypatch.setattr(voronoi, "build", lambda sites: built.append(sites) or build(sites))
    form = polar_decompose([1.0], [(1j, 1), (-1j, 1), (2.0, 1)])
    for n in (5, 10, 20):
        rational.zeros(form, n)
    assert form.diagram is form.diagram
    assert built == [[1j, -1j, 2.0]]


def test_zeros_mixed_orders_start_near_their_zeros():
    # the unequal-exponent starts are off their zeros by O(1/n); the
    # Newton passes on the whole R_n certify most of them, so the sweeps
    # run on the rest (the skeleton starts needed 8.6 root-sweeps per
    # root at n = 100)
    for n in (100, 400):
        state, _, degree = cube_problem(n, **MIXED)
        rs = rational.zeros(state.base, n)
        assert rs.all_converged
        assert rs.certified >= 0.8 * degree
        assert sum(rs.active_trace) <= degree


def test_zeros_converge_on_a_far_out_balance():
    # eight poles from generator seed 1 at n = 5000 (degree 35000): a log
    # sum shared by all rows would round by about n u log|z| at the
    # far-out zeros (|z| = 218 and 601) and stall two of them
    rng = np.random.default_rng(1)
    poles = list(rng.normal(size=8) + 1j * rng.normal(size=8))
    rs = rational.zeros(polar_decompose([1.0], [(p, 1) for p in poles]), 5000)
    assert len(rs) == 35000
    assert rs.all_converged


def test_seeded_random_problems_converge():
    # from the nearest-pole filter, the ratio trim and the skeleton fill
    # these took 897 sweeps in all, 25 at worst
    rng = np.random.default_rng(5)
    sweeps = []
    for trial in range(24):
        d = int(rng.integers(2, 9))
        poles = rng.normal(size=d) + 1j * rng.normal(size=d)
        orders = rng.integers(1, 4, size=d)
        coeffs = [rng.normal(size=r) + 1j * rng.normal(size=r) for r in orders]
        pp = rng.normal(size=rng.integers(1, 4)) if trial % 3 == 0 else None
        form = polar_form(poles, orders, coeffs, polynomial_part=pp)
        for n in (0, 1, 5, 20):
            rs = rational.zeros(form, n)
            assert rs.all_converged
            sweeps.append(rs.sweeps)
    assert sum(sweeps) <= 850
