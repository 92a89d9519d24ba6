"""Derivatives of products of polynomial powers and their zero sets."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from voroderiv import _poly, asympt, lemniscate, rootfind, voronoi
from voroderiv.errors import CoefficientOverflow, NoConvergence
from voroderiv.lemniscate import (LemniscateProblem, NoDominantDegree,
                                  balance_starts, build_rn,
                                  compactness_and_compare, dominance_radius,
                                  leading_term, psi_max, rn_evaluator)


def fig_problem():
    # four linear factors at +-1, +-i with distinct multipliers
    return LemniscateProblem(
        ((-1.0, 1.0), (1.0, 1.0), (-1.0j, 1.0), (1.0j, 1.0)),
        (12, 8, 7, 21))


def c12_problem():
    # criterion 12: z^2 and z - 3
    return LemniscateProblem(((0.0, 0.0, 1.0), (-3.0, 1.0)), (1, 1))


def test_build_rn_negative_multiplier_frozen():
    # R(z) = z / (z-3): numerator of the 2nd derivative, cleared of the
    # denominator, is z^2 (z-3)^2 + ... = 1 + 9 z^2 - 6 z^3 + z^4 times
    # the leading convention used here; frozen after hand expansion
    p = LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1))
    r = build_rn(p, 2)
    assert np.allclose(np.asarray(r, dtype=complex), [1.0, 0.0, 9.0, -6.0,
                                                      1.0])


def test_at_least_two_summands_required():
    with pytest.raises(ValueError):
        LemniscateProblem(((1.0, 0.0, 1.0),), (3,))


def test_build_rn_matches_direct_sum():
    # positive multipliers: the expansion is sum_i P_i(z)^{m_i n}
    p = fig_problem()
    n = 3
    r = build_rn(p, n)
    z = 0.3 - 0.6j
    direct = sum(np.polyval(np.asarray(poly, dtype=complex)[::-1],
                            z) ** (m * n)
                 for poly, m in zip(p.polynomials, p.multipliers))
    # degree-63 expansion loses a few digits to coefficient cancellation
    assert _poly.polyval(r, z) == pytest.approx(direct, rel=1e-5)


def test_build_rn_clears_negative_power_denominator():
    # z^n + (z-3)^{-n}: the returned numerator is z^n (z-3)^n + 1
    p = LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1))
    n = 3
    r = build_rn(p, n)
    z = 0.3 - 0.6j
    expect = z ** n * (z - 3.0) ** n + 1.0
    assert _poly.polyval(r, z) == pytest.approx(expect, rel=1e-12)


def test_dominance_radius_frozen():
    p = LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1))
    assert dominance_radius(p) == pytest.approx(5.0, rel=0.3)


def test_dominance_holds_everywhere_outside_the_radius():
    # 10^4 points with |z| from the radius to 100 times it, log-uniform,
    # on c12, the figure, z / (z - 3) and the seeded random problems with
    # a negative multiplier (those with a dominant degree)
    problems = [c12_problem(), fig_problem(),
                LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1))]
    problems += [p for p, _ in seeded_random_problems() if min(p.multipliers) < 0]
    rng = np.random.default_rng(17)
    checked = 0
    for p in problems:
        try:
            radius = dominance_radius(p)
        except NoDominantDegree:
            continue
        z = radius * 100.0 ** rng.random(10_000) * np.exp(2j * math.pi * rng.random(10_000))
        logs = voronoi.branch_logs(p.branches, z)
        dom = int(np.argmax(p.effective_degrees))
        others = np.delete(logs, dom, axis=0).max(axis=0)
        assert (logs[dom] > others + math.log(len(logs) - 1)).all()
        checked += 1
    assert checked == 26


def test_no_dominant_degree():
    # z and z-1 with equal multipliers: the two summand degrees tie
    p = LemniscateProblem(((0.0, 1.0), (1.0, 1.0)), (1, 1))
    with pytest.raises(NoDominantDegree):
        dominance_radius(p)


def test_psi_max_simple_value():
    # single factor z with multiplier 1: psi_max is log |z|
    p = LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1))
    assert psi_max(p, 5.0 + 0j) == pytest.approx(np.log(5.0))


def psi_max_reference(problem, z):
    """The scalar loop that psi_max is checked against."""
    z = complex(z)
    best = -math.inf
    for p, m in zip(problem.polynomials, problem.multipliers):
        v = abs(_poly.polyval(p, z))
        if v > 0.0:
            best = max(best, m * math.log(v))
        elif m < 0:
            best = math.inf  # m log|P| -> +inf at a zero of P when m < 0
    return best


def test_array_psi_max_matches_scalar_loop():
    rng = np.random.default_rng(3)
    # z^2 and z(z - 1) share the zero 0, where psi_max is -inf
    common = LemniscateProblem(((0.0, 0.0, 1.0), (0.0, -1.0, 1.0)), (1, 2))
    cases = ((fig_problem(), [1.0, -1.0, 1j, -1j, 0.0]),
             (LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1)), [0.0, 3.0]),
             (common, [0.0, 1.0, 0.5]))
    for problem, special in cases:
        pts = np.concatenate([rng.normal(size=60) + 1j * rng.normal(size=60),
                              special])
        got = psi_max(problem, pts)
        assert got.shape == pts.shape
        np.testing.assert_allclose(
            got, [psi_max_reference(problem, z) for z in pts],
            rtol=1e-14, atol=1e-15)
    assert psi_max(common, 0.0) == -math.inf
    # z / (z - 3): -log|z - 3| -> +inf at z = 3, and at z = 0 the other
    # summand's -log 3 wins over log|z| -> -inf
    reciprocal = cases[1][0]
    assert psi_max(reciprocal, 3.0) == math.inf
    assert psi_max(reciprocal, 0.0) == -math.log(3.0)
    assert isinstance(psi_max(common, 0.5), float)


def test_psi_max_on_a_block_matches_scalar_loop():
    # a 2-D block of grid points whose axes pass through the summands'
    # zeros, as grid_discrepancy passes it
    rng = np.random.default_rng(4)
    common = LemniscateProblem(((0.0, 0.0, 1.0), (0.0, -1.0, 1.0)), (1, 2))
    cases = ((fig_problem(), [1.0, -1.0, 1j, -1j]),
             (LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1)), [0.0, 3.0]),
             (common, [0.0, 1.0]))
    for problem, special in cases:
        special = np.asarray(special, dtype=complex)
        xs = np.sort(np.concatenate([rng.normal(size=9), special.real]))
        ys = np.sort(np.concatenate([rng.normal(size=6), special.imag]))
        block = xs + 1j * ys[:, None]
        got = psi_max(problem, block)
        assert got.shape == block.shape
        np.testing.assert_allclose(
            got, [[psi_max_reference(problem, z) for z in row] for row in block],
            rtol=1e-14, atol=1e-15)


def horner_summand_logs(problem, z):
    """m_i log|P_i(z)| per summand by Horner in real parts, the reference
    for the root form of LemniscateProblem.branches."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    logs = []
    for p, m in zip(problem.polynomials, problem.multipliers):
        re, im = p[-1].real, p[-1].imag
        for c in p[-2::-1]:
            re, im = re * x - im * y + c.real, re * y + im * x + c.imag
        logs.append(m * np.log(np.hypot(re, im)))
    return np.array(logs)


def test_psi_max_from_roots_matches_horner_away_from_the_roots():
    rng = np.random.default_rng(21)
    problems = [fig_problem(), c12_problem(),
                LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1))]
    problems += [p for p, _ in seeded_random_problems()]
    for problem in problems:
        roots = np.concatenate([r for _, _, r in problem.branches])
        z = 3.0 * (rng.normal(size=400) + 1j * rng.normal(size=400))
        z = z[np.abs(z[:, None] - roots[None, :]).min(axis=1) > 1e-2]
        np.testing.assert_allclose(psi_max(problem, z),
                                   horner_summand_logs(problem, z).max(axis=0), rtol=1e-12)


def test_build_rn_overflow_is_named():
    # criterion 12's problem: n = 515 is the first order with a
    # non-finite coefficient (198 of 1101 overflow at n = 550); n = 514
    # still comes back whole, all 1029 coefficients finite
    p = LemniscateProblem(((0.0, 0.0, 1.0), (-3.0, 1.0)), (1, 1))
    r = build_rn(p, 514)
    assert len(r) == 1029 and np.isfinite(r).all()
    for n in (515, 550, 600):
        with pytest.raises(CoefficientOverflow, match=f"order n={n} overflowed"):
            build_rn(p, n)


def test_grid_discrepancy_independent_of_block_size(monkeypatch):
    problem = fig_problem()
    rep = compactness_and_compare(problem, [4, 8], window=(0.0, 2.0), grid=25)
    for block in (1, 25, 3 * 25 + 7, 7 * 25):
        # each size forms the axis squares and group factors of one
        # group of three roots at a time, the default all of them at
        # once; the row tiles follow the grid and stay as they are
        monkeypatch.setattr(asympt, "GRID_BLOCK_POINTS", block)
        again = compactness_and_compare(problem, [4, 8], window=(0.0, 2.0),
                                        grid=25)
        assert again.l1_discrepancy == rep.l1_discrepancy


def test_lemniscate_exclusion_guard(monkeypatch):
    # the exclusion radius is 1e-3 of the window width, so a window of
    # any size leaves about m * 3e-6 of its points near the m roots; a
    # grid whose lines cross at the roots stands in for one that does not:
    # its 84 x 84 points hold the 84 crossings next to the 84 roots
    problem = fig_problem()
    roots = np.asarray(compactness_and_compare(problem, [4], (0.0, 2.0), grid=16).roots[0])
    on_roots = np.sort(roots.real + 1e-6), np.sort(roots.imag + 1e-6)
    monkeypatch.setattr(asympt, "grid_axes", lambda window, grid, rng: on_roots)
    with pytest.raises(asympt.ExclusionTooLarge):
        compactness_and_compare(problem, [4], (0.0, 2.0), grid=16)


def test_rn_evaluator_log_derivative_matches_horner():
    # small n and points where expanded-coefficient Horner is reliable
    p = fig_problem()
    n = 2
    r = build_rn(p, n)
    ev = rn_evaluator(p, n)
    z = np.array([0.4 + 0.2j, 2.0 + 1.0j, 1.1 + 0.9j])
    pv, dv = ev(z)
    hv = _poly.polyval(r, z)
    hd = _poly.polyval(_poly.polyder(r), z)
    assert np.allclose(dv / pv, hd / hv, rtol=1e-10)


def test_compactness_and_compare_fig_configuration():
    rep = compactness_and_compare(fig_problem(), [4, 8], window=(0.0, 2.0),
                                  grid=40)
    assert rep.compact
    assert all(m <= rep.dominance_radius for m in rep.max_root_modulus)
    assert rep.l1_discrepancy[1] < rep.l1_discrepancy[0]
    assert len(rep.roots) == 2


def test_branches_take_np_roots_once_per_polynomial(monkeypatch):
    # dominance_radius, balance_starts and every psi_max call read
    # problem.branches, which finds each P_i's roots once
    degrees = []
    roots = np.roots

    def spy(p):
        degrees.append(len(p) - 1)
        return roots(p)

    monkeypatch.setattr(np, "roots", spy)
    problem = fig_problem()
    compactness_and_compare(problem, [4, 8], window=(0.0, 2.0), grid=40)
    assert degrees == [1, 1, 1, 1]


def test_reported_roots_are_true_zeros():
    # verify in high precision that the reported points annihilate the
    # sum of powers, independently of the solver's own residuals
    import mpmath
    p = fig_problem()
    n = 2
    rep = compactness_and_compare(p, [n], window=(0.0, 2.0), grid=20)
    polys = [np.asarray(q, dtype=complex) for q in p.polynomials]
    with mpmath.workdps(50):
        for z in rep.roots[0]:
            zz = mpmath.mpc(z)
            val = mpmath.mpc(0)
            big = mpmath.mpf(0)
            for q, m in zip(polys, p.multipliers):
                term = sum(mpmath.mpc(c) * zz ** k
                           for k, c in enumerate(q)) ** (m * n)
                val += term
                big = max(big, abs(term))
            assert abs(val) / big < 1e-8


def test_leading_term_matches_expansion():
    # c12, the figure, z/(z - 3) and the degree tie of z and z - 1
    problems = (c12_problem(), fig_problem(),
                LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1)),
                LemniscateProblem(((0.0, 1.0), (-1.0, 1.0)), (1, 1)))
    for p in problems:
        for n in range(1, 41):
            r = build_rn(p, n)
            assert leading_term(p, n) == (_poly.degree(r), r[-1])
    # past 1e300 coefficients the lead 1 is still returned, up to the
    # last order before the overflow
    for n in (501, 514):
        r = build_rn(c12_problem(), n)
        assert leading_term(c12_problem(), n) == (_poly.degree(r), r[-1]) == (2 * n, 1)


def test_balance_starts_are_exact_and_deterministic():
    for p, n in ((fig_problem(), 8), (fig_problem(), 3), (c12_problem(), 30),
                 (LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1)), 5)):
        degree, _ = leading_term(p, n)
        pts = balance_starts(p, n, degree)
        assert len(pts) == len(np.unique(pts)) == degree
        assert np.array_equal(pts, balance_starts(p, n, degree))


def np_roots_balance_starts(problem, n, degree, reduced=True):
    """balance_starts with one np.roots call per w, the reference: each
    pair's exponent difference f over its gcd g, for the g n values
    w^{gn} = -1, or unreduced, f itself for the n values w^n = -1."""
    rows = np.array(lemniscate._term_exponents(problem, 1))
    pts, margin = [], []
    for i, j in itertools.combinations(range(len(rows)), 2):
        f = rows[i] - rows[j]
        g = int(np.gcd.reduce(f)) if reduced else 1
        omega = np.exp(1j * math.pi * (2 * np.arange(g * n) + 1) / (g * n))
        a = _poly.product(problem.polynomials, np.maximum(f // g, 0))
        b = _poly.product(problem.polynomials, np.maximum(-f // g, 0))
        z = np.concatenate([np.roots(np.polynomial.polynomial.polyadd(a, -w * b)[::-1])
                            for w in omega])
        logs = voronoi.branch_logs(problem.branches, z)
        rest = np.delete(logs, [i, j], axis=0).max(axis=0, initial=-np.inf)
        pts.append(z)
        margin.append(np.minimum(logs[i], logs[j]) - rest)
    keep = np.argsort(-np.concatenate(margin), kind="stable")[:degree]
    return np.concatenate(pts)[np.sort(keep)]


def test_balance_starts_match_np_roots():
    # z^2 and z(z - 1) both vanish at 0, so A - w B has a zero constant
    # coefficient for every w, which np.roots strips as a root at 0
    common = LemniscateProblem(((0.0, 0.0, 1.0), (0.0, -1.0, 1.0), (-2.0, 1.0)), (1, 1, 2))
    for p, n in ((fig_problem(), 8), (fig_problem(), 3), (c12_problem(), 30),
                 (LemniscateProblem(((0.0, 1.0), (-3.0, 1.0)), (1, -1)), 5),
                 (common, 5)):
        degree, _ = leading_term(p, n)
        assert np.array_equal(balance_starts(p, n, degree),
                              np_roots_balance_starts(p, n, degree))
    assert (np_roots_balance_starts(common, 5, 30) == 0).sum() == 5


def test_reduced_balance_starts_match_unreduced(monkeypatch):
    # the figure's six exponent differences have gcds 4, 1, 3, 1, 1 and 7,
    # so its companions shrink from sizes 12, 12, 21, 8, 21 and 21 to 3,
    # 12, 7, 8, 21 and 3; the starts are the same zeros up to rounding
    sizes = []
    stacked = lemniscate._stacked_roots

    def spy(coeffs):
        sizes.append(coeffs.shape)
        return stacked(coeffs)

    monkeypatch.setattr(lemniscate, "_stacked_roots", spy)
    for n in (3, 8):
        sizes.clear()
        degree, _ = leading_term(fig_problem(), n)
        new = balance_starts(fig_problem(), n, degree)
        assert sizes == [(g * n, m + 1) for g, m in
                         ((4, 3), (1, 12), (3, 7), (1, 8), (1, 21), (7, 3))]
        old = np_roots_balance_starts(fig_problem(), n, degree, reduced=False)
        assert len(new) == len(old) == degree
        cost = np.abs(new[:, None] - old[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert (cost[rows, cols] <= 1e-9 * (1.0 + np.abs(new[rows]))).all()


def test_stacked_roots_match_np_roots_row_by_row():
    # rows with different leading and trailing zero coefficients, and a
    # constant row, which has no roots
    coeffs = np.array([[0, 0, 1, 2, 0], [1, 0, 1j, 2, 0], [0, 1, 1, 0, 0],
                       [3, 0, 0, 0, 0], [1, 2, 3, 4, 5]], dtype=complex)
    assert np.array_equal(lemniscate._stacked_roots(coeffs),
                          np.concatenate([np.roots(c[::-1]) for c in coeffs]))


@pytest.fixture()
def sweeps(monkeypatch):
    """Sweep counts of every rootfind.solve call that returns."""
    counts = []
    solve = rootfind.solve

    def spy(*args, **kwargs):
        rs = solve(*args, **kwargs)
        counts.append(rs.sweeps)
        return rs

    monkeypatch.setattr(rootfind, "solve", spy)
    return counts


def test_c12_high_orders_converge_from_balance_starts(sweeps):
    # from the dominance circle, 88 of 320 roots stalled at n = 160 and
    # all 1000 at n = 500
    rep = compactness_and_compare(c12_problem(), [160, 500], window=(0.0, 6.0),
                                  grid=16)
    assert [len(r) for r in rep.roots] == [320, 1000]
    assert max(rep.max_root_modulus) <= rep.dominance_radius
    assert max(sweeps) <= 2


def test_a_stalled_solve_is_not_restarted(monkeypatch):
    # at n = 4 the Newton passes certify 82 of 84 roots and the sweeps
    # need 3; one sweep leaves a stall, raised without a restart from
    # the dominance circle
    def no_circle(*args):
        raise AssertionError("_start_points called")

    monkeypatch.setattr(rootfind, "_start_points", no_circle)
    monkeypatch.setitem(rootfind.MAX_SWEEPS, "double", 1)
    with pytest.raises(NoConvergence, match="of 84 roots unconverged, 82 certified"):
        compactness_and_compare(fig_problem(), [4], window=(0.0, 2.0), grid=16)


def test_figure_n16_converges():
    # from the dominance circle, 180 of 336 roots stalled
    rep = compactness_and_compare(fig_problem(), [16], window=(0.0, 2.0), grid=16)
    assert len(rep.roots[0]) == 336
    assert rep.max_root_modulus[0] <= rep.dominance_radius


def seeded_random_problems():
    """(problem, n) for 39 seeded draws of 2 to 4 summands of degree 1 to 3."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = rng.integers(2, 5)
        polys = []
        for _ in range(k):
            d = rng.integers(1, 4)
            polys.append(np.poly(rng.normal(size=d) + 1j * rng.normal(size=d))[::-1])
        mult = rng.integers(1, 6, size=k) * rng.choice([1, 1, 1, -1], size=k)
        if (mult < 0).all():
            continue
        n = int(rng.integers(2, 25))
        yield LemniscateProblem(tuple(polys), tuple(int(m) for m in mult)), n


def test_seeded_random_problems_converge():
    # from the dominance (or Fujiwara) circle trials 3, 8, 18, 19, 21,
    # 26, 28, 31, 33 and 35 stalled
    solved = 0
    for p, n in seeded_random_problems():
        rep = compactness_and_compare(p, [n], window=(0.0, 2.0), grid=16)
        assert len(rep.roots[0]) == leading_term(p, n)[0]
        solved += 1
    assert solved == 39
