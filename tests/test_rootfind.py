"""Simultaneous root finding and bounds."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from voroderiv import _poly, lemniscate, measure, rational, rootfind, voronoi
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


def test_solve_makes_one_attempt(monkeypatch):
    # coincident starts stall; the stall is reported, not restarted
    calls = []
    aberth = rootfind._aberth

    def spy(*args):
        calls.append(1)
        return aberth(*args)

    monkeypatch.setattr(rootfind, "_aberth", spy)
    monkeypatch.setitem(rootfind.MAX_SWEEPS, "double", 20)
    with np.errstate(all="ignore"), pytest.raises(NoConvergence):
        solve([-1.0, 0.0, 0.0, 1.0], start=[0.5, 0.5, 0.5])
    assert calls == [1]


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


def test_no_convergence_carries_partial_rootset(monkeypatch):
    rng = np.random.default_rng(3)
    p = list(rng.normal(size=40))
    monkeypatch.setitem(rootfind.MAX_SWEEPS, "double", 1)
    with pytest.raises(NoConvergence) as e:
        solve(p, tolerance=1e-15)
    rs = e.value.rootset
    assert len(rs.roots) == 39
    assert not rs.converged.all()


def test_extended_precision_path():
    rs = solve(_poly.asarray([-1.0, 0.0, 0.0, 1.0], "extended"), tolerance=1e-20)
    r = sorted(rs.roots, key=lambda w: (round(float(w.real), 6),
                                        float(w.imag)))
    assert abs(complex(r[-1]) - 1.0) < 1e-20
    assert rs.converged.all()


def test_custom_start_points_used():
    # start exactly at the roots of z^2 - 4: converges immediately
    rs = solve([-4.0, 0.0, 1.0], start=np.array([2.0 + 0j, -2.0 + 0j]))
    assert multiset_distance(rs.roots, [2.0, -2.0]) < 1e-14


def test_evaluator_hook_consistent_with_coefficients():
    # an evaluator computing the same polynomial must give the same roots;
    # it takes the degree from its start points and reads no coefficients
    p = [-6.0, 11.0, -6.0, 1.0]  # (z-1)(z-2)(z-3)

    def ev(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        v = ((z - 1.0) * (z - 2.0) * (z - 3.0))
        d = ((z - 2.0) * (z - 3.0) + (z - 1.0) * (z - 3.0)
             + (z - 1.0) * (z - 2.0))
        return v, d

    start = rootfind._start_points(3, 0.5 * fujiwara_bound(p), _poly.DOUBLE)
    rs = solve(None, evaluator=ev, start=start)
    assert multiset_distance(rs.roots, [1.0, 2.0, 3.0]) < 1e-10
    assert multiset_distance(rs.roots, solve(p).roots) < 1e-10


def test_evaluator_takes_no_coefficients_and_needs_starts():
    def ev(z):
        return z - 1.0, np.ones_like(z)

    with pytest.raises(ValueError, match="exactly one"):
        solve([-1.0, 1.0], evaluator=ev, start=[0.5])
    with pytest.raises(ValueError, match="exactly one"):
        solve(None, start=[0.5])
    with pytest.raises(ValueError, match="start points"):
        solve(None, evaluator=ev)
    with pytest.raises(ZeroPolynomial):
        solve(None, evaluator=ev, start=[])


@pytest.mark.parametrize("precision, rel", [(_poly.DOUBLE, 1e-12), (_poly.EXTENDED, 1e-30)])
def test_sum_of_products_expansion_and_evaluator_agree(precision, rel):
    # a degree-2 factor, a monic linear one and a non-monic linear one;
    # rows with zero exponents; weights of degree >= 1 about non-zero
    # centres.  The evaluator forms every row from a shared sum over the
    # column maxima, (3, 4, 2) for both row sets, less the row's
    # complement: one to three entries per row for the first rows, one
    # for the second ones.  Point 5 is an exact zero of the non-monic
    # factor, where terms vanish to order 1 or 2 and one has exponent 0
    # on it; so are c12's z = 0 and z = 3 for its R_3 = z^6 + (z - 3)^3,
    # where one term vanishes to order 3
    factors = [[0.7 - 0.2j, -0.4 + 0.1j, 1.0], [-0.3 - 0.8j, 1.0], [0.5, 2.0j]]
    weights = [[1.0, 0.5j, -0.25], [2.0 - 1.0j], [0.3, 1.0]]
    centres = (0.4 - 0.6j, 0.0, -1.1 + 0.2j)
    points = [0.3 + 0.2j, -0.7 + 0.5j, 1.1 - 0.4j, -0.2 - 0.9j, 0.6 + 1.0j, 0.25j]
    cases = [(factors, rows, weights, centres, points)
             for rows in (((3, 0, 1), (0, 4, 2), (2, 1, 0)), ((0, 4, 2), (3, 0, 2), (3, 4, 0)))]
    cases.append(([[0.0, 0.0, 1.0], [-3.0, 1.0]], ((3, 0), (0, 3)), [[1.0]] * 2, (0.0, 0.0),
                  [0.0, 1.0 + 1.0j, 3.0]))
    for factors, rows, weights, centres, points in cases:
        model = rootfind.SumOfProducts(
            tuple(_poly.asarray(f, precision) for f in factors), rows,
            tuple(_poly.asarray(w, precision) for w in weights),
            tuple(_poly.scalar(c, precision) for c in centres))
        with _poly.workprec():
            z = _poly.asarray(points, precision)
            coeffs = model.expand(12)
            dcoeffs = _poly.polyder(coeffs)
            evaluate = model.evaluator()
            pv, dv = evaluate(z)
            pv2, dv2 = evaluate(z[[0, 2]])
            for k, x in enumerate(z):
                direct = 0
                for row, w, c in zip(model.exponents, model.weights, model.centres):
                    term = _poly.polyval(w, x - c)
                    for f, e in zip(model.factors, row):
                        term = term * _poly.polyval(f, x) ** e
                    direct = direct + term
                horner = _poly.polyval(coeffs, x)
                assert abs(horner - direct) <= rel * abs(direct)
                ratio = _poly.polyval(dcoeffs, x) / horner
                assert abs(dv[k] / pv[k] - ratio) <= 1e-10 * abs(ratio)
        # each output depends only on its own point, bit for bit; the
        # pair leaves out point 3, whose term logs are the largest under
        # either row set, so a scale shared across points would show
        assert list(pv2) == list(pv[[0, 2]]) and list(dv2) == list(dv[[0, 2]])
        if precision == _poly.DOUBLE:
            assert pv2.tobytes() == pv[[0, 2]].tobytes()
            assert dv2.tobytes() == dv[[0, 2]].tobytes()


def batched(eval_pd, z, size):
    """eval_pd on consecutive sub-batches of z of the given size, joined."""
    parts = [eval_pd(z[s:s + size]) for s in range(0, len(z), size)]
    return np.concatenate([p for p, _ in parts]), np.concatenate([d for _, d in parts])


def test_evaluator_is_pointwise_at_scale():
    # both structural evaluators at sizes the solver meets, each row a
    # complement against the column maxima: criterion 13's eight poles at
    # n = 300 and the d = 2 pole model 1/(1 + z^2) at n = 200 (one entry
    # per row), the figure lemniscate at n = 8 (three per row) and c12's
    # polynomials with multipliers (2, -1) at n = 8 (rows (16, 8) and
    # (0, 0) after clearing the denominator: none, then two); a matrix
    # product over the rows gave other bytes on some sub-batches
    cases = []
    for diagram, state, degree in (eight_poles(300), two_poles(200)):
        cases.append((rational.newton_evaluator(state),
                      rational.balance_starts(state, diagram, degree)))
    figure = lemniscate.LemniscateProblem(
        ((-1.0, 1.0), (1.0, 1.0), (-1.0j, 1.0), (1.0j, 1.0)), (12, 8, 7, 21))
    cleared = lemniscate.LemniscateProblem(((0.0, 0.0, 1.0), (-3.0, 1.0)), (2, -1))
    for problem in (figure, cleared):
        cases.append((lemniscate.rn_evaluator(problem, 8), lemniscate.balance_starts(
            problem, 8, lemniscate.leading_term(problem, 8)[0])))
    assert [len(z) for _, z in cases] == [2100, 200, 168, 40]
    for eval_pd, z in cases:
        pv, dv = eval_pd(z)
        assert np.isfinite(pv).all() and np.isfinite(dv).all()
        for size in (1, 2, 3, 5, 8, 33):
            pb, db = batched(eval_pd, z, size)
            assert pb.tobytes() == pv.tobytes() and db.tobytes() == dv.tobytes()


def test_zeros_peak_memory():
    # the Cauchy-sum blocks and the evaluator's rows bound the traced
    # peak of the d = 8, n = 300 solve (7.9 MB with 4 MB blocks)
    _, state, _ = eight_poles(300)
    tracemalloc.start()
    try:
        rs = rational.zeros(state.base, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rs.all_converged and len(rs) == 2100
    assert peak <= 4 * 2**20


def test_residuals_reported():
    rs = solve([-1.0, 0.0, 1.0])
    assert np.all(rs.residuals < 1e-12)
    assert len(rs.converged_roots()) == 2


def test_double_log_matches_numpy():
    # the evaluator's log|p| + i arg p against numpy's complex log: a
    # modulus carries one rounding, which the log turns into an absolute
    # error, so the bound is 2 ulp of max(1, |log p|) per part
    rng = np.random.default_rng(6)
    scale = 10.0 ** rng.uniform(-300, 300, 3000)
    wide = (rng.normal(size=3000) + 1j * rng.normal(size=3000)) * scale
    near_one = np.exp(1j * rng.uniform(-4.0, 4.0, 3000)) * (1.0 + rng.normal(size=3000) * 1e-9)
    inf, nan = math.inf, math.nan
    # the branch cut, a finite modulus near the top, then moduli that are
    # not normal doubles (a subnormal one has lost bits), which take np.log
    special = [-1.0 + 0j, complex(-1.0, -0.0), 1e300 * (1 + 1j), 5e-324,
               complex(-2.02e-321, 2.717e-321), complex(inf, 0.0), complex(-inf, 0.0),
               complex(0.0, inf), complex(nan, 0.0)]
    p = np.concatenate([wide, near_one, special])
    with np.errstate(all="ignore"):
        want = np.log(p)
        got = rootfind._log(p, np.empty_like(p))
        for a, b in ((got.real, want.real), (got.imag, want.imag)):
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            assert np.all(same | (np.abs(a - b) <= 2 * np.spacing(np.maximum(np.abs(b), 1.0))))
        # one call per value, so no other value decides its fallback
        alone = np.array([rootfind._log(np.array([v], complex), np.empty(1, complex))[0]
                          for v in special])
    s = len(p) - len(special)
    assert alone[0] == math.pi * 1j and alone[1] == -math.pi * 1j
    assert alone[3:].tobytes() == want[s + 3:].tobytes()


def dense_aberth(eval_pd, start, tolerance, max_sweeps, frozen):
    """The dense m x m sweep that the active-set sweep must reproduce,
    with the roots in frozen held fixed from the start."""
    roots = start.copy()
    active = ~frozen
    converged = frozen.copy()
    trace = []
    tiny = 1e-300
    for _ in range(max_sweeps):
        if not active.any():
            break
        trace.append(int(active.sum()))
        pv, dv = eval_pd(roots)
        newton = pv / np.where(np.abs(dv) < tiny, tiny, dv)
        diff = roots[:, None] - roots[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        denom = 1.0 - newton * inv.sum(axis=1)
        denom = np.where(np.abs(denom) < tiny, tiny, denom)
        corr = newton / denom
        roots = roots - np.where(active, corr, 0.0)
        done = np.abs(corr) < tolerance * (1.0 + np.abs(roots))
        converged |= done & active
        active &= ~done
    pv, dv = eval_pd(roots)
    guard = np.abs(dv) < tiny
    resid = np.abs(pv) / np.where(guard, tiny, np.abs(dv))
    diff = roots[:, None] - roots[None, :]
    np.fill_diagonal(diff, np.inf)
    resid[guard] = np.abs(diff).min(axis=1)[guard]
    return roots, resid.astype(float), converged, trace


def eight_poles(n):
    """(diagram, state, degree of R_n) at criterion 13's eight poles."""
    rng = np.random.default_rng(11)
    poles = list(rng.normal(size=8) + 1j * rng.normal(size=8))
    form = rational.polar_decompose([1.0], [(p, 1) for p in poles])
    state = rational.derivative_state(form, n)
    return voronoi.build(poles), state, rational.leading_term(state)[0]


def two_poles(n):
    """(diagram, state, degree of R_n) for 1/(1 + z^2)."""
    form = rational.polar_decompose([1.0], [(1j, 1), (-1j, 1)])
    state = rational.derivative_state(form, n)
    return form.diagram, state, rational.leading_term(state)[0]


def eight_pole_case(n=50):
    """An evaluator solve at criterion 13's eight poles from the skeleton
    starts, which leave more roots to the sweeps than balance_starts."""
    diagram, state, degree = eight_poles(n)
    return None, rational.newton_evaluator(state), measure.skeleton_starts(diagram, degree)


def balance_case():
    """The same from the balance starts: the Newton passes freeze most
    roots, so the sweeps run on the rest."""
    diagram, state, degree = eight_poles(50)
    return None, rational.newton_evaluator(state), rational.balance_starts(state, diagram, degree)


def horner_case():
    rng = np.random.default_rng(5)
    p = rng.normal(size=61) + 1j * rng.normal(size=61)
    p[-1] = 1.0  # monic already, so solve iterates on these coefficients
    start = rootfind._start_points(60, 0.5 * fujiwara_bound(p), _poly.DOUBLE)
    return p, (lambda z: rootfind._horner_scaled(p, z)), start


def extended_case():
    rng = np.random.default_rng(5)
    with _poly.workprec():
        p = _poly.asarray(list(rng.normal(size=21) + 1j * rng.normal(size=21)), _poly.EXTENDED)
        p = p / p[-1]
        dp = _poly.polyder(p)
    start = rootfind._start_points(20, 0.5 * fujiwara_bound(p), _poly.EXTENDED)
    return p, (lambda z: (np.polyval(p[::-1], z), np.polyval(dp[::-1], z))), start


def same_roots(a, b):
    """Bitwise equal complex roots, or equal mpc roots."""
    if a.dtype == object or b.dtype == object:
        return a.dtype == b.dtype and list(a) == list(b)
    return a.tobytes() == b.tobytes()


def counted(eval_pd, sizes):
    def wrapped(z):
        sizes.append(np.asarray(z).size)
        return eval_pd(z)
    return wrapped


@pytest.mark.parametrize("case", [eight_pole_case, balance_case, horner_case, extended_case])
@pytest.mark.parametrize("chunk", [1, 3])
def test_active_set_sweep_matches_dense_reference(monkeypatch, case, chunk):
    p, eval_pd, start = case()
    m = len(start)
    # `chunk` rows per block: many blocks, and a ragged last one whenever
    # the active count is not a multiple of it
    monkeypatch.setattr(rootfind, "CHUNK_ELEMENTS", chunk * m + 1)
    # the reference sweeps from where the Newton passes leave the roots
    prelude = []
    with _poly.workprec():
        begin, frozen = rootfind._newton_passes(counted(eval_pd, prelude), 1e-12, start)
        roots, resid, conv, trace = dense_aberth(eval_pd, begin, 1e-12, 200, frozen)
    assert conv.all() and any(k % 3 and k > 3 for k in trace)
    sizes = []
    if p is None:
        rs = solve(None, 1e-12, evaluator=counted(eval_pd, sizes), start=start)
    else:
        # the coefficient path of either precision
        rs = solve(p, 1e-12)
    if case is extended_case:
        # solve builds its own evaluator from the coefficients, so count
        # the calls of the shared sweep on the same inputs directly
        with _poly.workprec():
            again = rootfind._aberth(counted(eval_pd, sizes), 1e-12, start, 200)
        assert same_roots(again.roots, rs.roots)
    solved = list(sizes)  # the solve's calls, before any residual is read
    if case is extended_case:
        assert again.residuals.tobytes() == resid.tobytes()
    assert same_roots(rs.roots, roots)
    assert rs.residuals.tobytes() == resid.tobytes()
    assert np.array_equal(rs.converged, conv)
    assert rs.active_trace == tuple(trace) and rs.sweeps == len(trace)
    assert rs.certified == frozen.sum()
    if sizes:
        # the first Newton pass evaluates all m roots, each later one
        # and each sweep only the roots still moving after the previous
        # call, and the first read of the residuals all of them
        assert prelude[0] == m and prelude == sorted(prelude, reverse=True)
        assert solved[:len(prelude)] == prelude
        assert solved[len(prelude):] == trace and sizes == solved + [m]


def test_circle_starts_certify_nothing():
    # no start on a circle is near a root, so the second Newton pass
    # passes no point and halves no step, which ends the passes; the
    # sweeps run on every root
    p, eval_pd, start = horner_case()
    calls = []
    roots, frozen = rootfind._newton_passes(counted(eval_pd, calls), 1e-12, start)
    assert calls == [60, 60] and not frozen.any()
    assert roots.tobytes() == start.tobytes()
    rs = solve(p)
    assert rs.certified == 0 and rs.active_trace[0] == 60


def dense_disjoint(centers, radii):
    """The O(m^2) reference: disk k meets no other disk."""
    meets = np.abs(centers[:, None] - centers[None, :]) <= radii[:, None] + radii[None, :]
    np.fill_diagonal(meets, False)
    return ~meets.any(axis=1)


def test_disjoint_disks_match_the_dense_reference():
    rng = np.random.default_rng(2)
    for trial in range(200):
        m = int(rng.integers(0, 60))
        centers = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        if trial % 4 == 1:
            centers = centers.imag * 1j  # a vertical line
        radii = rng.exponential(0.5 / max(m, 1), m)
        if trial % 4 == 2 and m:
            radii[rng.integers(m)] = 5.0  # wider than the whole set
        assert np.array_equal(rootfind._disjoint(centers, radii),
                              dense_disjoint(centers, radii))
    # radii over eleven decades, centres on a 0.01 lattice (ties), pairs
    # made to touch, and now and then one disk of radius 3
    for trial in range(300):
        m = int(rng.integers(2, 400))
        centers = np.round(rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m), 2)
        radii = 10.0 ** rng.uniform(-12, -1, m)
        k = np.arange(0, m - 1, 7)
        radii[k + 1] = np.maximum(np.abs(centers[k + 1] - centers[k]) - radii[k], 0.0)
        if trial % 3 == 0:
            radii[rng.integers(m)] = 3.0
        assert np.array_equal(rootfind._disjoint(centers, radii),
                              dense_disjoint(centers, radii))
    # two disks one ulp either side of touching, where the rounding of
    # x - r and x + r can disagree with the distance test
    for trial in range(500):
        x, r, s = rng.integers(-20, 20) / 4, rng.integers(1, 40, 2) / 10, rng.integers(-1, 2)
        far = x + r.sum()
        centers = np.array([x, far + s * np.spacing(far)], dtype=complex)
        assert np.array_equal(rootfind._disjoint(centers, r), dense_disjoint(centers, r))


@pytest.mark.parametrize("centers, radii, free", [
    ([], [], []),
    ([1.0 + 1j], [3.0], [True]),
    ([0.0, 2.0], [0.5, 0.5], [True, True]),
    ([0.0, 2.0], [1.0, 1.0], [False, False]),  # touching disks meet
    ([-2.5, 2.5000000000000004], [1.5, 3.5], [False, False]),  # touching once rounded
    ([0.0, 2.0j, 5.0], [1.0, 1.0, 1.0], [False, False, True]),
    ([0.0, 0.5, 3.0, 9.0 + 1j], [0.1, 0.1, 0.1, 20.0], [False] * 4),
])
def test_disjoint_disks_small_cases(centers, radii, free):
    got = rootfind._disjoint(np.array(centers, dtype=complex), np.array(radii, dtype=float))
    assert got.tolist() == free


def test_residual_falls_back_to_nearest_neighbour():
    # exact roots as start points, with p' forced to 0 at two of them
    zs = np.array([0.0, 1.0, 3.0, 3.0 + 2.0j, -1.5j, 4.0 - 1.0j])
    flat = (3.0, -1.5j)

    def ev(z):
        z = np.asarray(z, dtype=complex)
        diff = z[:, None] - zs[None, :]
        pv = np.prod(diff, axis=1)
        dv = np.array([sum(np.prod(np.delete(row, j)) for j in range(len(zs)))
                       for row in diff])
        dv[np.isin(z, flat)] = 0.0
        return pv, dv

    rs = solve(None, evaluator=ev, start=zs.astype(complex))
    assert rs.roots.tobytes() == zs.astype(complex).tobytes()
    near = np.array([np.abs(np.delete(zs, k) - zs[k]).min()
                     for k in range(len(zs))])
    guarded = np.isin(zs, flat)
    assert np.array_equal(rs.residuals[guarded], near[guarded])
    assert np.all(rs.residuals[~guarded] == 0.0)


def test_extended_residual_falls_back_to_nearest_neighbour():
    # the extended path shares the guard of the double sweep: p' = 0 at
    # a root gives the nearest-neighbour distance there, not inf
    zs = [0.0, 1.0, 3.0, 3.0 + 2.0j, -1.5j, 4.0 - 1.0j]
    flat = (3.0, -1.5j)
    with _poly.workprec():
        exact = _poly.asarray(zs, _poly.EXTENDED)

        def ev(z):
            diff = z[:, None] - exact[None, :]
            pv = np.prod(diff, axis=1)
            dv = np.array([sum(np.prod(np.delete(row, j)) for j in range(len(zs)))
                           for row in diff], dtype=object)
            dv[[complex(w) in flat for w in z]] = 0
            return pv, dv

        rs = rootfind._aberth(ev, 1e-12, exact, 10)
    assert list(rs.roots) == list(exact) and rs.converged.all()
    assert rs.residuals.dtype == float
    near = np.array([min(abs(w - z) for w in zs if w != z) for z in zs])
    guarded = np.isin(zs, flat)
    assert np.array_equal(rs.residuals[guarded], near[guarded])
    assert np.all(rs.residuals[~guarded] == 0.0)


def extended_evaluator_case():
    """An evaluator solve in extended precision: three simple poles at n = 10."""
    form = rational.polar_form([1j, -1j, 2.0], (1, 1, 1), ((1.0,), (2.0,), (1.0 + 1j,)),
                               precision=_poly.EXTENDED)
    state = rational.derivative_state(form, 10)
    degree = rational.leading_term(state)[0]
    start = _poly.asarray(rational.balance_starts(state, form.diagram, degree), _poly.EXTENDED)
    return None, rational.newton_evaluator(state), start


def eager_residuals(eval_pd, roots):
    """|p|/|p'| at each root, or its nearest-neighbour distance where
    |p'| < TINY, formed at once at _poly.workprec()."""
    with _poly.workprec():
        pv, dv = eval_pd(roots)[:2]
        guard = np.abs(dv) < rootfind.TINY
        resid = (np.abs(pv) / np.where(guard, rootfind.TINY, np.abs(dv))).astype(float)
        resid[guard] = rootfind._nearest_distance(roots, np.flatnonzero(guard))
    return resid


@pytest.mark.parametrize("case", [horner_case, eight_pole_case, extended_evaluator_case])
def test_residuals_are_formed_on_first_read(monkeypatch, case):
    p, eval_pd, start = case()
    m = len(start)
    prelude = []
    with _poly.workprec():
        rootfind._newton_passes(counted(eval_pd, prelude), 1e-12, start)
    sizes = []
    if p is None:
        rs = solve(None, 1e-12, evaluator=counted(eval_pd, sizes), start=start)
    else:
        # the coefficient path evaluates by _horner_scaled
        horner = rootfind._horner_scaled
        monkeypatch.setattr(rootfind, "_horner_scaled",
                            lambda p, z: sizes.append(len(z)) or horner(p, z))
        rs = solve(p, 1e-12)
    # the solve calls the evaluator for its Newton passes and its sweeps
    # alone; the first read of the residuals calls it once on all m
    # roots, and a second read not at all
    solved = list(sizes)
    assert rs.sweeps and solved == prelude + list(rs.active_trace)
    first = rs.residuals
    assert sizes == solved + [m]
    assert rs.residuals is first and sizes == solved + [m]


@pytest.mark.parametrize("case", [horner_case, extended_case, eight_pole_case,
                                  extended_evaluator_case])
def test_residuals_match_the_eager_formula(case):
    # the coefficient and the evaluator path, in double and in extended
    p, eval_pd, start = case()
    rs = solve(None, 1e-12, evaluator=eval_pd, start=start) if p is None else solve(p, 1e-12)
    assert rs.residuals.dtype == float and len(rs.residuals) == len(start)
    assert rs.residuals.tobytes() == eager_residuals(eval_pd, rs.roots).tobytes()


@pytest.mark.parametrize("precision", [_poly.DOUBLE, _poly.EXTENDED])
def test_zero_bound_residuals_are_zero(precision):
    # z^3 returns from its Fujiwara bound 0 without sweeping; its
    # residuals are still formed on first read
    rs = solve(_poly.asarray([0.0, 0.0, 0.0, 1.0], precision))
    assert rs.sweeps == 0 and rs.residuals.tobytes() == np.zeros(3).tobytes()


def test_extended_residuals_are_read_at_the_solve_precision():
    # the same bytes read outside any workprec() block, inside one and at
    # 8 digits: formed at 15 or 8 digits they would differ
    _, eval_pd, start = extended_evaluator_case()
    solves = [solve(None, 1e-12, evaluator=eval_pd, start=start) for _ in range(3)]
    outside = solves[0].residuals
    with _poly.workprec():
        inside = solves[1].residuals
    with mpmath.workdps(8):
        low = solves[2].residuals
    assert outside.tobytes() == inside.tobytes() == low.tobytes()
    assert outside.tobytes() == eager_residuals(eval_pd, solves[0].roots).tobytes()


def test_no_convergence_rootset_yields_residuals(monkeypatch):
    rng = np.random.default_rng(3)
    p = rng.normal(size=40).astype(complex)
    monkeypatch.setitem(rootfind.MAX_SWEEPS, "double", 1)
    with pytest.raises(NoConvergence) as e:
        solve(p, tolerance=1e-15)
    rs = e.value.rootset
    monic = p / p[-1]
    want = eager_residuals(lambda z: rootfind._horner_scaled(monic, z), rs.roots)
    assert len(rs.residuals) == 39 and np.isfinite(rs.residuals).all()
    assert rs.residuals.tobytes() == want.tobytes()


def test_returned_arrays_are_read_only(monkeypatch):
    # residuals read the roots that were returned: no caller can move them
    rootsets = [solve([-1.0, 0.0, 0.0, 1.0]), solve([0.0, 0.0, 1.0])]
    monkeypatch.setitem(rootfind.MAX_SWEEPS, "double", 1)
    with pytest.raises(NoConvergence) as e:
        solve(np.random.default_rng(3).normal(size=40), tolerance=1e-15)
    for rs in rootsets + [e.value.rootset]:
        for a in (rs.roots, rs.converged):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]


def test_sweep_trace_on_every_path():
    # from the extended Fujiwara circle the Newton passes certify one
    # root of z^3 - 1, and the sweeps run on the other two
    rs = solve(_poly.asarray([-1.0, 0.0, 0.0, 1.0], "extended"), tolerance=1e-20)
    assert rs.sweeps == len(rs.active_trace) >= 1
    assert rs.certified == 1 and rs.active_trace[0] == 2
    assert list(rs.active_trace) == sorted(rs.active_trace, reverse=True)
    # z^3 has Fujiwara bound 0 and returns without sweeping
    rs = solve([0.0, 0.0, 0.0, 1.0])
    assert rs.sweeps == 0 and rs.active_trace == ()
