"""Rational functions in polar form and their iterated derivatives.

A rational function with poles z_1..z_d of orders r_1..r_d is stored as
its partial-fraction data: per pole, the coefficients a_{i,1}..a_{i,r_i}
of 1/(z-z_i)^j, plus an optional polynomial part pp.  Differentiation is
closed-form on this representation: derivative_state builds
Q^(n)/n! = sum_ij a_{i,j} (-1)^n C(j+n-1, n) (z-z_i)^(-j-n) + pp^(n)/n!
at any n from exact binomials, never by stepping, and the 1/n! keeps
coefficient growth polynomial in n.  Every routine takes the polynomial
part: numerator and newton_evaluator add its term while pp^(n) is
nonzero, so one numerator serves any Q = R/P, one pole or many.

deg R_n and alpha_n / n! have one source, leading_term, a closed form
from Q at infinity.  R_n itself is one rootfind.SumOfProducts (_model),
read two ways: its dense expansion (numerator) serves only where it is
short or is the output; zeros with two or more poles iterates on its
point evaluator (newton_evaluator) in either precision, and its Newton
prelude steps on z^K Q^(n) (_far_field_evaluator).
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _poly, measure, rootfind, voronoi
from ._poly import DOUBLE, EXTENDED
from .errors import CoefficientOverflow, DegreeCollapse, DuplicatePole, SharedRoot

__all__ = [
    "PolarForm",
    "DerivativeState",
    "NumeratorResult",
    "polar_decompose",
    "polar_form",
    "derivative_state",
    "leading_term",
    "numerator",
    "newton_evaluator",
    "balance_starts",
    "zeros",
    "degree_diagnostics",
]


def _check_distinct(poles):
    """Raise DuplicatePole if two locations coincide; return the scale.

    The tolerance is 1e-14 times the scale max(1, max |z_i|).
    """
    scale = max(max(abs(z) for z in poles), 1.0)
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if abs(poles[i] - poles[j]) <= 1e-14 * scale:
                raise DuplicatePole(f"poles {i} and {j} coincide")
    return scale


@dataclass(frozen=True)
class PolarForm:
    """Poles, orders, polar coefficients and polynomial part.

    coeffs[i] lists a_{i,1}..a_{i,r_i}, least to most singular; the top
    coefficient a_{i,r_i} must be nonzero.
    """

    poles: tuple
    orders: tuple
    coeffs: tuple
    polynomial_part: np.ndarray
    precision: str

    def __post_init__(self):
        if len(self.poles) < 1:
            raise ValueError("need at least one pole")
        _check_distinct(self.poles)
        for i, (r, cs) in enumerate(zip(self.orders, self.coeffs)):
            if r < 1 or len(cs) != r:
                raise ValueError(f"pole {i}: order/coefficient mismatch")
            if abs(cs[-1]) == 0.0:
                raise ValueError(f"pole {i}: top coefficient is zero")

    @property
    def d(self):
        return len(self.poles)

    @property
    def r(self):
        return sum(self.orders)

    @functools.cached_property
    def diagram(self):
        """voronoi.build of the poles, built once per form on first read."""
        return voronoi.build([complex(z) for z in self.poles])

    def evaluate(self, z):
        """Value of the function at z (z not a pole)."""
        return derivative_state(self, 0).evaluate(z)


@dataclass(frozen=True)
class DerivativeState:
    """The n-th derivative of a PolarForm, scaled by 1/n!.

    scaled_coeffs[i][j-1] holds c_{i,j,n} = a_{i,j} (-1)^n C(j+n-1, n)
    and poly_part_scaled the coefficients C(k, n) pp_k of pp^(n)/n!, so
    that Q^{(n)}(z)/n! = sum_ij c_{i,j,n} (z-z_i)^{-(j+n)} + pp^(n)(z)/n!.
    derivative_state builds it.
    """

    base: PolarForm
    n: int
    scaled_coeffs: tuple
    poly_part_scaled: np.ndarray

    def evaluate(self, z):
        """Q^{(n)}(z) / n! at a non-pole point z."""
        acc = _poly.polyval(self.poly_part_scaled, z)
        for zi, cs in zip(self.base.poles, self.scaled_coeffs):
            w = 1.0 / (z - zi)
            wp = w ** (1 + self.n)
            for c in cs:
                acc = acc + c * wp
                wp = wp * w
        return acc


@dataclass(frozen=True)
class NumeratorResult:
    """Monic numerator R_n of Q^{(n)} with its scale factor.

    Q^{(n)} = alpha_n R_n / (P P0^n) where P0 = prod (z - z_i).  The
    scale is stored factorial-free as alpha_n / n!, since alpha_n itself
    overflows for large n.
    """

    r_n: np.ndarray
    alpha_over_factorial: complex
    degree: int
    n: int

    @property
    def log_factorial_over_alpha(self):
        """log |n! / alpha_n| computed without forming n!."""
        return -math.log(abs(self.alpha_over_factorial))


def polar_form(poles, orders, coeffs, polynomial_part=None, precision=DOUBLE):
    """Build a PolarForm from plain python data."""
    pp = _poly.asarray(polynomial_part if polynomial_part is not None else [0.0], precision)
    return PolarForm(
        poles=tuple(_poly.scalar(z, precision) for z in poles),
        orders=tuple(int(r) for r in orders),
        coeffs=tuple(tuple(_poly.scalar(c, precision) for c in cs) for cs in coeffs),
        polynomial_part=pp,
        precision=precision,
    )


@_poly.workprec()
def polar_decompose(numer, denominator_poles, precision=DOUBLE):
    """Partial-fraction decomposition of numer / prod (z-z_i)^{r_i}.

    denominator_poles is a list of (location, order) with distinct
    locations, and the numerator must not vanish at any pole.  If the
    numerator degree reaches the denominator degree, the polynomial
    quotient is retained as the polynomial part.  The decomposition runs
    at _poly.EXTENDED_DPS digits whatever the precision, and polar_form
    rounds its coefficients once to the precision asked for.
    """
    numer = _poly.trim(_poly.asarray(numer, precision))
    poles = [_poly.scalar(z, precision) for z, _ in denominator_poles]
    orders = [int(r) for _, r in denominator_poles]
    scale = _check_distinct(poles)

    # reject a shared root: numerator value at each pole vs its own scale
    for zi in poles:
        mag = sum(abs(c) * max(1.0, abs(zi)) ** k for k, c in enumerate(numer))
        if abs(_poly.polyval(numer, zi)) <= 1e-10 * mag:
            raise SharedRoot(f"numerator vanishes at pole {complex(zi)}")

    num, exact = _poly.asarray(numer, EXTENDED), [_poly.scalar(z, EXTENDED) for z in poles]
    denom = _poly.product([_poly.asarray([-zi, 1.0], EXTENDED) for zi in exact], orders)
    poly_part, rem = _poly.polydivmod(num, denom)

    coeffs = []
    for i, (zi, ri) in enumerate(zip(exact, orders)):
        # Taylor coefficients at z_i of rem / prod_{l != i} (z-z_l)^{r_l}
        num_shift = _poly.taylor_shift(rem, zi)
        den = _poly.product([_poly.asarray([zi - zl, 1.0], EXTENDED) for zl in exact],
                            [0 if l == i else rl for l, rl in enumerate(orders)])
        inv = _poly.series_inverse(den, ri)
        tay = np.convolve(num_shift[: ri + 1], inv)
        # a_{i, r_i - k} = k-th Taylor coefficient; the top one is
        # rem(z_i)/den(z_i), nonzero by the gcd check
        coeffs.append(tay[ri - 1::-1])

    form = polar_form(poles, orders, coeffs, poly_part, precision)

    # recombination check of the rounded form at random points, against
    # the denominator as its product: expanded, it rounds past 1e-10 near
    # a high-order pole
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = _poly.scalar(complex(rng.normal(), rng.normal()) * 2.0 * scale, precision)
        if min(abs(z - zi) for zi in poles) < 0.1 * scale:
            continue
        lhs = form.evaluate(z)
        rhs = _poly.polyval(numer, z) / math.prod((z - zi) ** ri for zi, ri in zip(poles, orders))
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
            raise ArithmeticError("partial fraction recombination check failed")
    return form


def _times_binomial(c, k, n):
    """c C(k, n) from the exact binomial.  An mpc product rounds once at the
    working precision; in double each part of c scales on its own, so a
    binomial past the float range gives |c C(k, n)| = inf, never NaN."""
    b = math.comb(k, n)
    if not isinstance(c, complex):
        return c * b
    try:
        b = float(b)
    except OverflowError:
        b = math.inf
    return complex(c.real * b if c.real else c.real, c.imag * b if c.imag else c.imag)


@_poly.workprec()
def derivative_state(form, n):
    """DerivativeState of Q^{(n)}/n!, in closed form, not by stepping.

    c_{i,j,n} = a_{i,j} (-1)^n C(j+n-1, n); pp^(n)/n! has C(k, n) pp_k at
    z^(k-n) for k >= n and is zero when n > deg pp.
    """
    coeffs = tuple(tuple(_times_binomial(-a if n % 2 else a, j + n, n) for j, a in enumerate(cs))
                   for cs in form.coeffs)
    pp = form.polynomial_part
    pp_n = [_times_binomial(pp[k], k, n) for k in range(n, len(pp))]
    return DerivativeState(form, n, coeffs, _poly.asarray(pp_n or [0.0], form.precision))


def _model(state):
    """R_n of state as a rootfind.SumOfProducts in the factors z - z_k.

    Term i is inner_i(z - z_i) prod_{k != i} (z - z_k)^{r_k + n}, where
    inner_i(w) = sum_j c_{i,j,n} w^{r_i - j}, j = 1..r_i.  A nonzero
    scaled polynomial part pp_n adds pp_n(z) prod_k (z - z_k)^{r_k + n};
    a zero one adds none, since a zero-weight term would still set the
    evaluator's per-point scale.
    """
    base, n, precision = state.base, state.n, state.base.precision
    rows = [[0 if k == i else r + n for k, r in enumerate(base.orders)] for i in range(base.d)]
    # trimmed, a weight expands in no more powers of z - z_i than it needs
    weights = [_poly.trim(_poly.asarray(cs[::-1], precision)) for cs in state.scaled_coeffs]
    centres = list(base.poles)
    pp = _poly.trim(_poly.asarray(state.poly_part_scaled, precision))
    if not _poly.is_zero(pp):
        rows.append([r + n for r in base.orders])
        weights.append(pp)
        centres.append(0.0)
    factors = tuple(_poly.asarray([-zk, 1.0], precision) for zk in base.poles)
    return rootfind.SumOfProducts(factors, tuple(rows), tuple(weights), tuple(centres))


@_poly.workprec()
def leading_term(state):
    """(deg R_n, alpha_n / n!) of Q^{(n)} = alpha_n R_n / (P P0^n), in closed form.

    Q = R/P is irreducible and every top polar coefficient is nonzero,
    so P P0^n is exactly the denominator of Q^{(n)}, and Q at infinity
    gives both numbers.  With a polynomial part of degree q >= n:
    deg R_n = r + q + n(d-1), alpha_n/n! = lc(pp) C(q, n).  Otherwise,
    with D' = deg R' and lambda' = lc R' for the pole part R'/P:
    deg R_n = D' + n(d-1), alpha_n/n! = lambda' (-1)^n C(r-D'-1+n, n).
    The one floor decision is on the short order-0 expansion R': a
    coefficient counts as zero when it is at most _poly.DEGREE_FLOOR
    times the magnitudes summed into its slot.  Raises DegreeCollapse
    if all of R' does.
    """
    base = state.base
    n, precision = state.n, base.precision
    pp = _poly.trim(base.polynomial_part)
    q = _poly.degree(pp)
    if not _poly.is_zero(pp) and n <= q:
        return base.r + q + n * (base.d - 1), _times_binomial(pp[-1], q, n)
    pole_part = DerivativeState(base, 0, base.coeffs, _poly.zeros(1, precision))
    total = _poly.zeros(base.r, precision)
    mags = np.zeros(base.r)
    for term in _model(pole_part).terms(base.r):
        total[: len(term)] += term
        mags[: len(term)] += [float(abs(c)) for c in term]
    top = base.r - 1
    while top >= 0 and abs(total[top]) <= _poly.DEGREE_FLOOR[precision] * mags[top]:
        top -= 1
    if top < 0:
        raise DegreeCollapse("numerator collapsed below the coefficient floor")
    # Q ~ lambda' z^(-j), j = r - D', at infinity, so alpha_n/n! is the
    # closed form of derivative_state for the top coefficient of a pole of order j
    alpha, j = total[top], base.r - top
    return top + n * (base.d - 1), _times_binomial(-alpha if n % 2 else alpha, j + n - 1, n)


@_poly.workprec()
def numerator(state):
    """Monic numerator R_n and scale of Q^{(n)} = alpha_n R_n/(P P0^n).

    The degree and alpha_n / n! come from leading_term; _model's
    expansion is cut to that degree and divided by its top coefficient.  Raises CoefficientOverflow when the result is not
    finite, as for three poles on the unit circle at n = 1000 in double
    precision.
    """
    degree, alpha = leading_term(state)
    total = _model(state).expand(degree + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_n = total / total[-1]
    if not _poly.all_finite(r_n):
        raise CoefficientOverflow(
            f"order n={state.n} overflowed: R_n has non-finite coefficients")
    return NumeratorResult(r_n=r_n, alpha_over_factorial=alpha, degree=degree, n=state.n)


def newton_evaluator(state):
    """Point evaluator z -> (N, N') of the unexpanded numerator, up to a
    per-point scale: _model's rootfind.SumOfProducts.evaluator, in the
    form's precision.  At large n the expanded coefficients span hundreds
    of orders of magnitude and coefficient Horner loses the roots to
    cancellation; the product form, in log space, stays well conditioned.
    """
    return _model(state).evaluator()


def _far_field_evaluator(state, degree):
    """newton_evaluator's (N, N') and a callable that forms N' - h N, with
    N/(N' - h N) the Newton step of G(z) = z^K Q^(n)(z)/n! = z^K N(z) /
    prod_k (z - z_k)^t_k; only the Newton passes call it.

    t_k = n + r_k are the model's column maxima, K = sum_k t_k - degree
    and h = sum_k t_k/(z - z_k) - K/z.  G has the zeros of R_n and tends
    to a constant at infinity, so the poles' pull on a far-out point,
    about m/z in N/N', cancels.  h is formed EVAL_BLOCK points at a
    time, which bounds its temporaries, as one (poles, points) array
    summed pole by pole, so each output depends on its own point only.
    """
    evaluate = newton_evaluator(state)
    tops = np.array([state.n + r for r in state.base.orders], dtype=float)[:, None]
    poles = _poly.asarray(state.base.poles, state.base.precision)[:, None]
    excess = tops.sum() - degree

    def pull(z):
        if len(z) == 1:  # numpy sums one column pairwise: pair a single point
            return pull(np.repeat(z, 2))[:1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return (tops / (z - poles)).sum(axis=0) - excess / z

    def eval_pdq(z):
        p, dp = evaluate(z)
        z = np.atleast_1d(z)

        def q():
            out = np.empty_like(dp)
            for s in range(0, len(z), rootfind.EVAL_BLOCK):
                b = slice(s, s + rootfind.EVAL_BLOCK)
                out[b] = dp[b] - pull(z[b]) * p[b]
            return out

        return p, dp, q

    return eval_pdq


def _edge_balance_zeros(state, i, j):
    """Starts at the zeros of the two leading terms of poles i and j in Q^(n)/n!.

    c_i (z-z_i)^(-n-r_i) + c_j (z-z_j)^(-n-r_j) = 0 with c = the top
    scaled coefficient of each pole.  In u = (z-z_j)/(z-z_i) = e^w,
    0 < Im w < 2 pi, and g = z_j - z_i it reads
        F(w) = N w - delta Log(1-u) - (Log(-c_j/c_i) - delta Log g) - 2 pi i k = 0,
    N = n + r_j, delta = r_j - r_i, and z = z_i + g/(1-u).  On |u| = 1,
    Im F rises by n + (r_i+r_j)/2 per unit of Im w, so branch k has one
    zero, started there with Re w from Re F = 0 at |1-u| = 2 sin(Im w / 2):
    for equal orders the closed form u^N = -c_j/c_i of asympt.twopole_zeros.
    rootfind's Newton passes polish the starts on all of Q^(n).
    """
    base = state.base
    zi, g = complex(base.poles[i]), complex(base.poles[j]) - complex(base.poles[i])
    delta = base.orders[j] - base.orders[i]
    big = state.n + base.orders[j]
    slope = big - 0.5 * delta
    ci, cj = (complex(state.scaled_coeffs[k][-1]) for k in (i, j))
    rhs = cmath.log(-cj / ci) - delta * cmath.log(g)
    # Im F = slope * Im w - phase - 2 pi k on |u| = 1
    phase = rhs.imag - 0.5 * math.pi * delta
    k = np.arange(math.floor(-phase / (2.0 * math.pi)) + 1,
                  math.ceil(slope - phase / (2.0 * math.pi)))
    theta = (phase + 2.0 * math.pi * k) / slope
    theta = theta[(theta > 1e-12) & (theta < 2.0 * math.pi - 1e-12)]
    w = (rhs.real + delta * np.log(2.0 * np.sin(0.5 * theta))) / big + 1j * theta
    return zi + g / (1.0 - np.exp(w))


def balance_starts(state, diagram, degree):
    """degree start points for the zeros of R_n, from the dominant balance.

    Near the Voronoi edge of poles i and j, Q^(n)/n! is its two leading
    terms up to an exponentially small error, and their zeros
    (_edge_balance_zeros) lie exponentially close to the zeros of R_n
    away from the vertices.  voronoi.balanced ranks them over the term
    logs log|c_k| - (n + r_k) log|z - z_k|, c_k the top scaled
    coefficient, and log|lc pp_n| + sum log|z - w| over the roots w of a
    nonzero pp_n.  A polynomial part at n <= deg pp, and some unequal
    pole orders, such as (3, 1) or (1, 4), leave fewer candidates than
    the degree; measure.skeleton_starts (fixed seed) fills the shortfall,
    so the result depends only on the inputs.
    """
    branches = [(np.log(abs(complex(cs[-1]))), -(state.n + r), [z])
                for cs, r, z in zip(state.scaled_coeffs, state.base.orders, state.base.poles)]
    pp = _poly.trim(np.array([complex(c) for c in state.poly_part_scaled]))
    if pp.any():
        branches.append((np.log(abs(pp[-1])), 1, np.roots(pp[::-1])))
    pairs = [e.pair for e in diagram.edges]
    pts = voronoi.balanced(pairs, [_edge_balance_zeros(state, *p) for p in pairs], branches, degree)
    if len(pts) < degree:
        pts = np.concatenate([pts, measure.skeleton_starts(diagram, degree - len(pts))])
    return pts


def zeros(form, n):
    """RootSet of R_n, the numerator of the n-th derivative of form.

    The one path from a PolarForm to derivative zeros, in either
    precision.  With two or more poles the Aberth iteration runs on
    newton_evaluator, with the Newton prelude's steps on z^K Q^(n)
    (_far_field_evaluator), in the precision of the balance_starts it
    starts from (the form's), and never expands R_n: the best balanced
    zeros of the two leading terms edge by edge, as many as
    leading_term's degree.
    With one pole R_n has degree at most r + deg pp, so its expansion
    (numerator) is short and finite, and the iteration runs on its
    coefficients.  Either way there is one attempt, at rootfind.solve's
    tolerance.  Raises ZeroPolynomial when R_n is a constant, and
    NoConvergence with that attempt's RootSet attached.
    """
    state = derivative_state(form, n)
    if form.d == 1:
        return rootfind.solve(numerator(state).r_n)
    degree, _ = leading_term(state)
    starts = _poly.asarray(balance_starts(state, form.diagram, degree), form.precision)
    return rootfind.solve(None, evaluator=_far_field_evaluator(state, degree), start=starts)


def degree_diagnostics(results):
    """Sequences (n, deg R_n / n, log|n!/alpha_n| / n) per result."""
    rows = []
    for res in results:
        n = res.n
        if n == 0:
            continue
        rows.append((n, res.degree / n, res.log_factorial_over_alpha / n))
    return rows
