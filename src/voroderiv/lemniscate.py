"""Zero asymptotics of power sums of monic polynomials.

R_n = sum_i P_i^{m_i n} spreads its zeros along the boundary set where
the largest |P_i^{m_i}| changes hands, a lemniscate-type diagram.  If
one summand strictly dominates in degree, the zero sets stay in a disk
whose radius comes from an explicit dominance criterion, and the
normalized log-modulus converges to max_i m_i log |P_i| in the mean.

R_n is one rootfind.SumOfProducts (_model), expanded by build_rn.  The
zeros come as in rational.zeros, without expanding it: degree and lead
in closed form (leading_term), and Aberth on its point evaluator
(rn_evaluator) from the zeros of two balancing summands (balance_starts).
The summand logs m_i log|P_i| are sums over the roots of P_i
(LemniscateProblem.branches, read by voronoi.branch_logs and balanced).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _poly, asympt, rootfind, voronoi
from .errors import CoefficientOverflow, NoDominantDegree

__all__ = [
    "LemniscateProblem",
    "build_rn",
    "leading_term",
    "rn_evaluator",
    "psi_max",
    "dominance_radius",
    "balance_starts",
    "compactness_and_compare",
    "LemniscateReport",
]


@dataclass(frozen=True)
class LemniscateProblem:
    """Monic polynomials with optional per-summand exponent multipliers."""

    polynomials: tuple  # ascending coefficient arrays
    multipliers: tuple = None

    def __post_init__(self):
        polys = tuple(_poly.trim(_poly.asarray(p)) for p in self.polynomials)
        object.__setattr__(self, "polynomials", polys)
        if len(polys) < 2:
            raise ValueError("need at least two summands")
        for p in polys:
            if abs(p[-1] - 1.0) > 1e-12:
                raise ValueError("summands must be monic")
        if self.multipliers is None:
            object.__setattr__(self, "multipliers", (1,) * len(polys))
        elif len(self.multipliers) != len(polys):
            raise ValueError("one multiplier per summand")

    @property
    def degrees(self):
        return tuple(_poly.degree(p) for p in self.polynomials)

    @property
    def effective_degrees(self):
        """Degree growth rate of each summand per unit n."""
        return tuple(m * d for m, d in zip(self.multipliers, self.degrees))

    @functools.cached_property
    def branches(self):
        """(0, m_i, roots of P_i) per summand: m_i log|P_i| for voronoi.branch_logs.

        np.roots runs once per problem, not on every read."""
        return tuple((0.0, m, np.roots(p[::-1]))
                     for p, m in zip(self.polynomials, self.multipliers))


def _model(problem, n):
    """R_n's cleared numerator as a rootfind.SumOfProducts, every weight 1."""
    rows = tuple(_term_exponents(problem, n))
    return rootfind.SumOfProducts(problem.polynomials, rows,
                                  (_poly.asarray([1.0]),) * len(rows), (0.0,) * len(rows))


def build_rn(problem, n):
    """Dense expansion of sum_i P_i^{m_i n}, from _model.

    Negative multipliers are allowed (reciprocal summands): the common
    denominator prod_{m_j < 0} P_j^{-m_j n} is cleared first and the
    combined numerator is returned.  Raises CoefficientOverflow when a
    coefficient of the expansion is not finite in double precision.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = _model(problem, n).expand(leading_term(problem, n)[0] + 1)
    if not _poly.all_finite(total):
        raise CoefficientOverflow(
            f"order n={n} overflowed: R_n has non-finite coefficients")
    return total


def _term_exponents(problem, n):
    """Exponent matrix of the cleared-numerator expansion of build_rn."""
    mult = problem.multipliers
    # term i: P_i^{m_i n} if m_i > 0, times P_k^{-m_k n} for every other
    # k with m_k < 0 (the cleared denominator)
    return [[abs(m) * n if (k == i) == (m > 0) else 0 for k, m in enumerate(mult)]
            for i in range(len(mult))]


def leading_term(problem, n):
    """(deg R_n, lc R_n) of build_rn's numerator, in closed form.

    Each term is a product of monic polynomials, so deg R_n is the largest
    term degree and lc R_n the number of terms reaching it; the leads are
    positive integers and never cancel.
    """
    degs = [sum(e * d for e, d in zip(row, problem.degrees))
            for row in _term_exponents(problem, n)]
    return max(degs), degs.count(max(degs))


def rn_evaluator(problem, n):
    """Point evaluator z -> (R_n, R_n') up to a per-point scale: _model's
    rootfind.SumOfProducts.evaluator, well conditioned where the expanded
    coefficients span many orders of magnitude."""
    return _model(problem, n).evaluator()


def psi_max(problem, z):
    """max_i m_i log |P_i(z)| over problem.branches; z scalar (float out) or array."""
    best = voronoi.branch_logs(problem.branches, z).max(axis=0)
    return float(best) if best.ndim == 0 else best


def dominance_radius(problem):
    """Radius outside which the top-degree summand outweighs the rest.

    For |z| = R > rho_i, the largest root modulus of P_i (problem.branches),
    (R - rho_i)^deg_i <= |P_i(z)| <= (R + rho_i)^deg_i, and the gap
    between the dominant summand's lower bound on m log|P| and the other
    upper bounds grows with R.  Doubling R from 1 + max |coefficient|
    (at most 60 times) and bisection find where the gap exceeds
    log(k-1); 1.25 times that R is returned.  At every z with |z| at
    least that, |P_dom(z)|^m_dom > (k-1) |P_i(z)|^m_i for each i != dom,
    so all zeros of every R_n, n >= 1, lie inside it.
    """
    eff = problem.effective_degrees
    dom = int(np.argmax(eff))
    if sorted(eff)[-1] == sorted(eff)[-2]:
        raise NoDominantDegree("no strictly dominant summand degree")
    # rho_i with the sign of m_i: m_i log|P_i| >= e_i log(R - s_i) and
    # m_i log|P_i| <= e_i log(R + s_i)
    signed = [math.copysign(float(np.abs(roots).max(initial=0.0)), m)
              for _, m, roots in problem.branches]
    slack = math.log(len(eff) - 1)

    def dominated(radius):
        upper = max(e * math.log(radius + s)
                    for i, (e, s) in enumerate(zip(eff, signed)) if i != dom)
        return eff[dom] * math.log(radius - signed[dom]) > upper + slack

    lo = hi = 1.0 + max(float(np.abs(p).max()) for p in problem.polynomials)
    for _ in range(60):
        if dominated(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NoDominantDegree("dominance never reached")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if dominated(mid) else (mid, hi)
    return hi * 1.25


def balance_starts(problem, n, degree):
    """degree start points for the zeros of R_n, from two balancing summands.

    Where terms i and j lead, R_n ~ 0 means (A/B)^n = -1 for A/B =
    prod_k P_k^{f_k}, f = row i - row j of _term_exponents(problem, 1).
    With g = gcd(f) and A/B = (A'/B')^g, that is (A'/B')^{gn} = -1, so the
    zeros of A' - w B' for the g n values w^{gn} = -1 are candidates, as
    np.roots finds them (_stacked_roots): the zeros of A - w^g B, since
    A - u B = prod_{w^g = u} (A' - w B'), on companions g times smaller.
    voronoi.balanced ranks them over problem.branches.  The top term's
    pairs alone give deg R_n or more.
    """
    rows = np.array(_term_exponents(problem, 1))
    pairs = list(itertools.combinations(range(len(rows)), 2))
    pts = []
    for i, j in pairs:
        f = rows[i] - rows[j]
        g = int(np.gcd.reduce(f)) or 1
        omega = np.exp(1j * math.pi * (2 * np.arange(g * n) + 1) / (g * n))
        a = _poly.product(problem.polynomials, np.maximum(f // g, 0))
        b = _poly.product(problem.polynomials, np.maximum(-f // g, 0))
        coeffs = np.zeros((g * n, max(len(a), len(b))), dtype=complex)
        coeffs[:, :len(a)] += a
        coeffs[:, :len(b)] += -omega[:, None] * b
        pts.append(_stacked_roots(coeffs))
    return voronoi.balanced(pairs, pts, problem.branches, degree)


def _stacked_roots(coeffs):
    """np.roots of each row of ascending coeffs, concatenated row by row.

    The rows whose leading and trailing zero coefficients match share one
    stacked eigvals call on companion matrices built as np.roots builds
    them; a trailing zero is a root at 0, placed last.  No row is all zero.
    """
    desc = coeffs[:, ::-1]
    nonzero = desc != 0
    first = nonzero.argmax(axis=1)
    last = desc.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    out = [None] * len(desc)
    for lo, hi in set(zip(first.tolist(), last.tolist())):
        which = np.flatnonzero((first == lo) & (last == hi))
        p = desc[which, None, lo:hi + 1]
        m = hi - lo
        companion = np.zeros((len(which), m, m), dtype=complex)
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        companion[:, :1] = -p[:, :, 1:] / p[:, :, :1]
        roots = np.linalg.eigvals(companion)
        zeros = np.zeros((len(which), desc.shape[1] - 1 - hi), dtype=complex)
        for k, z in zip(which, np.concatenate([roots, zeros], axis=1)):
            out[k] = z
    return np.concatenate(out)


@dataclass(frozen=True)
class LemniscateReport:
    n_list: tuple
    max_root_modulus: tuple
    l1_discrepancy: tuple
    dominance_radius: float  # nan when no dominant degree
    compact: bool
    roots: tuple


def compactness_and_compare(problem, n_list, window, grid, seed=0):
    """Solve R_n for each n and measure convergence toward psi_max.

    Aberth runs once per n on rn_evaluator from balance_starts, at solve's
    step tolerance; a stall raises NoConvergence.  Without a strictly
    dominant degree the radius is NaN and only the pointwise comparison is
    meaningful.  The L1 gap to psi_max comes from asympt.grid_l1, which skips
    the grid points near a root (at most 1% of them, else ExclusionTooLarge).
    """
    try:
        radius = dominance_radius(problem)
    except NoDominantDegree:
        radius = float("nan")
    rng = np.random.default_rng(seed)
    max_mod = []
    l1 = []
    all_roots = []
    for n in n_list:
        degree, lead = leading_term(problem, n)
        rs = rootfind.solve(None, evaluator=rn_evaluator(problem, n),
                            start=balance_starts(problem, n, degree))
        all_roots.append(tuple(rs.roots))
        max_mod.append(float(np.abs(rs.roots).max()))
        l1.append(asympt.grid_l1(rs.roots, (math.log(lead), n),
                                 lambda z: psi_max(problem, z), window, grid, rng))
    return LemniscateReport(
        n_list=tuple(n_list),
        max_root_modulus=tuple(max_mod),
        l1_discrepancy=tuple(l1),
        dominance_radius=radius,
        compact=not math.isnan(radius),
        roots=tuple(all_roots),
    )
