"""Zero asymptotics of power sums of monic polynomials.

R_n = sum_i P_i^{m_i n} spreads its zeros along the boundary set where
the largest |P_i^{m_i}| changes hands, a lemniscate-type diagram.  If
one summand strictly dominates in degree, the zero sets stay in a disk
whose radius comes from an explicit dominance criterion, and the
normalized log-modulus converges to max_i m_i log |P_i| in the mean.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _poly, asympt, rootfind
from .errors import CoefficientOverflow, NoDominantDegree

__all__ = [
    "LemniscateProblem",
    "build_rn",
    "rn_evaluator",
    "psi_max",
    "dominance_radius",
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


def build_rn(problem, n):
    """Dense expansion of sum_i P_i^{m_i n}.

    Negative multipliers are allowed (reciprocal summands): the common
    denominator prod_{m_j < 0} P_j^{-m_j n} is cleared first and the
    combined numerator is returned.  Raises CoefficientOverflow when a
    coefficient of the expansion is not finite in double precision.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = None
    for row in _term_exponents(problem, n):
        term = _poly.asarray([1.0])
        for p, e in zip(problem.polynomials, row):
            if e:
                term = _poly.polymul(term, _poly.polypow(p, e))
        total = term if total is None else _poly.polyadd(total, term)
    if not _poly.all_finite(total):
        raise CoefficientOverflow(
            f"order n={n} overflowed: R_n has non-finite coefficients")
    return _poly.trim(total, 1e-300)


def _term_exponents(problem, n):
    """Exponent matrix of the cleared-numerator expansion of build_rn."""
    mult = problem.multipliers
    k = len(problem.polynomials)
    neg = [j for j, m in enumerate(mult) if m < 0]
    rows = []
    for i in range(k):
        row = [0] * k
        if mult[i] > 0:
            row[i] += mult[i] * n
        for j in neg:
            if j != i:
                row[j] += -mult[j] * n
        rows.append(row)
    return rows


def rn_evaluator(problem, n):
    """Point evaluator (R_n, R_n') up to a common per-point scale.

    Works from the sum of products form in log space
    (rootfind.product_sum) rather than the dense expansion, which keeps
    root iterations well conditioned when the expanded coefficients
    span many orders of magnitude.  Only the ratio R_n/R_n' and the
    residual are meaningful.
    """
    polys = [np.asarray([complex(c) for c in p]) for p in problem.polynomials]
    ders = [np.polyder(p[::-1])[::-1] for p in polys]
    expo = _term_exponents(problem, n)

    def eval_pd(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        vals = np.array([np.polyval(p[::-1], z) for p in polys])
        dvals = np.array([np.polyval(dp[::-1], z) if len(dp) else np.zeros_like(z)
                          for dp in ders])
        return rootfind.product_sum(vals, dvals, expo)

    return eval_pd


def psi_max(problem, z):
    """max_i m_i log |P_i(z)|; -inf at common zeros of the maximizers.

    z is a scalar (float out) or an array of points.  A vanishing
    summand is the limit of m log|P|: -inf for m >= 0 and +inf for
    m < 0 (a pole of the reciprocal summand).
    """
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    best = np.full(z.shape, -np.inf)
    for p, m in zip(problem.polynomials, problem.multipliers):
        # Horner in real parts rounds as Python's complex scalars do;
        # numpy's complex multiply and abs round differently per CPU
        re, im = np.full(z.shape, p[-1].real), np.full(z.shape, p[-1].imag)
        for c in p[-2::-1]:
            re, im = re * x - im * y + c.real, re * y + im * x + c.imag
        v = np.hypot(re, im)
        with np.errstate(divide="ignore"):
            best = np.maximum(best, np.where(v > 0.0, m * np.log(v),
                                             np.inf if m < 0 else -np.inf))
    return float(best) if best.ndim == 0 else best


def dominance_radius(problem, samples=720, growth=1.25, max_doublings=60):
    """Radius outside which the top-degree summand outweighs the rest.

    Searches outward on circles until, at every sample angle,
    |P_dom(z)| exceeds (k-1) max_{i != dom} |P_i(z)| (in the
    multiplier-weighted sense), then bisects back for a tighter value.
    All zeros of every R_n, n >= 1, lie inside the returned radius.
    """
    eff = problem.effective_degrees
    dom = int(np.argmax(eff))
    if sorted(eff)[-1] == sorted(eff)[-2]:
        raise NoDominantDegree("no strictly dominant summand degree")
    k = len(problem.polynomials)
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    ring = np.exp(1j * theta)

    def dominated(radius):
        z = radius * ring
        logs = []
        for p, m in zip(problem.polynomials, problem.multipliers):
            v = np.abs(np.polyval(p[::-1], z))
            v = np.where(v <= 0.0, 1e-300, v)
            logs.append(m * np.log(v))
        logs = np.vstack(logs)
        others = np.delete(logs, dom, axis=0).max(axis=0)
        return bool((logs[dom] > others + math.log(max(k - 1, 1)) / 1.0).all())

    lo = 1.0 + max(float(np.abs(p).max()) for p in problem.polynomials)
    hi = lo
    for _ in range(max_doublings):
        if dominated(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        raise NoDominantDegree("dominance never reached on sampled circles")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if dominated(mid):
            hi = mid
        else:
            lo = mid
    return hi * growth


@dataclass(frozen=True)
class LemniscateReport:
    n_list: tuple
    max_root_modulus: tuple
    l1_discrepancy: tuple
    dominance_radius: float  # nan when no dominant degree
    compact: bool
    roots: tuple


def compactness_and_compare(problem, n_list, window, grid=120, seed=0,
                            exclusion_radius=None):
    """Solve R_n for each n and measure convergence toward psi_max.

    With a strictly dominant degree the report includes the dominance
    radius and checks every root against it; otherwise the radius is
    NaN and only the pointwise comparison is meaningful.
    """
    try:
        radius = dominance_radius(problem)
        compact = True
    except NoDominantDegree:
        radius = float("nan")
        compact = False
    if exclusion_radius is None:
        exclusion_radius = 1e-3 * 2.0 * float(window[1])
    rng = np.random.default_rng(seed)
    max_mod = []
    l1 = []
    all_roots = []
    for n in n_list:
        p = build_rn(problem, n)
        m = _poly.degree(p)
        bound = rootfind.fujiwara_bound(_poly.monic(p))
        # all roots lie inside the dominance radius, so a start circle
        # there beats the much larger Fujiwara circle
        first = radius if compact else 0.5 * bound
        rs = rootfind.solve(
            None, 1e-10, evaluator=rn_evaluator(problem, n),
            start=rootfind._start_points(m, first, _poly.DOUBLE),
            retry_start=lambda: rootfind._start_points(m, bound, _poly.DOUBLE))
        roots = np.asarray([complex(z) for z in rs.roots])
        all_roots.append(tuple(roots))
        max_mod.append(float(np.abs(roots).max()))
        l1.append(asympt.grid_discrepancy(
            asympt.grid_points(window, grid, rng), roots,
            (math.log(abs(complex(p[-1]))), n),
            lambda z: psi_max(problem, z), exclusion_radius)[0])
    return LemniscateReport(
        n_list=tuple(n_list),
        max_root_modulus=tuple(max_mod),
        l1_discrepancy=tuple(l1),
        dominance_radius=radius,
        compact=compact,
        roots=tuple(all_roots),
    )
