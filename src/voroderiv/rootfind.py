"""Simultaneous root finding for complex polynomials.

Aberth-Ehrlich iteration with Newton corrections, on coefficients
(started on a circle sized from the Fujiwara root bound, evaluated by
Horner with on-the-fly rescaling) or on a point evaluator with given
start points, whose number is the degree.

One routine, _aberth, serves both precisions, as Bini (1996) states the
iteration for any arithmetic that can evaluate p/p': complex arrays, or
object arrays of mpmath.mpc at extended precision.  It first runs
Newton passes, O(m) each, while they converge (from a circle the second
pass halves no step and ends them), and freezes the points whose
inclusion disks |z - x| <= m|p(x)/p'(x)| (Henrici 1974) meet no other
such disk, so each holds a zero of its own.  An evaluator may return a
third output, a zero-argument callable that forms q, with p/q the
Newton step of a function with p's zeros (rational.zeros steps on
z^K Q^(n), whose poles cancel the pull of about m/z that R_n's m zeros
exert far out): a Newton pass calls it, and a point whose step p/p' has
not passed then moves by p/q if that stays inside its disk; the step
test and the disks stay on p/p', and the sweeps and the residuals never
form q.  These passes are the only Newton polish of the start points.
Jacobi sweeps then correct the rest from the positions at the start of
each sweep and freeze a root once its correction falls below the
tolerance.  A sweep evaluates only the
active roots and forms their Cauchy sums against all m roots in
cache-sized row blocks of at most CHUNK_ELEMENTS entries: O(active * m)
time, bounded memory.  Each row is summed over all m columns in index
order, so with a pointwise evaluator the roots do not depend on the
block size or on which other roots are still active.  The residuals
|p|/|p'| are formed on their first read (RootSet.residuals), by one
call of the solve's evaluator on all m roots in the solve's precision,
so a solve whose caller reads only the roots and their flags makes no
pass beyond its Newton passes and sweeps.

SumOfProducts models both structural numerators (rational._model,
lemniscate._model) and reads as a dense expansion or as a point
evaluator that forms its products of powers in log space, each row by
its complement against the column maxima (its logarithmic derivative as
a sum shared by all rows minus the complement's): O(d) per point for the
d-pole numerator.  Its elementwise functions are chosen per precision:
in double a log is log|p| + i arg p (_log), since numpy's complex log
also runs one element at a time.  The evaluator is row-stacked:
a fixed number of numpy calls on (rows, points) arrays per block.  It
sums over rows only on two or more points, as numpy sums one column
pairwise, and keeps each complex product's operand order, which sets
its last bit.  Like _aberth both run on complex arrays or on object
arrays of mpmath.mpc.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from . import _poly
from ._poly import DOUBLE, EXTENDED
from .errors import NoConvergence, ZeroPolynomial

__all__ = ["RootSet", "SumOfProducts", "fujiwara_bound", "solve"]

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

MAX_SWEEPS = {DOUBLE: 200, EXTENDED: 500}

# Newton passes, at most, before the first Aberth sweep
NEWTON_PASSES = 6

# guards |p'| and the Aberth denominator against division by zero
TINY = 1e-300

# the smallest normal double: below it a modulus has lost bits
_NORMAL_MIN = np.finfo(float).tiny

# complex entries in one block of the active-row Cauchy sums: 256 KB in
# double precision, the smallest block that is not slower (README.md has
# the measured sizes); a 4 MB block also set the solve's memory peak
CHUNK_ELEMENTS = 1 << 14

# points per block of SumOfProducts.evaluator's (rows, points) arrays:
# blocks are no slower than whole batches, which at thousands of points
# ran slower and would raise the solve's memory peak
EVAL_BLOCK = 512


@dataclass(frozen=True)
class RootSet:
    """Roots with convergence flags, and per-root residuals |p|/|p'| on demand.

    certified counts the roots the Newton passes froze, active_trace the
    roots moving at the start of each Aberth sweep after them, and sweeps
    those sweeps.  evaluator is the solve's point evaluator, kept for
    residuals; roots and converged are made read-only, so that residuals
    always reads the roots that were returned.
    """

    roots: np.ndarray
    converged: np.ndarray
    active_trace: tuple
    certified: int
    evaluator: object

    def __post_init__(self):
        self.roots.flags.writeable = False
        self.converged.flags.writeable = False

    @functools.cached_property
    def residuals(self):
        """|p|/|p'| at each root, as floats, or the distance to the nearest
        other root where |p'| < TINY: one evaluator call on all m roots,
        at _poly.workprec() as in the solve, on the first read only."""
        with _poly.workprec():
            pv, dv = self.evaluator(self.roots)[:2]
            guard = np.abs(dv) < TINY
            resid = (np.abs(pv) / np.where(guard, TINY, np.abs(dv))).astype(float)
            if guard.any():
                # derivative underflow: fall back to nearest-neighbour cluster radius
                resid[guard] = _nearest_distance(self.roots, np.flatnonzero(guard))
        return resid

    def __len__(self):
        return len(self.roots)

    @property
    def sweeps(self):
        return len(self.active_trace)

    @property
    def all_converged(self):
        return bool(self.converged.all())

    def converged_roots(self):
        return self.roots[self.converged]


def fujiwara_bound(p):
    """2 max_k |a_{deg-k}/a_deg|^{1/k}; contains every root."""
    p = _poly.trim(np.asarray(p))
    if _poly.degree(p) < 1 or abs(p[-1]) == 0.0:
        raise ZeroPolynomial("need degree >= 1")
    m = _poly.degree(p)
    lead = abs(p[-1])
    best = 0.0
    for k in range(1, m + 1):
        a = abs(p[m - k]) / lead
        if a > 0.0:
            best = max(best, float(a) ** (1.0 / k))
    return 2.0 * best


def _horner_scaled(coeffs, z):
    """p(z), p'(z) up to a common per-point scale; returns (p, dp).

    Accumulators are renormalized whenever they grow past 1e120, and
    remaining coefficients are fed in with the inverse scale.  The
    Newton ratio p/dp is unaffected.
    """
    z = np.asarray(z)
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    e = np.zeros(z.shape, dtype=float)  # log2 of the running scale
    for a in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + a * np.exp2(-e)
        big = np.abs(p) > 1e120
        if big.any():
            p[big] *= np.exp2(-400.0)
            dp[big] *= np.exp2(-400.0)
            e[big] += 400.0
    return p, dp


def _stack(polys, dtype):
    """The polynomials zero-padded as one (powers, rows, 1) array for _poly.polyval."""
    return np.array(list(itertools.zip_longest(*polys, fillvalue=0)), dtype=dtype)[:, :, None]


def _log(p, out):
    """np.log(p) into out, as log|p| + i arctan2(Im p, Re p) in real arithmetic.

    numpy's complex log runs one element at a time.  This form has the
    same branch cut (arctan2(-0.0, -1) = -pi) and differs from it by at
    most 2 ulp of max(1, |log p|) per part: |p| carries one rounding,
    which the log turns into an absolute error.  Where |p| is not a
    normal double (it overflows past 1.8e308, where the complex log
    does not, or is subnormal and has lost bits) it is np.log(p).
    """
    mod = np.abs(p)
    np.log(mod, out=out.real)
    np.arctan2(p.imag, p.real, out=out.imag)
    if not (mod.min(initial=np.inf) >= _NORMAL_MIN and mod.max(initial=0.0) < np.inf):
        odd = ~((mod >= _NORMAL_MIN) & (mod < np.inf))
        out[odd] = np.log(p[odd])
    return out


# elementwise log, exp and real part on object arrays of mpmath.mpc,
# since numpy's ufuncs do not dispatch to mpmath
_MPMATH_FUNCS = (np.frompyfunc(mpmath.log, 1, 1), np.frompyfunc(mpmath.exp, 1, 1),
                 np.frompyfunc(mpmath.re, 1, 1))


@dataclass(frozen=True)
class SumOfProducts:
    """N(z) = sum_i w_i(z - c_i) prod_k f_k(z)^{e_ik}, expanded or evaluated.

    factors holds the polynomials f_k, exponents the rows e_i of
    non-negative integers, weights the polynomials w_i in powers of
    z - c_i and centres the c_i, all of one _poly precision.  Both
    structural numerators are one: rational._model and lemniscate._model.
    """

    factors: tuple
    exponents: tuple
    weights: tuple
    centres: tuple

    def terms(self, length):
        """Each term expanded in powers of z, cut to length slots (None: whole)."""
        for row, w, c in zip(self.exponents, self.weights, self.centres):
            # w(z - c) in powers of z
            yield np.convolve(_poly.product(self.factors, row), _poly.taylor_shift(w, -c))[:length]

    def expand(self, length):
        """The first length coefficients of N, the terms added by Kahan's
        compensated summation."""
        precision = _poly.precision_of(self.factors[0])
        total, comp = _poly.zeros(length, precision), _poly.zeros(length, precision)
        for term in self.terms(length):
            k = len(term)
            y = term - comp[:k]
            t = total[:k] + y
            comp[:k] = (t - total[:k]) - y
            total[:k] = t
        return total

    def evaluator(self):
        """Point evaluator z -> (N, N') up to a common per-point scale.

        Products of powers are formed in log space and scaled by the
        largest modulus per point, so degrees in the thousands neither
        overflow nor underflow; only N/N' and |N|/|N'| are meaningful.
        With t_k the column maxima, a row's sum of e_ik f_k'/f_k is the
        shared sum over t_k minus its complement t_k - e_ik's, and its log
        sum is minus the complement's alone: the shared sum of t_k log f_k
        is a per-point scale, and only its rounding would remain.  A term
        vanishing at an exact zero of a factor, to order
        sum_k e_ik [f_k = 0], adds nothing to N, and to N' only at order 1.
        Each output depends on its own point only.  Works on complex
        arrays, or on object arrays of mpmath.mpc (call it at
        _poly.workprec()).
        """
        precision = _poly.precision_of(self.factors[0])
        dtype = complex if precision == DOUBLE else object
        log, exp, real = (_log, np.exp, np.real) if precision == DOUBLE else _MPMATH_FUNCS
        # each polynomial, then its derivative: a linear factor's has one power
        factors, dfactors, weights, dweights = (
            _stack(ps, dtype) for fs in (self.factors, self.weights)
            for ps in (fs, [_poly.polyder(f) for f in fs]))
        centres = _poly.asarray(self.centres, precision)[:, None]
        # row i is sum_k top_k x_k + sum_k rows_ik x_k: top the column
        # maxima and rows minus the complements (one entry each for
        # rational._model)
        top = [max(col) for col in zip(*self.exponents)]
        rows = [[e - t for t, e in zip(top, row)] for row in self.exponents]
        top = np.array(top, dtype=dtype)[:, None]
        # slot j holds each row's j-th non-zero entry, or exponent 0 on
        # factor 0 where the row has fewer
        entries = [[(k, e) for k, e in enumerate(row) if e] for row in rows]
        slots = [(np.array([r[j][0] if j < len(r) else 0 for r in entries]),
                  np.array([[r[j][1] if j < len(r) else 0] for r in entries], dtype=dtype))
                 for j in range(max(1, *map(len, entries)))]

        def row_sums(x, shared):
            # sum_k e_ik x_k for each row i and each layer of the finite
            # (layers, factors, points) array x: the slots, plus the
            # shared sum on the layers shared selects
            sums = sum(x[:, idx] * e for idx, e in slots)
            sums[shared] += (x[shared] * top).sum(axis=1, keepdims=True)
            return sums

        def block(z):
            if len(z) == 1:  # numpy sums one column pairwise: pair a single point
                return tuple(a[:1] for a in block(np.repeat(z, 2)))
            p, dp = _poly.polyval(factors, z), _poly.polyval(dfactors, z)
            zero = None if p.all() else p == 0
            safe = p if zero is None else np.where(zero, 1, p)
            x = np.empty((2,) + p.shape, dtype=dtype)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                log(safe, out=x[0])
                np.divide(dp, safe, out=x[1])
                # the shared sum of the logs is a per-point scale, which
                # logs - max cancels: only its rounding would remain
                logs, ratios = row_sums(x, slice(1, 2))
            u = z - centres if len(weights) > 1 else None  # constant weights need none
            w = _poly.polyval(weights, u)
            g = ratios * w if u is None else ratios * w + _poly.polyval(dweights, u)
            if zero is not None:
                order, dzero = row_sums(np.stack([zero, np.where(zero, dp, 0)]), slice(None))
                logs = np.where((order == 0) | (order == 1), logs, -np.inf)
                g = np.where(order == 0, g, dzero * w)
                w = np.where(order == 0, w, 0)
            b = exp(logs - real(logs).max(axis=0))
            return (b * w).sum(axis=0), (b * g).sum(axis=0)

        def eval_pd(z):
            z = np.atleast_1d(np.asarray(z, dtype=dtype))
            if len(z) <= EVAL_BLOCK:
                return block(z)
            parts = [block(z[s:s + EVAL_BLOCK]) for s in range(0, max(len(z), 1), EVAL_BLOCK)]
            return tuple(np.concatenate(a) for a in zip(*parts))

        return eval_pd


def _row_blocks(roots, idx):
    """Blocks of z_k - z_j for k in idx against all j, CHUNK_ELEMENTS at most.

    Yields (rows, diag, diff): diff[r, j] = roots[idx[rows][r]] - roots[j],
    and diag indexes the entries with j == k.
    """
    step = max(1, CHUNK_ELEMENTS // len(roots))
    for s in range(0, len(idx), step):
        k = idx[s:s + step]
        yield (slice(s, s + len(k)), (np.arange(len(k)), k),
               roots[k, None] - roots[None, :])


def _cauchy_sums(roots, idx):
    """sum_{j != k} 1/(z_k - z_j) for each k in idx."""
    sums = np.empty(len(idx), dtype=roots.dtype)
    for rows, diag, diff in _row_blocks(roots, idx):
        diff[diag] = 1.0
        inv = np.divide(1.0, diff, out=diff)  # in place: one block in memory
        inv[diag] = 0.0
        sums[rows] = inv.sum(axis=1)
    return sums


def _nearest_distance(roots, idx):
    """min_{j != k} |z_k - z_j| for each k in idx."""
    near = np.empty(len(idx))
    for rows, diag, diff in _row_blocks(roots, idx):
        diff[diag] = np.inf
        near[rows] = np.abs(diff).min(axis=1)
    return near


def _ratio(p, dp):
    """p/dp, with |dp| below TINY taken as TINY."""
    return p / np.where(np.abs(dp) < TINY, TINY, dp)


def _newton_pass(eval_pd, tolerance, roots, step, idx):
    """One Newton pass on roots[idx], in place: (passed, halved) masks.

    Each point moves by its step s = N/N' (0 if not finite), stored in
    step[idx], or, if eval_pd returns a third output, a callable that
    forms Q, by g = N/Q where s has not passed the sweep's test
    |s| < tolerance * (1 + |z - s|) and |g| <= m|s|, so that g stays
    inside the point's Henrici disk.  A step halves when |s| is at most
    half the point's last one.  A function of its own, so that a pass's
    arrays are freed before the next pass evaluates: they would raise
    the solve's memory peak.
    """
    z = roots[idx]
    pv, dv, *prelude = eval_pd(z)
    s = _ratio(pv, dv)
    finite = np.abs(s) < np.inf
    halved = np.abs(s) <= 0.5 * np.abs(step[idx])
    step[idx] = s
    roots[idx] = z - np.where(finite, s, 0.0)
    passed = finite & (np.abs(s) < tolerance * (1.0 + np.abs(roots[idx])))
    if prelude:
        g = _ratio(pv, prelude[0]())
        inside = finite & ~passed & (np.abs(g) <= len(roots) * np.abs(s))
        roots[idx[inside]] = z[inside] - g[inside]
    return passed, halved


def _newton_passes(eval_pd, tolerance, start):
    """(roots, frozen): Newton passes from start, then the disk certificate.

    Each _newton_pass evaluates the points whose step has not yet passed,
    until all have, a pass neither passes a point nor halves a step
    (steps start at inf), or NEWTON_PASSES.  A zero lies within m|s| of
    the point where s = N/N' was taken (Henrici), so within (m + 1)|s| +
    4 eps |z| of z, which a point that passed reached by s; it is frozen
    if that disk meets no other such disk, and the rest go back to their
    starts.
    """
    m = len(start)
    roots, step = start.copy(), np.full_like(start, np.inf)
    small = np.zeros(m, dtype=bool)
    for _ in range(NEWTON_PASSES):
        idx = np.flatnonzero(~small)
        passed, halved = _newton_pass(eval_pd, tolerance, roots, step, idx)
        small[idx[passed]] = True
        if small.all() or not (passed.any() or halved.any()):
            break
    radius = (m + 1) * np.abs(step) + 4.0 * np.finfo(float).eps * np.abs(roots)
    frozen = small.copy()
    frozen[small] = _disjoint(roots[small].astype(complex), radius[small].astype(float))
    roots[~frozen] = start[~frozen]
    return roots, frozen


def _disjoint(centers, radii):
    """Mask of the disks that meet no other one (touching disks meet).

    Sorted by left end x - r along the axis of wider spread, disk k is
    tested only against the later disks that start by its right end
    x_k + r_k: each x-overlapping pair once, no m x m matrix.
    """
    m = len(centers)
    if m and np.ptp(centers.imag) > np.ptp(centers.real):
        centers = -1j * centers
    order = np.argsort(centers.real - radii, kind="stable")
    z, r = centers[order], radii[order]
    # the right ends widened by 4 eps (|x + r| + max r), more than the
    # rounding of x - r, x + r and the distance test can move a meeting
    # pair's ends apart
    right = z.real + r + 4 * np.finfo(float).eps * (np.abs(z.real + r) + r.max(initial=0.0))
    reach = np.searchsorted(z.real - r, right, side="right")
    meets = np.zeros(m, dtype=bool)
    k = np.arange(m)
    for t in range(1, (reach - k).max(initial=1)):
        k = k[reach[k] > k + t]
        hit = np.abs(z[k + t] - z[k]) <= r[k + t] + r[k]
        meets[k[hit]] = meets[k[hit] + t] = True
    free = np.empty(m, dtype=bool)
    free[order] = ~meets
    return free


def _aberth(eval_pd, tolerance, start, max_sweeps):
    """_newton_passes, then Aberth sweeps on the rest on p/p'; complex or mpmath arrays alike."""
    roots, converged = _newton_passes(eval_pd, tolerance, start)
    certified = int(converged.sum())
    trace = []
    for _ in range(max_sweeps):
        idx = np.flatnonzero(~converged)
        if not len(idx):
            break
        trace.append(len(idx))
        pv, dv = eval_pd(roots[idx])[:2]
        newton = _ratio(pv, dv)
        corr = _ratio(newton, 1.0 - newton * _cauchy_sums(roots, idx))
        roots[idx] -= corr
        done = np.abs(corr) < tolerance * (1.0 + np.abs(roots[idx]))
        converged[idx[done]] = True
    return RootSet(roots=roots, converged=converged, active_trace=tuple(trace),
                   certified=certified, evaluator=eval_pd)


def _start_points(m, radius, precision):
    # golden-angle jitter keeps the start free of the symmetries that
    # stall the iteration on symmetric inputs
    angles = 2.0 * math.pi * np.arange(m) / m + GOLDEN_ANGLE * np.arange(m) / m + 0.31
    return _poly.asarray(radius * np.exp(1j * angles), precision)


def solve(p, tolerance=1e-12, evaluator=None, start=None):
    """All roots of a polynomial by Aberth-Ehrlich simultaneous iteration.

    The polynomial is given either by its coefficients p or, with p None,
    by an evaluator, never both.  Both run _aberth, on object arrays of
    mpmath.mpc at _poly.EXTENDED_DPS digits exactly when p, or start with
    an evaluator, is one (_poly.asarray(x, "extended")), else on complex.
    Newton passes freeze the roots they certify (RootSet.certified), and
    active-set Jacobi sweeps run on the rest (RootSet.sweeps counts these)
    until each step is below tolerance * (1 + |z|): 1e-12 in every solve
    of the package.  One attempt: NoConvergence is raised, with its
    RootSet attached, if it leaves unconverged roots; near the zeros a
    stall is the evaluation's rounding floor, which a restart does not lift.

    Coefficients must be finite (ValueError).  p is made monic and
    evaluated by scaled Horner (_horner_scaled) or, in extended
    precision, by _poly.polyval on mpc values.  start defaults to a
    jittered circle of radius 0.5 times fujiwara_bound.

    An evaluator maps an array of points to (p, p') up to a common
    per-point scale (rational.newton_evaluator for numerators whose
    expanded coefficients are too ill-scaled to evaluate), or to
    (p, p', q) with q a zero-argument callable that forms an array on
    the same scale, where p/q is the Newton step of a function with the
    same zeros: each Newton pass calls q once and steps by p/q where p/p'
    fails the step test and |p/q| <= m|p/p'|; the sweeps and the
    residuals never call it, and everything else reads p/p' alone.
    No coefficient is read: start is required, and its length is the
    degree.  Each output must depend only on its
    own input point: the first Newton pass passes all m roots, and each
    later call only the roots still moving.  The solve makes no residual
    call: RootSet keeps the evaluator, and the first read of its
    residuals passes all m roots, at _poly.workprec().
    """
    if (p is None) == (evaluator is None):
        raise ValueError("pass exactly one of coefficients and an evaluator")
    if p is None and start is None:
        raise ValueError("an evaluator needs start points")
    precision = EXTENDED if np.asarray(start if p is None else p).dtype == object else DOUBLE
    if p is not None:
        p = _poly.asarray(p, precision)
        if not _poly.all_finite(p):
            raise ValueError("polynomial has non-finite coefficients")
        p = _poly.trim(p)
    m = len(start) if p is None else _poly.degree(p)
    if m < 1:
        raise ZeroPolynomial("need degree >= 1")
    if p is not None:
        with _poly.workprec():
            p = p / p[-1]
            bound = fujiwara_bound(p)
            dp = _poly.polyder(p) if precision == EXTENDED else None
        if dp is None:
            evaluator = lambda z: _horner_scaled(p, z)
        else:
            # as columns, Horner starts from an array: an mpc times an ndarray
            # would first format the whole array into mpmath's conversion error
            evaluator = lambda z: (_poly.polyval(p[:, None], z), _poly.polyval(dp[:, None], z))
        if bound == 0.0:
            # z^m: every root is 0, and every residual reads 0
            return RootSet(_poly.zeros(m, precision), np.ones(m, dtype=bool), (), 0, evaluator)
        if start is None:
            start = _start_points(m, 0.5 * bound, precision)
    if len(start) != m:
        raise ValueError("start must supply one point per root")
    start = _poly.asarray(start, precision)
    with _poly.workprec():
        result = _aberth(evaluator, tolerance, start, MAX_SWEEPS[precision])
    if not result.all_converged:
        raise NoConvergence(
            f"{int((~result.converged).sum())} of {m} roots unconverged, "
            f"{result.certified} certified",
            rootset=result,
        )
    return result
