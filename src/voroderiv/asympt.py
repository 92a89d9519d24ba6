"""Empirical zero measures and their comparison with the limit measure.

Ties the numerator/root machinery to the skeleton measure: project
roots onto edges, compare per-edge empirical CDFs with the exact
arctan CDF (Kolmogorov-Smirnov in the canonical t parameter), average
the potential gap on a jittered grid, and provide the exact two-pole
root formula as an independent oracle.
"""

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rational
from .errors import EmptyRootSet, ExclusionTooLarge, NoConvergence, NotFound, ZeroPolynomial
from .measure import edge_cdf, edge_mass
from .voronoi import psi

__all__ = [
    "EmpiricalMeasure",
    "EdgeComparison",
    "ComparisonReport",
    "empirical",
    "project_and_bin",
    "grid_points",
    "grid_discrepancy",
    "potential_l1",
    "twopole_zeros",
    "single_pole_escape",
]

# grid points per block of grid_discrepancy, which keeps about eight
# float arrays of this length (4 MB) whatever the number of atoms
GRID_BLOCK_POINTS = 1 << 16
# largest |log2| of a product of scaled squared distances in
# grid_discrepancy: products stay normal doubles, 2^-1022 to 2^1024,
# with a margin for the rounding of the range itself
_PRODUCT_LOG2_MAX = 1020
# log 2 = _LN2_HI + _LN2_LO (fdlibm's split): _LN2_HI has 32 significant
# bits, so n * _LN2_HI / 2 is exact for |n| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform-weight atomic measure on the converged roots of R_n."""

    points: np.ndarray
    n: int
    excluded: int = 0


def empirical(rootset, n):
    """Equal-weight measure on the converged roots; exclusions counted."""
    pts = np.asarray([complex(z) for z in rootset.roots])[rootset.converged]
    if len(pts) == 0:
        raise EmptyRootSet("no converged roots")
    return EmpiricalMeasure(points=pts, n=n,
                            excluded=int((~rootset.converged).sum()))


@dataclass(frozen=True)
class EdgeComparison:
    pair: tuple
    theoretical_mass: float
    empirical_fraction: float
    ks: float


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    m_n: int
    edges: tuple
    off_skeleton_fraction: float
    mean_distance: float
    assignments: tuple = field(repr=False, default=())
    potential_l1: float = float("nan")

    def to_json(self):
        doc = {
            "n": self.n,
            "m_n": self.m_n,
            "edges": [
                {
                    "pair": list(e.pair),
                    "mass": e.theoretical_mass,
                    "empirical_fraction": e.empirical_fraction,
                    "ks": e.ks,
                }
                for e in self.edges
            ],
            "off_skeleton_fraction": self.off_skeleton_fraction,
            "mean_distance_to_skeleton": self.mean_distance,
            "potential_l1": None if math.isnan(self.potential_l1) else self.potential_l1,
        }
        return json.dumps(doc, sort_keys=True)


def _ks_statistic(ts, edge, d):
    """Sup gap between the empirical CDF of ts and the edge's CDF / mass."""
    ts = np.sort(ts)
    f = edge_cdf(edge, ts, d) / edge_mass(edge, d)
    steps = np.arange(len(ts) + 1) / len(ts)  # empirical CDF below, at ts
    return float(max(np.abs(steps[1:] - f).max(), np.abs(steps[:-1] - f).max()))


def project_and_bin(measure, diagram, off_skeleton_cutoff=0.5):
    """Assign each atom to its nearest edge and compare CDFs per edge.

    An atom farther from its nearest edge than cutoff * (distance from
    the projected edge point to the defining sites) counts as
    off-skeleton mass; on a tie the first edge wins.  Per-edge KS is
    computed in t against the exact CDF normalized by the edge mass.
    """
    edges = diagram.edges
    z = np.asarray(measure.points, dtype=complex)[:, None]
    mid = np.array([e.midpoint for e in edges])
    w = np.array([e.direction for e in edges])
    # EdgeSegment.project on every (atom, edge) pair, in real arithmetic
    dx, dy = z.real - mid.real, z.imag - mid.imag
    t = (dx * w.real + dy * w.imag) / np.array([abs(v) ** 2 for v in w])
    t = np.clip(t, [e.t_lo for e in edges], [e.t_hi for e in edges])
    dist = np.hypot(z.real - (mid.real + t * w.real),
                    z.imag - (mid.imag + t * w.imag))
    best = np.argmin(dist, axis=1)
    rows = np.arange(len(z))
    t, dist = t[rows, best], dist[rows, best]
    gap = np.array([e.gap for e in edges])[best]
    on = dist <= off_skeleton_cutoff * (gap * np.sqrt(0.25 + t * t))

    m = len(z)
    comparisons = []
    for k, e in enumerate(edges):
        ts = t[on & (best == k)]
        comparisons.append(EdgeComparison(
            pair=e.pair, theoretical_mass=edge_mass(e, diagram.d),
            empirical_fraction=len(ts) / m,
            ks=_ks_statistic(ts, e, diagram.d) if len(ts) else 1.0))
    pairs = [edges[k].pair if a else None for k, a in zip(best.tolist(), on.tolist())]
    return ComparisonReport(
        n=measure.n,
        m_n=m,
        edges=tuple(comparisons),
        off_skeleton_fraction=int((~on).sum()) / m,
        mean_distance=float(np.mean(dist)),
        assignments=tuple(zip(z[:, 0].tolist(), pairs, t.tolist(), dist.tolist())),
    )


def grid_points(window, grid, rng):
    """grid x grid points of window = (center, half_side), jittered by rng."""
    center, half = complex(window[0]), float(window[1])
    xs = (np.arange(grid) + rng.random(grid)) / grid
    ys = (np.arange(grid) + rng.random(grid)) / grid
    gx, gy = np.meshgrid(xs, ys)
    return ((center - half - 1j * half) + 2.0 * half * (gx + 1j * gy)).ravel()


def _log_product_range(points, atoms, exclusion_radius):
    """(t, chunk) for grid_discrepancy, or None if every point is skipped.

    Every distance is at most far, the hypot of the largest real and
    the largest imaginary point-atom difference, and a kept point is
    farther than r = exclusion_radius from every atom.  The scale
    s = 2^t, t = round(log2 sqrt(r * far)), is centred between the two,
    so a kept point's scaled squared distance q = (d / s)^2 lies in
    (2^-e, 2^e] for e = 2 max(log2(far / s), log2(s / r)), and a product
    of chunk = floor(_PRODUCT_LOG2_MAX / e) of them is a normal double.
    Raises ValueError when far / r is too wide for even one q to be.
    """
    span = [max(p.max() - a.min(), a.max() - p.min())
            for p, a in ((points.real, atoms.real), (points.imag, atoms.imag))]
    far = math.hypot(*span)
    r = float(exclusion_radius)
    if not 0.0 < r < math.inf:
        raise ValueError(f"exclusion radius {r:g} is not positive and finite")
    if not math.isfinite(far):
        raise ValueError(f"largest point-atom distance {far:g} is not finite")
    if far <= r:
        return None
    lo, hi = math.log2(r), math.log2(far)
    t = round(0.5 * (lo + hi))
    chunk = int(_PRODUCT_LOG2_MAX // (2.0 * max(hi - t, t - lo)))
    if chunk < 1:
        raise ValueError(f"distances up to {far:g} over exclusion radius {r:g}"
                         " are too wide a range for doubles")
    return t, chunk


def grid_discrepancy(points, atoms, log_norm, reference, exclusion_radius):
    """Mean of |L - reference| over the points away from every atom.

    L(z) = (log_norm[0] + sum_k log|z - atoms[k]|) / log_norm[1], and
    reference (voronoi.psi, lemniscate.psi_max) takes an array of
    points.  Points within exclusion_radius of an atom are skipped.
    Returns (mean, skipped count); the mean is NaN if all are skipped.
    Raises EmptyRootSet without atoms.

    The kernel runs atom by atom over blocks of GRID_BLOCK_POINTS
    points in real arithmetic.  It multiplies the squared distances,
    scaled by 1/s^2, into a running product, and per chunk of atoms adds
    up the log of the product's mantissa and its binary exponent apart;
    the exponents meet log 2 once, as _LN2_HI + _LN2_LO, so no rounded
    log 2 shifts every point's L alike.  s = 2^t and chunk come from all
    points and atoms (_log_product_range), so the result does not depend
    on the block size, and a range doubles cannot hold raises ValueError
    rather than giving an inf or NaN mean.
    """
    points = np.asarray(points, dtype=complex)
    atoms = np.asarray(atoms, dtype=complex)
    if len(atoms) == 0:
        raise EmptyRootSet("no atoms for the log-potential")
    if len(points) == 0:
        return math.nan, 0
    scaling = _log_product_range(points, atoms, exclusion_radius)
    if scaling is None:
        return math.nan, len(points)
    t, chunk = scaling
    inv = math.ldexp(1.0, -t)
    pairs = list(zip((atoms.real * inv).tolist(), (atoms.imag * inv).tolist()))
    chunks = [pairs[lo:lo + chunk] for lo in range(0, len(pairs), chunk)]
    r2 = (float(exclusion_radius) * inv) ** 2
    gaps = [np.empty(0)]
    for lo in range(0, len(points), GRID_BLOCK_POINTS):
        block = points[lo:lo + GRID_BLOCK_POINTS]
        x, y = block.real * inv, block.imag * inv
        dx, dy = np.empty_like(x), np.empty_like(x)
        nearest = np.full_like(x, np.inf)
        prod, logsum = np.empty_like(x), np.zeros_like(x)
        power, twos = np.empty(len(x), dtype=np.int32), np.zeros(len(x), dtype=np.int64)
        # an excluded point's product may reach 0; its log is dropped
        with np.errstate(divide="ignore"):
            for part in chunks:
                prod.fill(1.0)
                for ax, ay in part:
                    np.subtract(x, ax, out=dx)
                    np.multiply(dx, dx, out=dx)
                    np.subtract(y, ay, out=dy)
                    np.multiply(dy, dy, out=dy)
                    np.add(dx, dy, out=dx)
                    np.minimum(nearest, dx, out=nearest)
                    np.multiply(prod, dx, out=prod)
                np.frexp(prod, out=(prod, power))
                logsum += np.log(prod, out=prod)
                twos += power
        keep = nearest > r2
        # sum_k log|z - a_k| = (logsum + twos log 2) / 2 + len(atoms) t log 2
        twos = twos[keep] + 2 * len(atoms) * t
        ln = ((0.5 * logsum[keep] + twos * (0.5 * _LN2_LO) + log_norm[0])
              + twos * (0.5 * _LN2_HI)) / log_norm[1]
        gaps.append(np.abs(ln - reference(block[keep])))
    gaps = np.concatenate(gaps)
    return (float(gaps.mean()) if len(gaps) else math.nan), len(points) - len(gaps)


def potential_l1(roots, diagram, window, grid=200, exclusion_radius=None, seed=0):
    """Grid-average of |L_n - Psi| over a square window.

    window is (center, half_side).  L_n is the normalized log-modulus
    of the root set; sample points within exclusion_radius of an atom
    or a site are skipped (at most 1% of them, else ExclusionTooLarge,
    since the integrand is integrable but unbounded there).
    """
    if exclusion_radius is None:
        exclusion_radius = 1e-3 * 2.0 * float(window[1])
    pts = grid_points(window, grid, np.random.default_rng(seed))
    sites = np.asarray(diagram.sites)
    near_site = np.abs(pts[:, None] - sites).min(axis=1) <= exclusion_radius
    value, skipped = grid_discrepancy(pts[~near_site], roots, (0.0, len(roots)),
                                      lambda z: psi(sites, z), exclusion_radius)
    _check_exclusion(int(near_site.sum()) + skipped, len(pts))
    return value


def _check_exclusion(excluded, total):
    """ExclusionTooLarge if more than 1% of total grid points were excluded."""
    if excluded > 0.01 * total:
        raise ExclusionTooLarge(f"{excluded / total:.2%} of samples excluded")


def twopole_zeros(a1, a2, z1, z2, n):
    """Zeros of the (n-1)-th derivative of a1/(z-z1) + a2/(z-z2).

    Maps the n-th roots of -a1/a2 back through the Moebius map
    w -> (w z2 - z1)/(w - 1); a root landing at w = 1 has no preimage
    and is omitted, leaving n-1 zeros.
    """
    a1, a2, z1, z2 = complex(a1), complex(a2), complex(z1), complex(z2)
    if a1 * a2 == 0:
        raise ValueError("a1 and a2 must be nonzero")
    if z1 == z2:
        raise ValueError("poles must be distinct")
    b = cmath.exp(cmath.log(-a1 / a2) / n)  # principal n-th root
    eps = cmath.exp(2j * math.pi / n)
    out = []
    w = b
    for _ in range(n):
        if abs(w - 1.0) > 1e-12:
            out.append((w * z2 - z1) / (w - 1.0))
        w *= eps
    return out


def single_pole_escape(numer, pole, order, radius, n_max=500, streak=5):
    """Smallest N with all zeros of the n-th derivative outside |z| < radius.

    Q = numer/(z - pole)^order, decomposed once by rational.polar_decompose
    (which rejects a numerator vanishing at the pole); for each n the
    zeros of R_n come from rational.zeros, and the zero-free disk must
    persist for `streak` consecutive n.  A constant R_n (ZeroPolynomial)
    has no zeros at all; NoConvergence counts as a zero inside.
    """
    form = rational.polar_decompose(numer, [(pole, order)])
    first = None
    run = 0
    for n in range(n_max + 1):
        try:
            ok = min(abs(z) for z in rational.zeros(form, n).roots) > radius
        except ZeroPolynomial:
            ok = True
        except NoConvergence:
            ok = False
        if ok:
            if first is None:
                first = n
            run += 1
            if run >= streak:
                return first
        else:
            first = None
            run = 0
    raise NotFound(n_max)
