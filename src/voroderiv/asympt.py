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

from . import rational, rootfind
from .errors import EmptyRootSet, ExclusionTooLarge, NoConvergence, NotFound
from .measure import edge_cdf, edge_mass
from .voronoi import psi

__all__ = [
    "EmpiricalMeasure",
    "EdgeComparison",
    "ComparisonReport",
    "empirical",
    "project_and_bin",
    "potential_l1",
    "twopole_zeros",
    "single_pole_escape",
]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform-weight atomic measure on the converged roots of R_n."""

    points: np.ndarray
    n: int
    excluded: int = 0

    @property
    def weight(self):
        return 1.0 / len(self.points)


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


def _ks_statistic(ts, cdf, mass):
    """Sup gap between the empirical CDF of ts and cdf(t)/mass."""
    ts = np.sort(np.asarray(ts, dtype=float))
    n = len(ts)
    best = 0.0
    for k, t in enumerate(ts):
        f = cdf(t) / mass
        best = max(best, abs((k + 1) / n - f), abs(k / n - f))
    return best


def project_and_bin(measure, diagram, off_skeleton_cutoff=0.5):
    """Assign each atom to its nearest edge and compare CDFs per edge.

    An atom farther from its nearest edge than cutoff * (distance from
    the projected edge point to the defining sites) counts as
    off-skeleton mass.  Per-edge KS is computed in t against the exact
    CDF normalized by the edge mass.
    """
    d = diagram.d
    per_edge_ts = {e.pair: [] for e in diagram.edges}
    assignments = []
    off = 0
    dists = []
    for z in measure.points:
        best = None
        for e in diagram.edges:
            t, dist = e.project(z)
            if best is None or dist < best[1]:
                best = (t, dist, e)
        t, dist, e = best
        dists.append(dist)
        local = e.gap * math.sqrt(0.25 + t * t)  # projected point to its sites
        if dist > off_skeleton_cutoff * local:
            off += 1
            assignments.append((complex(z), None, t, dist))
            continue
        per_edge_ts[e.pair].append(t)
        assignments.append((complex(z), e.pair, t, dist))

    m = len(measure.points)
    edges = []
    for e in diagram.edges:
        ts = per_edge_ts[e.pair]
        mass = edge_mass(e, d)
        frac = len(ts) / m
        ks = _ks_statistic(ts, lambda t: edge_cdf(e, t, d), mass) if ts else 1.0
        edges.append(EdgeComparison(pair=e.pair, theoretical_mass=mass,
                                    empirical_fraction=frac, ks=ks))
    return ComparisonReport(
        n=measure.n,
        m_n=m,
        edges=tuple(edges),
        off_skeleton_fraction=off / m,
        mean_distance=float(np.mean(dists)),
        assignments=tuple(assignments),
    )


def potential_l1(roots, diagram, window, grid=200, exclusion_radius=None,
                 seed=0, max_excluded_fraction=0.01):
    """Grid-average of |L_n - Psi| over a square window.

    window is (center, half_side).  L_n is the normalized log-modulus
    of the root set; sample points within exclusion_radius of an atom
    or a site are skipped (their count must stay below the allowed
    fraction, since the integrand is integrable but unbounded there).
    """
    center, half = complex(window[0]), float(window[1])
    atoms = np.asarray([complex(z) for z in roots])
    if exclusion_radius is None:
        exclusion_radius = 1e-3 * 2.0 * half
    rng = np.random.default_rng(seed)
    xs = (np.arange(grid) + rng.random(grid)) / grid
    ys = (np.arange(grid) + rng.random(grid)) / grid
    gx, gy = np.meshgrid(xs, ys)
    pts = (center - half - 1j * half) + 2.0 * half * (gx + 1j * gy)
    pts = pts.ravel()

    total = 0.0
    count = 0
    excluded = 0
    for lo in range(0, len(pts), 4096):
        block = pts[lo:lo + 4096]
        sep = np.abs(block[:, None] - atoms[None, :])
        keep = sep.min(axis=1) > exclusion_radius
        for s in diagram.sites:
            keep &= np.abs(block - s) > exclusion_radius
        excluded += int((~keep).sum())
        ln = np.log(sep[keep]).mean(axis=1)
        psi_vals = np.array([psi(diagram.sites, z) for z in block[keep]])
        total += float(np.abs(ln - psi_vals).sum())
        count += int(keep.sum())
    if excluded > max_excluded_fraction * len(pts):
        raise ExclusionTooLarge(
            f"{excluded / len(pts):.2%} of samples excluded")
    return total / count


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

    Q = numer/(z - pole)^order; iterates the closed-form numerator (in
    its overflow-safe scaling) and the root solver, requiring the
    zero-free disk to persist for `streak` consecutive n.
    """
    first = None
    run = 0
    for n in range(n_max + 1):
        p = rational.single_pole_numerator_scaled(numer, pole, order, n)
        if len(p) == 1:
            ok = True  # constant numerator: no zeros at all
        else:
            try:
                rs = rootfind.solve(p, 1e-10)
            except NoConvergence:
                ok = False
            else:
                ok = min(abs(z) for z in rs.roots) > radius
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
