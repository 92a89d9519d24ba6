"""The limit measure on the Voronoi skeleton and its potential.

On the edge between sites i and j, in the canonical parameter t, the
measure has density 1 / (2 (d-1) pi (1/4 + t^2)) dt, with the closed
arctan antiderivative.  Per-edge masses and CDFs therefore need no
quadrature; quadrature appears only in the logarithmic-potential
integral, after the substitution u = arctan(2t) that flattens the
density and maps unbounded edges to finite u-intervals.
"""

import math

import numpy as np

from .errors import OnSkeleton, OutOfInterval, SkeletonProximity
from .voronoi import distance_to_skeleton

__all__ = [
    "edge_density",
    "edge_mass",
    "edge_cdf",
    "edge_quantile",
    "total_mass",
    "skeleton_starts",
    "potential_from_measure",
    "cauchy_branch",
    "cauchy_transform",
    "cauchy_residual",
]

# skeleton_starts' normal offset, as a fraction of the diagram scale, and
# the seed of its generator
SKELETON_JITTER = 0.01
SKELETON_SEED = 0


def edge_density(edge, t, d):
    """Density of the limit measure with respect to dt on the edge."""
    if t < edge.t_lo or t > edge.t_hi:
        raise OutOfInterval(f"t={t} outside [{edge.t_lo}, {edge.t_hi}]")
    return 1.0 / (2.0 * (d - 1) * math.pi * (0.25 + t * t))


def edge_cdf(edge, t, d):
    """Mass of the edge below parameter t; arctan closed form.

    t is a scalar, giving a float, or a numpy array of parameters.
    """
    if isinstance(t, np.ndarray):
        u = np.arctan(2.0 * np.clip(t, edge.t_lo, edge.t_hi))
    else:
        u = math.atan(2.0 * min(max(t, edge.t_lo), edge.t_hi))
    return (u - math.atan(2.0 * edge.t_lo)) / ((d - 1) * math.pi)


def edge_mass(edge, d):
    return edge_cdf(edge, edge.t_hi, d)


def edge_quantile(edge, q, d):
    """t with edge_cdf(edge, t, d) = q, for 0 <= q <= edge_mass(edge, d)."""
    u = (d - 1) * math.pi * q + math.atan(2.0 * edge.t_lo)
    return 0.5 * math.tan(u)


def total_mass(diagram):
    """Sum of all edge masses; equals 1 for any valid diagram."""
    return sum(edge_mass(e, diagram.d) for e in diagram.edges)


def _panels(u_lo, u_hi, u_near):
    """Panel boundaries graded toward both endpoints over 15 halvings.

    Grading is applied unconditionally: even when an endpoint t is
    finite, a large |t| puts u close to +-pi/2 where tan varies fast,
    and graded panels keep the per-panel variation tame.  Panels are
    also refined dyadically around u_near (nearest point of the edge to
    the evaluation point) so that a nearby logarithmic peak is resolved.
    """
    pts = [u_lo, u_hi]
    width = u_hi - u_lo
    for k in range(1, 16):
        frac = 0.5 ** k
        pts.append(u_lo + frac * width * 0.5)
        pts.append(u_hi - frac * width * 0.5)
    if u_lo < u_near < u_hi:
        for k in range(0, 8):
            step = width * 0.25 * 0.5 ** k
            for u in (u_near - step, u_near, u_near + step):
                if u_lo < u < u_hi:
                    pts.append(u)
    return sorted(set(pts))


def skeleton_starts(diagram, count):
    """Initial root guesses spread over the skeleton by the limit law.

    Allocates `count` points across the edges proportionally to edge
    mass, places them at the mass quantiles, and offsets each
    perpendicular to its edge by a normal jitter of SKELETON_JITTER times
    the diagram scale, seeded SKELETON_SEED.  The zeros of a finite-order
    numerator lie off the skeleton, so rational.zeros starts from the
    two-term zeros of rational.balance_starts; these fill its shortfall
    only, from a polynomial part at n <= deg pp or unequal orders (3, 1).
    """
    rng = np.random.default_rng(SKELETON_SEED)
    masses = np.array([edge_mass(e, diagram.d) for e in diagram.edges])
    alloc = [int(round(count * x / masses.sum())) for x in masses]
    while sum(alloc) < count:
        alloc[int(np.argmax(masses))] += 1
    while sum(alloc) > count:
        alloc[int(np.argmax(alloc))] -= 1
    pts = []
    for e, k, mass in zip(diagram.edges, alloc, masses):
        offset = 1j * e.direction / abs(e.direction) * SKELETON_JITTER * diagram.scale
        for i in range(k):
            t = edge_quantile(e, (i + 0.5) / k * mass, diagram.d)
            pts.append(e.point(t) + offset * rng.standard_normal())
    return np.array(pts, dtype=complex)


def potential_from_measure(diagram, z):
    """integral of log|z - zeta| over the limit measure, by quadrature.

    Gauss-Legendre in u = arctan(2t) per edge, with panels graded
    toward endpoints that map to t = +-inf (where the integrand has a
    mild logarithmic endpoint singularity), 25 nodes per panel.  z must
    stay off the skeleton so the integrand is smooth in the panel
    interiors.
    """
    z = complex(z)
    if distance_to_skeleton(diagram, z) < 1e-9 * diagram.scale:
        raise SkeletonProximity("z is on (or nearly on) the skeleton")
    d = diagram.d
    x, wts = np.polynomial.legendre.leggauss(25)
    acc = 0.0
    for e in diagram.edges:
        u_lo = math.atan(2.0 * e.t_lo)
        u_hi = math.atan(2.0 * e.t_hi)
        m, w = e.midpoint, e.direction
        t_near, _ = e.project(z)
        bounds = _panels(u_lo, u_hi, math.atan(2.0 * t_near))
        for a, b in zip(bounds[:-1], bounds[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            u = mid + half * x
            t = 0.5 * np.tan(u)
            zeta = m + t * w
            vals = np.log(np.abs(z - zeta))
            acc += half * (wts * vals).sum() / ((d - 1) * math.pi)
    return acc


def cauchy_branch(sites, i, z):
    """(d-1)^{-1} sum_{j != i} 1/(z - z_j), the Cauchy transform on cell i."""
    z = complex(z)
    return sum(1.0 / (z - complex(s))
               for j, s in enumerate(sites) if j != i) / (len(sites) - 1)


def cauchy_transform(sites, z):
    """Cauchy transform of the limit measure: the branch of z's cell."""
    dists = [abs(complex(z) - complex(s)) for s in sites]
    return cauchy_branch(sites, int(np.argmin(dists)), z)


def cauchy_residual(sites, z, diagram):
    """|prod_i (C(z) - branch_i(z))|; zero since C equals one branch.

    Points on the diagram's skeleton, where the branch choice is
    ambiguous, are rejected.
    """
    z = complex(z)
    if distance_to_skeleton(diagram, z) < 1e-12 * diagram.scale:
        raise OnSkeleton("branch choice ambiguous on the skeleton")
    c = cauchy_transform(sites, z)
    return math.prod(abs(c - cauchy_branch(sites, i, z)) for i in range(len(sites)))
