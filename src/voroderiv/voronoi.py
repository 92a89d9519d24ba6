"""Planar Voronoi diagrams by all-pairs bisector clipping.

Each candidate edge between sites i and j lives on the perpendicular
bisector z(t) = (z_i+z_j)/2 - t i (z_j - z_i), t real, and is clipped
against the half-planes closer to i than to every third site.  t is
the canonical edge parameter used throughout the measure code; the
ordering convention is i < j in every pair.

psi sums one log per site; lemniscate.psi_max is the largest of its
harmonic branches, which branch_logs evaluates with the same log rule;
balanced ranks both solvers' start points by those branches.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScale, DuplicateSites

__all__ = [
    "EdgeSegment",
    "VoronoiDiagram",
    "balanced",
    "branch_logs",
    "build",
    "cell_branch",
    "locate",
    "phi",
    "psi",
    "distance_to_skeleton",
]

COINCIDENCE_REL_TOL = 1e-9


@dataclass(frozen=True)
class EdgeSegment:
    """Bisector segment z(t) = midpoint + t * direction, t in [t_lo, t_hi]."""

    pair: tuple
    site_i: complex
    site_j: complex
    t_lo: float
    t_hi: float

    @property
    def midpoint(self):
        return 0.5 * (self.site_i + self.site_j)

    @property
    def direction(self):
        # t increases along -i (z_j - z_i)
        return -1j * (self.site_j - self.site_i)

    @property
    def gap(self):
        return abs(self.site_j - self.site_i)

    def point(self, t):
        return self.midpoint + t * self.direction

    def project(self, z):
        """(t, distance) of the nearest point of the segment to z."""
        w = self.direction
        t = ((z - self.midpoint) * w.conjugate()).real / abs(w) ** 2
        t = min(max(t, self.t_lo), self.t_hi)
        return t, abs(z - self.point(t))


@dataclass(frozen=True)
class VoronoiDiagram:
    sites: tuple
    edges: tuple
    vertices: tuple
    scale: float

    @property
    def d(self):
        return len(self.sites)

    def to_json(self):
        def tval(t):
            if math.isinf(t):
                return "inf" if t > 0 else "-inf"
            return t

        doc = {
            "sites": [{"re": z.real, "im": z.imag} for z in self.sites],
            "edges": [
                {
                    "pair": list(e.pair),
                    "t_lo": tval(e.t_lo),
                    "t_hi": tval(e.t_hi),
                }
                for e in self.edges
            ],
            "vertices": [{"re": v.real, "im": v.imag} for v in self.vertices],
        }
        return json.dumps(doc, sort_keys=True)


def build(sites):
    """Voronoi diagram of d >= 2 distinct sites."""
    sites = tuple(complex(z) for z in sites)
    d = len(sites)
    if d < 2:
        raise DuplicateSites("need at least two sites")
    diam = max(abs(a - b) for a in sites for b in sites)
    if diam == 0.0:
        raise DegenerateScale("all sites coincide")
    tol = COINCIDENCE_REL_TOL * diam
    for i in range(d):
        for j in range(i + 1, d):
            if abs(sites[i] - sites[j]) <= tol:
                raise DuplicateSites(f"sites {i} and {j} coincide")

    edges = []
    vertices = []
    for i in range(d):
        for j in range(i + 1, d):
            zi, zj = sites[i], sites[j]
            m = 0.5 * (zi + zj)
            w = -1j * (zj - zi)
            t_lo, t_hi = -math.inf, math.inf
            empty = False
            for k in range(d):
                if k in (i, j):
                    continue
                zk = sites[k]
                # |z - zi|^2 - |z - zk|^2 = A + B t <= 0 along the bisector
                a = abs(m - zi) ** 2 - abs(m - zk) ** 2
                b = 2.0 * (w.conjugate() * (zk - zi)).real
                if abs(b) <= 1e-15 * abs(w) * diam:
                    if a > tol * diam:
                        empty = True
                        break
                    continue
                t_star = -a / b
                if b > 0:
                    t_hi = min(t_hi, t_star)
                else:
                    t_lo = max(t_lo, t_star)
            # zero-length edges from cocircular degeneracies are dropped
            if empty or t_hi - t_lo <= tol / abs(w):
                continue
            edge = EdgeSegment((i, j), zi, zj, t_lo, t_hi)
            edges.append(edge)
            for t in (t_lo, t_hi):
                if math.isfinite(t):
                    vertices.append(edge.point(t))

    # dedupe vertices shared between edges
    unique = []
    for v in vertices:
        if all(abs(v - u) > tol for u in unique):
            unique.append(v)
    return VoronoiDiagram(sites=sites, edges=tuple(edges),
                          vertices=tuple(unique), scale=diam)


def locate(diagram, z):
    """(nearest cell index, tied indices) for a query point.

    The tie list has one entry away from the skeleton and lists every
    site within the coincidence tolerance of the minimum otherwise.
    """
    z = complex(z)
    dists = [abs(z - s) for s in diagram.sites]
    i = int(np.argmin(dists))
    tol = COINCIDENCE_REL_TOL * diagram.scale
    ties = [k for k, dist in enumerate(dists) if dist - dists[i] <= tol]
    return i, ties


def phi(sites, z):
    """min_i |z - z_i|."""
    return min(abs(complex(z) - complex(s)) for s in sites)


def branch_logs(branches, z):
    """offset + weight sum_c log|z - c| per branch (offset, weight, centres).

    Rows stack along a new first axis over z, a scalar or an array.  A
    distance is numpy's complex abs of z - c (np.hypot of the coordinate
    differences runs one element at a time), logged once per centre of
    each branch and summed in the order given; at a centre a branch is
    -inf for a positive weight and +inf for a negative one.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty((len(branches),) + z.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (offset, weight, cs) in enumerate(branches):
            # out[k, ...] is a view of row k even when z is a scalar
            out[k, ...] = offset + weight * sum((np.log(np.abs(z - complex(c))) for c in cs), 0.0)
    return out


def balanced(pairs, points, branches, degree):
    """The degree points whose branches pairs[g] = (i, j) balance best.

    A point of points[g] ranks by min(b_i, b_j) - max_{k != i, j} b_k
    over one branch_logs(branches, .) call on all the points, non-finite
    last; kept in order found.
    """
    z = np.concatenate(points)
    i, j = np.repeat(np.reshape(pairs, (-1, 2)), [len(p) for p in points], axis=0).T
    logs, col = branch_logs(branches, z), np.arange(len(z))
    with np.errstate(invalid="ignore"):
        low = np.minimum(logs[i, col], logs[j, col])
        logs[i, col] = logs[j, col] = -np.inf
        margin = low - logs.max(axis=0)
    keep = np.argsort(-np.where(np.isfinite(margin), margin, -np.inf), kind="stable")[:degree]
    return z[np.sort(keep)]


def psi(sites, z):
    """(d-1)^{-1}(sum_k log|z - z_k| - min_k log|z - z_k|), z scalar (float out) or array.

    One pass over the site logs keeps their minimum, their total and skip,
    the total without the first minimum: the nearest cell branch, bit for bit.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = (np.log(np.abs(z - complex(s))) for s in sites)
        low = total = next(rows)
        skip = 0.0
        for row in rows:
            skip = np.where(row < low, total, skip + row)
            low, total = np.minimum(low, row), total + row
    out = 0.0 + (1.0 / (len(sites) - 1)) * skip
    return float(out) if out.ndim == 0 else out


def cell_branch(sites, i, z):
    """The harmonic formula of cell i, (d-1)^{-1} sum_{k != i} log|z - z_k|.

    Defined at any z; psi equals it on cell i.
    """
    return float(branch_logs([(0.0, 1.0 / (len(sites) - 1), np.delete(sites, i))], z)[0])


def distance_to_skeleton(diagram, z):
    """Euclidean distance from z to the nearest edge segment."""
    z = complex(z)
    return min(e.project(z)[1] for e in diagram.edges)
