"""Empirical zero measures and their comparison with the limit measure.

Ties the numerator/root machinery to the skeleton measure: project
roots onto edges, compare per-edge empirical CDFs with the exact
arctan CDF (Kolmogorov-Smirnov in the canonical t parameter), average
the potential gap on a jittered tensor grid, given by its two axes
(grid_axes), through one entry for the pole and the lemniscate case
(grid_l1) and its kernel (grid_discrepancy), and provide the exact
two-pole root formula as an independent oracle.  Only grid points near
an atom are skipped: the limit potentials (voronoi.psi, psi_max) are
finite at the sites, and only log|z - atom| is unbounded.
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
    "grid_axes",
    "grid_discrepancy",
    "grid_l1",
    "potential_l1",
    "twopole_zeros",
    "single_pole_escape",
]

# project_and_bin counts an atom off the skeleton beyond this fraction of
# its projected edge point's distance to the two defining sites
OFF_SKELETON_CUTOFF = 0.5
# grid points per row tile of grid_discrepancy, at least one whole row:
# a tile takes six arrays of this length, 37 bytes a point (2.4 MB), kept
# between calls in a workspace (_WORKSPACES), and fixes the shape of every
# matmul from the grid alone
GRID_TILE_POINTS = 1 << 16
# bound on atoms x (tile height + row length) per atom batch of
# grid_discrepancy, whose axis squares and group factors (these in the
# workspace) take about four arrays of this length (0.5 MB) whatever the
# number of atoms; larger batches ran slower on the 200 x 200 grid
GRID_BLOCK_POINTS = 1 << 14
# grid points per reference call of grid_discrepancy: a complex array of
# this length (64 KB) stays below glibc's default 128 KB mmap threshold,
# so the temporaries of voronoi.branch_logs reuse freed heap memory
# instead of mapping fresh pages on every call
GRID_REFERENCE_POINTS = 1 << 12
# largest |log2| of a product of scaled squared distances in
# grid_discrepancy: products stay normal doubles, 2^-1022 to 2^1024,
# with a margin for the rounding of the range itself
_PRODUCT_LOG2_MAX = 1020
# log 2 = _LN2_HI + _LN2_LO (fdlibm's split): _LN2_HI has 32 significant
# bits, so n * _LN2_HI / 2 is exact for |n| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# consecutive orders whose zeros must all lie outside the radius in
# single_pole_escape
ESCAPE_STREAK = 5
# the idle grid_discrepancy workspace, if any: a dict of flat arrays by
# name (_take), checked out for one call and put back when it returns,
# so a nested call takes a fresh one
_WORKSPACES = []


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform-weight atomic measure on the converged roots of R_n."""

    points: np.ndarray
    n: int
    excluded: int


def empirical(rootset, n):
    """Equal-weight measure on the converged roots; exclusions counted."""
    pts = np.asarray(rootset.roots).astype(complex)[rootset.converged]
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
    """assignments is four arrays in atom order: the points, the index of
    each atom's nearest edge in edges (-1 off the skeleton), its t on
    that edge and its distance to it."""

    n: int
    m_n: int
    edges: tuple
    off_skeleton_fraction: float
    mean_distance: float
    assignments: tuple = field(repr=False, default=())

    def as_dict(self):
        """The report without its assignments, as to_json writes it."""
        return {
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
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True)


def project_and_bin(measure, diagram):
    """Assign each atom to its nearest edge and compare CDFs per edge.

    An atom farther from its nearest edge than OFF_SKELETON_CUTOFF *
    (distance from the projected edge point to the defining sites) counts
    as off-skeleton mass; on a tie the first edge wins.  Per-edge KS is
    computed in t against the exact CDF normalized by the edge mass.

    Edge-major: per edge, t and the distance (EdgeSegment.project, t in
    real arithmetic, the distance by numpy's complex abs) are formed on
    contiguous atom arrays, and a strict < keeps the nearest edge.  A
    lexsort by (edge, t) puts each edge's on-skeleton atoms into one
    sorted run, so the CDF gaps take one pass and KS a max per run.
    """
    edges, d = diagram.edges, diagram.d
    z = np.asarray(measure.points, dtype=complex)
    m, x, y = len(z), z.real.copy(), z.imag.copy()
    mid = np.array([e.midpoint for e in edges])
    w = np.array([e.direction for e in edges])
    for k, e in enumerate(edges):
        tk = ((x - mid[k].real) * w[k].real + (y - mid[k].imag) * w[k].imag) / abs(w[k]) ** 2
        tk = np.clip(tk, e.t_lo, e.t_hi)
        dk = np.abs(z - (mid[k] + tk * w[k]))
        if k == 0:
            best, t, dist = np.zeros(m, dtype=int), tk, dk
            continue
        nearer = dk < dist
        for kept, new in ((best, k), (t, tk), (dist, dk)):
            np.copyto(kept, new, where=nearer)
    gap = np.array([e.gap for e in edges])[best]
    on = dist <= OFF_SKELETON_CUTOFF * (gap * np.sqrt(0.25 + t * t))
    edge = np.where(on, best, -1)

    # the on-skeleton atoms by (edge, t); run k holds edge k's atoms
    ts = t[np.lexsort((t, edge))[m - np.count_nonzero(on):]]
    counts = np.bincount(edge[on], minlength=len(edges))
    first = np.cumsum(counts) - counts
    masses = [edge_mass(e, d) for e in edges]
    f = np.concatenate([edge_cdf(e, ts[a:a + c], d) / mass
                        for e, mass, a, c in zip(edges, masses, first, counts)])
    size, rank = np.repeat(counts, counts), np.arange(len(ts)) - np.repeat(first, counts)
    # the empirical CDF just below and at each atom's t
    gaps = np.maximum(np.abs((rank + 1) / size - f), np.abs(rank / size - f))
    ks = np.ones(len(edges))  # an edge without atoms
    ks[counts > 0] = np.maximum.reduceat(gaps, first[counts > 0])
    comparisons = tuple(
        EdgeComparison(pair=e.pair, theoretical_mass=mass, empirical_fraction=c / m, ks=s)
        for e, mass, c, s in zip(edges, masses, counts.tolist(), ks.tolist()))
    return ComparisonReport(
        n=measure.n,
        m_n=m,
        edges=comparisons,
        off_skeleton_fraction=(m - len(ts)) / m,
        mean_distance=float(np.mean(dist)),
        assignments=(z, edge, t, dist),
    )


def grid_axes(window, grid, rng):
    """Axes (xs, ys) of the grid x grid tensor grid on window, jittered by rng.

    window is (center, half_side); the grid's points are xs[j] + 1j ys[i],
    row i by column j, and each axis is non-decreasing.
    """
    center, half = complex(window[0]), float(window[1])
    xs = (np.arange(grid) + rng.random(grid)) / grid
    ys = (np.arange(grid) + rng.random(grid)) / grid
    return (center.real - half) + 2.0 * half * xs, (center.imag - half) + 2.0 * half * ys


def _nearest_gaps(axis, values):
    """Distance from each of values to the nearest entry of axis."""
    axis = np.sort(axis)
    k = np.searchsorted(axis, values).clip(1, len(axis) - 1)
    return np.minimum(np.abs(axis[k - 1] - values), np.abs(axis[k] - values))


def _log_product_range(xs, ys, atoms, exclusion_radius):
    """(t, chunk) for grid_discrepancy, or None if every point is skipped.

    Every distance is at most far, the hypot of the largest real and
    the largest imaginary point-atom difference, and at least near, the
    hypot of an atom's nearest column and nearest row gap, least over
    the atoms; a kept point is also farther than r = exclusion_radius
    from every atom.  The scale s = 2^t, t = round(log2 sqrt(lo * far))
    for lo = max(r, near), is centred between the two, so a kept point's
    scaled squared distance q = (d / s)^2 lies in (2^-e, 2^e] for
    e = 2 max(log2(far / s), log2(s / lo)), and a product of
    chunk = floor(_PRODUCT_LOG2_MAX / e) of them is a normal double.
    Raises ValueError when far / lo is too wide for even one q to be.
    """
    span = [max(p.max() - a.min(), a.max() - p.min())
            for p, a in ((xs, atoms.real), (ys, atoms.imag))]
    far = math.hypot(*span)
    r = float(exclusion_radius)
    if not 0.0 < r < math.inf:
        raise ValueError(f"exclusion radius {r:g} is not positive and finite")
    if not math.isfinite(far):
        raise ValueError(f"largest point-atom distance {far:g} is not finite")
    if far <= r:
        return None
    near = float(np.hypot(_nearest_gaps(xs, atoms.real), _nearest_gaps(ys, atoms.imag)).min())
    lo, hi = math.log2(max(r, near)), math.log2(far)
    t = round(0.5 * (lo + hi))
    chunk = int(_PRODUCT_LOG2_MAX // (2.0 * max(hi - t, t - lo)))
    if chunk < 1:
        raise ValueError(f"distances from {max(r, near):g} to {far:g}"
                         " are too wide a range for doubles")
    return t, chunk


def _exclude(keep, rows, cols, r2):
    """Clear keep[i, j] where rows[k, i] + cols[k, j] <= r2 for some k.

    Both terms are squares, so such a crossing has rows[k, i] <= r2 and
    cols[k, j] <= r2: each near row of atom k is paired with each near
    column of the same atom, all atoms at once, and only those are added.
    """
    ka, i = np.nonzero(rows <= r2)
    kb, j = np.nonzero(cols <= r2)
    per_atom = np.bincount(kb, minlength=len(cols))
    # pair p of near row e takes near column first[ka[e]] + p of j
    first, count = np.cumsum(per_atom) - per_atom, per_atom[ka]
    at = np.repeat(first[ka] - (np.cumsum(count) - count), count) + np.arange(count.sum())
    k, i, j = np.repeat(ka, count), np.repeat(i, count), j[at]
    near = rows[k, i] + cols[k, j] <= r2
    keep[i[near], j[near]] = False


def _take(workspace, name, shape, dtype):
    """A view of the given shape on workspace[name], a flat array grown to
    the largest size asked of it; it holds whatever was last written."""
    size = math.prod(shape)
    if len(workspace.get(name, ())) < size:
        workspace[name] = np.empty(size, dtype)
    return workspace[name][:size].reshape(shape)


def _group_factors(rows, cols, size, workspace):
    """(left, right) with left[g].T @ right[g] = prod_k (rows[k, i] + cols[k, j])
    over the atoms k of group g, the size atoms from size * g on.

    left[g] and right[g] are the Kronecker products of the [rows[k]; 1]
    and of the [1; cols[k]], last atom first, so each of the 2^size terms
    is a product of squares and none cancels.  A short last group takes
    row term 1 and column term 0, a factor of exactly 1, for each atom it
    lacks.  Both are written into workspace arrays (_take).
    """
    groups = -(-len(rows) // size)
    left = _take(workspace, "left", (groups, 1 << size, rows.shape[1]), float)
    right = _take(workspace, "right", (groups, 1 << size, cols.shape[1]), float)
    left[:, 0] = right[:, 0] = 1.0
    for k in range(size):
        w, n = 1 << k, len(rows[k::size])
        left[:, w:2 * w] = left[:, :w]
        left[:n, :w] *= rows[k::size, None]
        np.multiply(right[:n, :w], cols[k::size, None], out=right[:n, w:2 * w])
        right[n:, w:2 * w] = 0.0
    return left, right


def grid_discrepancy(axes, atoms, log_norm, reference, exclusion_radius):
    """Mean of |L - reference| over the grid points away from the atoms.

    axes = (xs, ys) as from grid_axes: the points are xs[j] + 1j ys[i].
    L(z) = (log_norm[0] + sum_k log|z - atoms[k]|) / log_norm[1], and
    reference (voronoi.psi, lemniscate.psi_max) takes a 2-D block of at
    most GRID_REFERENCE_POINTS grid points, and sees each point once.
    Points within exclusion_radius of an atom are skipped, each once.
    Returns (mean, skipped count); the mean is NaN if all are skipped.
    Raises EmptyRootSet without atoms.

    The kernel runs over row tiles of as many whole rows as fit in
    GRID_TILE_POINTS points, at least one, in real arithmetic scaled by
    1/s.  A squared distance is a row term plus a column term,
    (y_i - a_y)^2 + (x_j - a_x)^2, so per atom it squares the two axes,
    and per group of three atoms one matmul of Kronecker factors
    (_group_factors) forms the product of their outer sums on the tile,
    which it multiplies into a running product; per chunk of atoms it
    adds up the log of the product's mantissa and its binary exponent
    apart.  The exponents meet log 2 once, as _LN2_HI + _LN2_LO, so no
    rounded log 2 shifts every point's L alike.  A point is skipped when
    such a sum is at most (r/s)^2; only the crossings of an atom's rows
    and columns within r are tested, so no per-point running minimum is
    kept.  s = 2^t and chunk come from the axes and atoms
    (_log_product_range), and a range doubles cannot hold raises
    ValueError rather than giving an inf or NaN mean.  The groups start
    at multiples of three atoms in each chunk, chunk rounded down to a
    multiple of three (or one group when below three), and the tiles at
    row 0, so the result follows the atoms and the grid alone: BLAS may
    round a sum of eight terms differently in a matmul of another shape.
    GRID_BLOCK_POINTS only bounds the atoms, in whole groups, whose axis
    squares and group factors are formed at a time, so memory does not
    grow with the number of atoms.

    Every tile-sized array, and the group factors, is written in place
    into a workspace of flat arrays (_take) that the call checks out of
    _WORKSPACES and puts back on return, grown to the largest tile seen
    and overwritten by each call, so repeated calls reuse their pages
    instead of faulting in fresh ones; a nested call, as from a
    reference, finds none idle and makes its own.  L is formed in place
    on the tile, the reference subtracted block by block (blocks of
    whole rows, or of row segments when a row is longer than a block):
    GRID_REFERENCE_POINTS keeps a block's complex temporaries under
    glibc's default 128 KB mmap threshold, so they reuse freed heap
    memory instead of fresh mapped pages.  An excluded point's gap is
    set to 0, and each tile adds one pairwise sum; kept points are
    counted from the exclusion mask.
    """
    xs, ys = (np.asarray(v, dtype=float) for v in axes)
    atoms = np.asarray(atoms, dtype=complex)
    if len(atoms) == 0:
        raise EmptyRootSet("no atoms for the log-potential")
    if len(xs) * len(ys) == 0:
        return math.nan, 0
    scaling = _log_product_range(xs, ys, atoms, exclusion_radius)
    if scaling is None:
        return math.nan, len(xs) * len(ys)
    t, chunk = scaling
    size = min(3, chunk)  # atoms per matmul
    chunk -= chunk % size
    inv = math.ldexp(1.0, -t)
    sx, sy = xs * inv, ys * inv
    ax, ay = atoms.real[:, None] * inv, atoms.imag[:, None] * inv
    r2 = (float(exclusion_radius) * inv) ** 2
    height = min(len(ys), max(1, GRID_TILE_POINTS // len(xs)))
    batch = size * max(1, GRID_BLOCK_POINTS // (size * (len(xs) + height)))
    width = min(len(xs), GRID_REFERENCE_POINTS)
    depth = GRID_REFERENCE_POINTS // width
    workspace = _WORKSPACES.pop() if _WORKSPACES else {}
    total, kept = 0.0, 0
    for top in range(0, len(ys), height):
        y = sy[top:top + height]
        shape = (len(y), len(xs))
        keep, dist, prod, logsum, power, twos = (
            _take(workspace, name, shape, dtype) for name, dtype in (
                ("keep", bool), ("dist", float), ("prod", float), ("logsum", float),
                ("power", np.int32), ("twos", float)))
        keep.fill(True)
        logsum.fill(0.0)
        twos.fill(0.0)
        # an excluded point's product may reach 0; its log is dropped
        with np.errstate(divide="ignore"):
            for lo in range(0, len(atoms), batch):
                rows = np.square(y - ay[lo:lo + batch])
                cols = np.square(sx - ax[lo:lo + batch])
                _exclude(keep, rows, cols, r2)
                # a BLAS matmul of inner length 8 writes a 200 x 200 tile in
                # about 15 us on one x86 core, as fast as one of inner length
                # 2, and a multiply takes about 12 us: one of each per group
                # of three atoms, where each atom took one of each
                left, right = _group_factors(rows, cols, size, workspace)
                for k, row, col in zip(range(lo, len(atoms), size), left, right):
                    if k % chunk == 0:
                        np.matmul(row.T, col, out=prod)
                    else:
                        np.multiply(prod, np.matmul(row.T, col, out=dist), out=prod)
                    if (k + size) % chunk == 0 or k + size >= len(atoms):
                        np.frexp(prod, out=(prod, power))
                        logsum += np.log(prod, out=prod)
                        twos += power
        # sum_k log|z - a_k| = (logsum + twos log 2) / 2 + len(atoms) t log 2,
        # L written into prod, which is free now (twos holds exact integers)
        twos += 2 * len(atoms) * t
        ln = np.multiply(twos, 0.5 * _LN2_LO, out=prod)
        ln += np.multiply(logsum, 0.5, out=logsum)
        ln += log_norm[0]
        ln += np.multiply(twos, 0.5 * _LN2_HI, out=twos)
        ln /= log_norm[1]
        tile_ys = ys[top:top + height]
        for i in range(0, len(y), depth):
            for j in range(0, len(xs), width):
                ln[i:i + depth, j:j + width] -= reference(
                    xs[j:j + width] + 1j * tile_ys[i:i + depth, None])
        np.abs(ln, out=ln)
        ln[~keep] = 0.0
        total += float(ln.sum())
        kept += np.count_nonzero(keep)
    _WORKSPACES[:] = [workspace]
    return (total / kept if kept else math.nan), len(xs) * len(ys) - kept


def grid_l1(atoms, log_norm, reference, window, grid, rng):
    """grid_discrepancy's mean on the grid_axes(window, grid, rng) grid.

    Grid points within 1e-3 of the window width of an atom are skipped,
    since log|z - atom| is integrable but unbounded there; more than 1%
    of the grid skipped raises ExclusionTooLarge.
    """
    value, skipped = grid_discrepancy(grid_axes(window, grid, rng), atoms, log_norm,
                                      reference, 1e-3 * 2.0 * float(window[1]))
    if skipped > 0.01 * grid * grid:
        raise ExclusionTooLarge(f"{skipped / (grid * grid):.2%} of samples excluded")
    return value


def potential_l1(roots, diagram, window, grid, seed=0):
    """Grid-average of |L_n - Psi| over a square window, by grid_l1.

    window is (center, half_side), and L_n is the normalized
    log-modulus of the root set.  Psi (voronoi.psi) is finite at the
    sites, so only grid points near a root are skipped.
    """
    sites = np.asarray(diagram.sites)
    return grid_l1(roots, (0.0, len(roots)), lambda z: psi(sites, z), window, grid,
                   np.random.default_rng(seed))


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


def single_pole_escape(numer, pole, order, radius, n_max=500):
    """Smallest N with all zeros of the n-th derivative outside |z| < radius.

    Q = numer/(z - pole)^order, decomposed once by rational.polar_decompose
    (which rejects a numerator vanishing at the pole); for each n the
    zeros of R_n come from rational.zeros, and the zero-free disk must
    persist for ESCAPE_STREAK consecutive n.  A constant R_n (ZeroPolynomial)
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
            if run >= ESCAPE_STREAK:
                return first
        else:
            first = None
            run = 0
    raise NotFound(n_max)
