"""Empirical zero measures against the theoretical edge measure."""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from voroderiv import asympt, rational, rootfind, voronoi
from voroderiv.lemniscate import (LemniscateProblem, compactness_and_compare,
                                  leading_term, psi_max)
from voroderiv.measure import edge_cdf, edge_mass


def multiset_distance(found, expected):
    found = np.asarray(found, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    cost = np.abs(found[:, None] - expected[None, :])
    ri, ci = linear_sum_assignment(cost)
    return cost[ri, ci].max()


def two_pole_rootset(n):
    form = rational.polar_decompose([1.0], [(1j, 1), (-1j, 1)])
    return rational.zeros(form, n)


def test_twopole_oracle_frozen_values():
    # A1 = A2 = 1 with poles +-1: the second-derivative zeros are +-i
    assert multiset_distance(asympt.twopole_zeros(1, 1, 1, -1, 2),
                             [1j, -1j]) < 1e-12
    # rotating the poles rotates the zeros
    assert multiset_distance(asympt.twopole_zeros(1, 1, 1j, -1j, 2),
                             [1.0, -1.0]) < 1e-12


def test_twopole_oracle_count_and_bisector():
    zs = asympt.twopole_zeros(2.0, 1.0 + 0.5j, 0.3, 1.0 - 0.7j, 12)
    assert len(zs) == 12


def test_twopole_oracle_matches_solver():
    # zeros of the (n-1)-th derivative numerator equal the closed form
    a1, a2 = 2.0, 1.0 - 1.0j
    z1, z2 = 0.5, -0.5 + 0.3j
    n = 9
    form = rational.polar_form([z1, z2], [1, 1], [[a1], [a2]])
    rs = rational.zeros(form, n - 1)
    oracle = asympt.twopole_zeros(a1, a2, z1, z2, n)
    assert len(oracle) == len(rs) == n
    assert multiset_distance(rs.roots, oracle) < 1e-9


def test_empirical_measure_weights():
    rs = two_pole_rootset(20)
    em = asympt.empirical(rs, 20)
    assert em.n == 20
    assert len(em.points) == 20


def test_empty_rootset_rejected():
    # no residual is read, so the RootSet needs no evaluator
    rs = rootfind.RootSet(np.array([], dtype=complex), np.array([], dtype=bool), (), 0, None)
    with pytest.raises(asympt.EmptyRootSet):
        asympt.empirical(rs, 5)


def test_project_and_bin_two_pole():
    d = voronoi.build([1j, -1j])
    rep = asympt.project_and_bin(asympt.empirical(two_pole_rootset(20), 20), d)
    assert rep.m_n == 20
    assert rep.off_skeleton_fraction == 0.0
    assert rep.mean_distance < 1e-12
    assert len(rep.edges) == 1
    ec = rep.edges[0]
    assert ec.theoretical_mass == pytest.approx(1.0)
    assert ec.empirical_fraction == pytest.approx(1.0)
    assert 0.0 <= ec.ks < 0.1


def project_and_bin_reference(measure, diagram, cutoff=0.5):
    """The per-atom, per-edge loop that project_and_bin is checked against.

    Returns the assignments and {pair: ks} of the edges with atoms.
    """
    d = diagram.d
    per_edge_ts = {e.pair: [] for e in diagram.edges}
    assignments = []
    for z in measure.points:
        best = None
        for e in diagram.edges:
            t, dist = e.project(z)
            if best is None or dist < best[1]:
                best = (t, dist, e)
        t, dist, e = best
        local = e.gap * math.sqrt(0.25 + t * t)
        if dist > cutoff * local:
            assignments.append((complex(z), None, t, dist))
            continue
        per_edge_ts[e.pair].append(t)
        assignments.append((complex(z), e.pair, t, dist))
    ks = {}
    for e in diagram.edges:
        ts = sorted(per_edge_ts[e.pair])
        mass = edge_mass(e, d)
        worst = 0.0
        for k, t in enumerate(ts):
            f = edge_cdf(e, t, d) / mass
            worst = max(worst, abs((k + 1) / len(ts) - f), abs(k / len(ts) - f))
        if ts:
            ks[e.pair] = worst
    return assignments, ks


def test_project_and_bin_matches_loop_reference(monkeypatch):
    # criterion 13's eight poles at n = 50: 350 atoms over many edges
    rng = np.random.default_rng(11)
    poles = list(rng.normal(size=8) + 1j * rng.normal(size=8))
    form = rational.polar_decompose([1.0], [(p, 1) for p in poles])
    emp = asympt.empirical(rational.zeros(form, 50), 50)
    diagram = voronoi.build(poles)
    # a tight cutoff also sends some atoms off the skeleton
    for cutoff in (0.5, 0.01):
        monkeypatch.setattr(asympt, "OFF_SKELETON_CUTOFF", cutoff)
        rep = asympt.project_and_bin(emp, diagram)
        ref, ref_ks = project_and_bin_reference(emp, diagram, cutoff)
        z, edge, t, dist = rep.assignments
        pairs = [diagram.edges[k].pair if k >= 0 else None for k in edge.tolist()]
        assert list(zip(z.tolist(), pairs)) == [a[:2] for a in ref]
        off = sum(a[1] is None for a in ref)
        assert rep.off_skeleton_fraction == off / len(ref)
        assert cutoff == 0.5 or off > 0
        assert len(t) == len(dist) == len(ref)
        for a, b in zip(zip(t.tolist(), dist.tolist()), ref):
            assert abs(a[0] - b[2]) <= 1e-12 and abs(a[1] - b[3]) <= 1e-12
        assert rep.mean_distance == pytest.approx(
            np.mean([a[3] for a in ref]), rel=1e-12)
        for ec in rep.edges:
            if ec.pair in ref_ks:
                assert abs(ec.ks - ref_ks[ec.pair]) <= 1e-12
            else:
                assert ec.ks == 1.0 and ec.empirical_fraction == 0.0


def test_project_and_bin_tie_goes_to_the_first_edge():
    # the square's four edges meet at its centre 0, which is not on edge
    # 0, the bisector of the far site 6 and 1 + 1j; an atom there is at
    # distance 0 from each of the four, and the lowest index wins
    diagram = voronoi.build([6.0, 1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    at_zero = [k for k, e in enumerate(diagram.edges) if e.project(0j)[1] == 0.0]
    assert len(at_zero) == 4 and at_zero[0] > 0
    measure = asympt.EmpiricalMeasure(points=np.array([0j]), n=1)
    rep = asympt.project_and_bin(measure, diagram)
    assert rep.assignments[1].tolist()[0] == at_zero[0]
    assert rep.assignments[3].tolist()[0] == 0.0


def broadcast_project_and_bin(measure, diagram, cutoff):
    """The (atoms, edges) broadcast projection and per-edge KS that
    project_and_bin used before it went edge-major, kept verbatim:
    (best, on, t, dist, [ks per edge])."""

    def ks_statistic(ts, edge, d):
        ts = np.sort(ts)
        f = edge_cdf(edge, ts, d) / edge_mass(edge, d)
        steps = np.arange(len(ts) + 1) / len(ts)
        return float(max(np.abs(steps[1:] - f).max(), np.abs(steps[:-1] - f).max()))

    edges = diagram.edges
    z = np.asarray(measure.points, dtype=complex)[:, None]
    mid = np.array([e.midpoint for e in edges])
    w = np.array([e.direction for e in edges])
    dx, dy = z.real - mid.real, z.imag - mid.imag
    t = (dx * w.real + dy * w.imag) / np.array([abs(v) ** 2 for v in w])
    t = np.clip(t, [e.t_lo for e in edges], [e.t_hi for e in edges])
    dist = np.abs(z - (mid + t * w))
    best = np.argmin(dist, axis=1)
    rows = np.arange(len(z))
    t, dist = t[rows, best], dist[rows, best]
    gap = np.array([e.gap for e in edges])[best]
    on = dist <= cutoff * (gap * np.sqrt(0.25 + t * t))
    ks = []
    for k, e in enumerate(edges):
        ts = t[on & (best == k)]
        ks.append(ks_statistic(ts, e, diagram.d) if len(ts) else 1.0)
    return best, on, t, dist, ks


def test_project_and_bin_matches_the_broadcast_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(11)
    eight = list(rng.normal(size=8) + 1j * rng.normal(size=8))
    cube = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    cases = [(rational.polar_decompose([1.0], [(p, 1) for p in eight]), 50),
             (rational.polar_form(cube, (1, 1, 1), ((1.0,), (2.0,), (1.0 + 1j,))), 100)]
    for form, n in cases:
        emp = asympt.empirical(rational.zeros(form, n), n)
        for cutoff in (0.5, 0.01):
            monkeypatch.setattr(asympt, "OFF_SKELETON_CUTOFF", cutoff)
            rep = asympt.project_and_bin(emp, form.diagram)
            best, on, t, dist, ks = broadcast_project_and_bin(emp, form.diagram, cutoff)
            z, edge, t_new, dist_new = rep.assignments
            assert z.tobytes() == emp.points.tobytes()
            assert edge.tolist() == np.where(on, best, -1).tolist()
            assert t_new.tobytes() == t.tobytes() and dist_new.tobytes() == dist.tobytes()
            assert [ec.ks for ec in rep.edges] == ks
            assert rep.mean_distance == float(np.mean(dist))
            assert [ec.empirical_fraction for ec in rep.edges] == [
                int((on & (best == k)).sum()) / len(z) for k in range(len(ks))]


def test_ks_decreases_with_n():
    d = voronoi.build([1j, -1j])
    ks = []
    for n in (10, 40, 160):
        rep = asympt.project_and_bin(asympt.empirical(two_pole_rootset(n), n),
                                     d)
        ks.append(rep.edges[0].ks)
    assert ks[0] > ks[1] > ks[2]


def test_report_json_round_trip():
    import json
    d = voronoi.build([1j, -1j])
    rep = asympt.project_and_bin(asympt.empirical(two_pole_rootset(10), 10), d)
    data = json.loads(json.dumps(rep.as_dict(), sort_keys=True))
    assert data["m_n"] == 10
    assert data["edges"][0]["pair"] == [0, 1]


def test_potential_l1_decreases_with_n():
    d = voronoi.build([1j, -1j])
    vals = []
    for n in (10, 40, 160):
        rs = two_pole_rootset(n)
        vals.append(asympt.potential_l1(rs.roots, d, window=(0.0, 2.0),
                                        grid=40))
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] < 0.05


def test_grid_axes_span_the_jittered_grid():
    # the axes give, bit for bit, the points of the flattened complex grid
    # (center - h - ih) + 2h (gx + i gy) from the same draws
    for window, grid, seed in (((0.0, 2.0), 7, 0), ((0.3 - 1.7j, 0.05), 5, 3),
                               ((-40.0 + 8.0j, 300.0), 6, 11)):
        rng = np.random.default_rng(seed)
        gx, gy = np.meshgrid((np.arange(grid) + rng.random(grid)) / grid,
                             (np.arange(grid) + rng.random(grid)) / grid)
        want = (window[0] - window[1] - 1j * window[1]) + 2.0 * window[1] * (gx + 1j * gy)
        xs, ys = asympt.grid_axes(window, grid, np.random.default_rng(seed))
        assert np.array_equal(np.broadcast_to(xs, want.shape), want.real)
        assert np.array_equal(np.broadcast_to(ys[:, None], want.shape), want.imag)
        assert (np.diff(xs) >= 0).all() and (np.diff(ys) >= 0).all()


def test_potential_l1_independent_of_block_size(monkeypatch):
    d = voronoi.build([1j, -1j])
    roots = two_pole_rootset(40).roots
    value = asympt.potential_l1(roots, d, window=(0.0, 2.0), grid=25)
    for block in (1, 25, 3 * 25 + 7, 7 * 25):
        # each size forms the axis squares and group factors of one
        # group of three atoms at a time, the default all of them at
        # once; the row tiles follow the grid and stay as they are
        monkeypatch.setattr(asympt, "GRID_BLOCK_POINTS", block)
        assert asympt.potential_l1(roots, d, window=(0.0, 2.0),
                                   grid=25) == value


def scalar_discrepancy(points, atoms, log_norm, reference, exclusion_radius):
    """grid_discrepancy one point and one atom at a time, with math.log."""
    gaps = []
    for z in points.tolist():
        if min(abs(z - a) for a in atoms) <= exclusion_radius:
            continue
        total = math.fsum(math.log(abs(z - a)) for a in atoms)
        ref = float(reference(np.array([z]))[0])
        gaps.append(abs((log_norm[0] + total) / log_norm[1] - ref))
    return math.fsum(gaps) / len(gaps), len(points) - len(gaps)


def test_grid_discrepancy_matches_scalar_reference():
    sites = np.array([1j, -1j])
    roots = np.asarray(two_pole_rootset(40).roots)
    # criterion 12 at n = 80: away from the roots L_n equals psi_max to
    # rounding, so those points weigh the rounding of L_n in the mean
    c12 = LemniscateProblem(((0.0, 0.0, 1.0), (-3.0, 1.0)), (1, 1))
    c12_roots = np.asarray(compactness_and_compare(c12, [80], (0.0, 6.0), grid=16).roots[0])
    cases = (
        (roots, (0.0, len(roots)), lambda z: voronoi.psi(sites, z), (0.0, 2.0), sites),
        (c12_roots, (math.log(leading_term(c12, 80)[1]), 80),
         lambda z: psi_max(c12, z), (0.0, 6.0), ()),
    )
    for atoms, log_norm, reference, window, centres in cases:
        radius = 1e-3 * 2.0 * window[1]
        # one more row and column through a point 0.5 r from each of 7
        # atoms and each site; only the points near an atom are skipped,
        # as the limit potential is finite at the sites
        near = np.concatenate([atoms[:7], centres]) + 0.5 * radius * np.exp(1j * np.arange(
            7.0 + len(centres)))
        xs, ys = asympt.grid_axes(window, 24, np.random.default_rng(3))
        axes = np.sort(np.concatenate([xs, near.real])), np.sort(np.concatenate([ys, near.imag]))
        pts = (axes[0] + 1j * axes[1][:, None]).ravel()
        mean, skipped = asympt.grid_discrepancy(axes, atoms, log_norm, reference, radius)
        want, want_skipped = scalar_discrepancy(pts, atoms, log_norm, reference, radius)
        assert skipped == want_skipped >= 7
        assert mean == pytest.approx(want, rel=1e-12, abs=0.0)


def axes_near(atoms, window, grid, radius):
    """The grid_axes(window, grid) axes, seed 3, with one more row and
    column through a point 0.5 radius from each of atoms."""
    near = np.asarray(atoms) + 0.5 * radius * np.exp(1j * np.arange(len(atoms)))
    xs, ys = asympt.grid_axes(window, grid, np.random.default_rng(3))
    return np.sort(np.concatenate([xs, near.real])), np.sort(np.concatenate([ys, near.imag]))


@pytest.mark.parametrize("count", [40, 41, 42])
@pytest.mark.parametrize("tile_rows", [3, 7])
def test_grid_discrepancy_on_ragged_row_tiles(monkeypatch, tile_rows, count):
    # the 25 rows in tiles of 3 or 7 from row 0, the last one of 1 or 4
    # rows; 40, 41 and 42 atoms end on a group of 1, 2 and 3 of them
    sites = np.array([1j, -1j])
    atoms = np.asarray(two_pole_rootset(count).roots)
    radius = 4e-3
    axes = axes_near(atoms[:3], (0.0, 2.0), 22, radius)
    assert len(axes[1]) == 25
    monkeypatch.setattr(asympt, "GRID_TILE_POINTS", tile_rows * len(axes[0]))
    reference = lambda z: voronoi.psi(sites, z)
    mean, skipped = asympt.grid_discrepancy(axes, atoms, (0.0, count), reference, radius)
    want, want_skipped = scalar_discrepancy((axes[0] + 1j * axes[1][:, None]).ravel(), atoms,
                                            (0.0, count), reference, radius)
    assert skipped == want_skipped >= 3
    assert mean == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("far, chunk", [(1e110, 2), (1e200, 1)])
def test_grid_discrepancy_with_chunks_below_a_group(far, chunk):
    # three atoms about 1e110 or 1e200 away and four in the window stretch
    # the range until a product holds only 2 or 1 squared distances, and
    # the groups shrink to that many atoms
    atoms = np.concatenate([far * np.exp(1j * np.linspace(0.0, 1.0, 3)),
                            1.0 + 0.3 * np.exp(1j * np.arange(4.0))])
    radius = 1e-3
    axes = axes_near(atoms[3:], (1.0, 0.5), 22, radius)
    assert asympt._log_product_range(*axes, atoms, radius)[1] == chunk
    zero = lambda z: np.zeros(np.shape(z))
    mean, skipped = asympt.grid_discrepancy(axes, atoms, (0.0, len(atoms)), zero, radius)
    want, want_skipped = scalar_discrepancy((axes[0] + 1j * axes[1][:, None]).ravel(), atoms,
                                            (0.0, len(atoms)), zero, radius)
    assert skipped == want_skipped >= 4
    assert mean == pytest.approx(want, rel=1e-12, abs=0.0)


def test_grid_discrepancy_workspace_keeps_no_state(monkeypatch):
    # a call, one on a larger grid, one on a smaller grid with more atoms,
    # then the first again: the reused arrays carry nothing between calls
    monkeypatch.setattr(asympt, "_WORKSPACES", [])
    sites = np.array([1j, -1j])
    reference = lambda z: voronoi.psi(sites, z)
    atoms = np.asarray(two_pole_rootset(40).roots)
    radius = 4e-3
    axes = axes_near(atoms[:3], (0.0, 2.0), 22, radius)
    first = asympt.grid_discrepancy(axes, atoms, (0.0, 40), reference, radius)
    more = np.asarray(two_pole_rootset(90).roots)
    asympt.grid_discrepancy(axes_near(more[:5], (0.0, 2.0), 60, radius), atoms, (0.0, 40),
                            reference, radius)
    workspace = asympt._WORKSPACES[0]
    prod = workspace["prod"]
    asympt.grid_discrepancy(axes_near(more[:5], (0.0, 2.0), 9, radius), more, (0.0, 90),
                            reference, radius)
    assert asympt._WORKSPACES[0] is workspace and workspace["prod"] is prod
    assert asympt.grid_discrepancy(axes, atoms, (0.0, 40), reference, radius) == first
    assert first[1] >= 3


def test_grid_discrepancy_nested_in_its_reference():
    # a reference that runs grid_discrepancy on the same grid gets its own
    # arrays, so neither call sees the other's
    sites = np.array([1j, -1j])
    plain = lambda z: voronoi.psi(sites, z)
    atoms = np.asarray(two_pole_rootset(40).roots)
    radius = 4e-3
    axes = axes_near(atoms[:3], (0.0, 2.0), 22, radius)
    want = asympt.grid_discrepancy(axes, atoms, (0.0, 40), plain, radius)
    inner = []

    def nested(z):
        inner.append(asympt.grid_discrepancy(axes, atoms, (0.0, 40), plain, radius))
        return plain(z)

    assert asympt.grid_discrepancy(axes, atoms, (0.0, 40), nested, radius) == want
    assert inner and all(result == want for result in inner)


@pytest.mark.parametrize("grid, tile_rows, block", [
    (100, None, None),  # the defaults: blocks of 40 rows, the last of 20
    (25, 7, 60),  # blocks of two rows, a tile's last of one
    (25, 7, 7),  # blocks of a row's 7, 7, 7 and last 4 points
])
def test_grid_discrepancy_reference_blocks(monkeypatch, grid, tile_rows, block):
    # the reference sees every grid point once, at most
    # GRID_REFERENCE_POINTS of them per call
    axes = asympt.grid_axes((0.0, 2.0), grid, np.random.default_rng(1))
    if tile_rows:
        monkeypatch.setattr(asympt, "GRID_TILE_POINTS", tile_rows * grid)
        monkeypatch.setattr(asympt, "GRID_REFERENCE_POINTS", block)
    blocks = []

    def recording(z):
        blocks.append(z)
        return np.zeros(np.shape(z))

    asympt.grid_discrepancy(axes, [3.0 + 3.0j], (0.0, 1), recording, 4e-3)
    assert all(z.ndim == 2 and z.size <= asympt.GRID_REFERENCE_POINTS for z in blocks)
    seen = np.sort(np.concatenate([z.ravel() for z in blocks]))
    assert np.array_equal(seen, np.sort((axes[0] + 1j * axes[1][:, None]).ravel()))


def test_grid_discrepancy_without_atoms():
    with pytest.raises(asympt.EmptyRootSet):
        asympt.grid_discrepancy((np.array([0.0]), np.array([0.5])), [], (0.0, 1),
                                lambda z: np.zeros(np.shape(z)), 1e-3)


def test_grid_discrepancy_far_atoms():
    # every distance is about 1e200 and the exclusion radius 1e-3: the
    # scale keeps each squared distance in range, as the per-pair logs did
    axes = asympt.grid_axes((1.0, 0.5), 20, np.random.default_rng(0))
    atoms = 1e200 * np.exp(1j * np.linspace(0.0, 1.0, 5))
    mean, skipped = asympt.grid_discrepancy(axes, atoms, (0.0, len(atoms)),
                                            lambda z: np.zeros(np.shape(z)), 1e-3)
    assert skipped == 0
    assert mean == pytest.approx(460.5170185988091, rel=1e-14)


def test_grid_discrepancy_range_starts_at_the_nearest_distance():
    # every distance is about 1e300, so the nearest one, not the radius
    # 1e-300, bounds the kept distances below and the range fits
    axes = asympt.grid_axes((1.0, 0.5), 4, np.random.default_rng(0))
    mean, skipped = asympt.grid_discrepancy(axes, [1e300], (0.0, 1),
                                            lambda z: np.zeros(np.shape(z)), 1e-300)
    assert skipped == 0
    assert mean == pytest.approx(690.7755278982137, rel=1e-14)


@pytest.mark.parametrize("atoms, radius", [
    ([1e308, 1.0], 1e-300),  # distances from about 0.1 to 1e308
    ([1.5e308, -1.5e308j], 1e-3),  # the largest distance overflows
    ([math.nan], 1e-3),
    ([2.0], 0.0),
])
def test_grid_discrepancy_unrepresentable_range(atoms, radius):
    axes = asympt.grid_axes((1.0, 0.5), 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        asympt.grid_discrepancy(axes, atoms, (0.0, 1), lambda z: np.zeros(np.shape(z)),
                                radius)


def lone_grid_points(axes, gap, count):
    """count grid points xs[j] + 1j ys[i] whose row and column each lie
    farther than gap from every other row and column."""
    def lone(axis):
        step = np.diff(axis)
        return np.flatnonzero(np.minimum(np.append(step, np.inf), np.insert(step, 0, np.inf))
                              > gap)
    cols, rows = lone(axes[0]), lone(axes[1])
    return axes[0][cols[:count]] + 1j * axes[1][rows[:count]]


def test_exclusion_too_large_guard():
    # grid_l1 skips the points within 1e-3 of the window width, here 4e-3,
    # of an atom: 16 atoms on lone points of the 40 x 40 grid skip 16 of
    # its 1600 points, at the 1% guard, and 17 atoms pass it
    window, radius = (0.0, 2.0), 4e-3
    axes = asympt.grid_axes(window, 40, np.random.default_rng(0))
    atoms = lone_grid_points(axes, 2.0 * radius, 17)
    zero = lambda z: np.zeros(np.shape(z))
    for count in (16, 17):
        _, skipped = asympt.grid_discrepancy(axes, atoms[:count], (0.0, count), zero, radius)
        assert skipped == count
    value = asympt.grid_l1(atoms[:16], (0.0, 16), zero, window, 40, np.random.default_rng(0))
    assert math.isfinite(value)
    with pytest.raises(asympt.ExclusionTooLarge):
        asympt.grid_l1(atoms, (0.0, 17), zero, window, 40, np.random.default_rng(0))


def test_exclusion_counts_each_point_once():
    # a second atom within r of the same lone grid point skips no more
    axes = asympt.grid_axes((0.0, 2.0), 40, np.random.default_rng(0))
    radius = 4e-3
    point = lone_grid_points(axes, 2.0 * radius, 1)[0]
    for atoms in ([point], [point, point + 0.5 * radius * np.exp(1j)]):
        _, skipped = asympt.grid_discrepancy(axes, atoms, (0.0, len(atoms)),
                                             lambda z: np.zeros(np.shape(z)), radius)
        assert skipped == 1


def test_exclude_matches_a_per_atom_loop():
    # the batched pairing of each atom's near rows with its near columns
    # clears the same points as one np.ix_ block per atom, on atoms with
    # no near row, no near column, one of each and several of each
    rng = np.random.default_rng(5)
    rows, cols = rng.random((30, 17)) ** 4, rng.random((30, 23)) ** 4
    rows[:5], cols[5:10] = 1.0, 1.0
    for r2 in (0.0, 1e-4, 1e-2, 0.3):
        want = np.ones((17, 23), dtype=bool)
        for k in range(30):
            i, j = np.flatnonzero(rows[k] <= r2), np.flatnonzero(cols[k] <= r2)
            want[np.ix_(i, j)] &= rows[k, i, None] + cols[k, j] > r2
        keep = np.ones((17, 23), dtype=bool)
        asympt._exclude(keep, rows, cols, r2)
        assert np.array_equal(keep, want)
        assert r2 == 0.0 or not want.all()


def test_single_pole_escape_example():
    # (z+2)/(z-1)^3: every disk of radius 10 around the origin is free of
    # derivative zeros from n = 6 onward
    assert asympt.single_pole_escape([2.0, 1.0], 1.0, 3, 10.0) == 6


def test_single_pole_escape_constant_numerator():
    # 1/z^2 never has numerator zeros, so the first qualifying n is 0
    assert asympt.single_pole_escape([1.0], 0.0, 2, 1e6, n_max=20) == 0


def test_single_pole_escape_not_found():
    with pytest.raises(asympt.NotFound):
        asympt.single_pole_escape([2.0, 1.0], 1.0, 3, 1e9, n_max=15)


def test_single_pole_escape_propagates_solver_errors(monkeypatch):
    # only NoConvergence reads as "a zero inside the disk"; any other
    # solver failure must surface rather than shift the escape index
    def broken(*args, **kwargs):
        raise ValueError("solver bug")

    monkeypatch.setattr(rootfind, "solve", broken)
    with pytest.raises(ValueError, match="solver bug"):
        asympt.single_pole_escape([2.0, 1.0], 1.0, 3, 10.0)


def test_single_pole_escape_counts_no_convergence_as_inside(monkeypatch):
    def stalled(*args, **kwargs):
        raise rootfind.NoConvergence("stalled", rootset=None)

    monkeypatch.setattr(rootfind, "solve", stalled)
    with pytest.raises(asympt.NotFound):
        asympt.single_pole_escape([2.0, 1.0], 1.0, 3, 10.0, n_max=15)
