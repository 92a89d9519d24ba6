"""Voronoi skeletons of pole configurations and the limit potential."""

import cmath
import json
import math

import numpy as np
import pytest

from voroderiv import voronoi
from voroderiv.voronoi import DuplicateSites, build, locate, psi


def cube_roots():
    return [cmath.exp(2j * math.pi * k / 3) for k in range(3)]


def test_two_sites_give_one_full_line():
    d = build([1j, -1j])
    assert len(d.edges) == 1
    e = d.edges[0]
    assert e.t_lo == -math.inf and e.t_hi == math.inf
    assert e.midpoint == 0j
    # the bisector of +-i is the real axis
    assert abs(e.point(1.0).imag) < 1e-15
    assert len(d.vertices) == 0


def test_equilateral_sites_vertex_and_intervals():
    d = build(cube_roots())
    assert len(d.edges) == 3
    assert len(d.vertices) == 1
    assert abs(d.vertices[0]) < 1e-12
    # each edge is a ray from the circumcenter; the finite endpoint sits
    # at parameter 1/(2 sqrt 3) from the segment midpoint
    lim = 1.0 / (2.0 * math.sqrt(3.0))
    for e in d.edges:
        finite = [t for t in (e.t_lo, e.t_hi) if math.isfinite(t)]
        assert len(finite) == 1
        assert abs(abs(finite[0]) - lim) < 1e-12


def test_collinear_sites_two_parallel_lines():
    d = build([-1.0, 0.0, 1.0])
    assert len(d.edges) == 2
    assert len(d.vertices) == 0
    for e in d.edges:
        assert e.t_lo == -math.inf and e.t_hi == math.inf


def test_duplicate_sites_rejected():
    with pytest.raises(DuplicateSites):
        build([0.0, 1.0, 1.0 + 1e-18])


def test_locate_interior_and_tie():
    d = build(cube_roots())
    idx, ties = locate(d, 0.9 + 0.05j)
    assert idx == 0
    assert ties == [0]
    # midpoint of sites 0 and 1 is equidistant from both
    _, ties = locate(d, 0.5 * (d.sites[0] + d.sites[1]))
    assert set(ties) >= {0, 1}


def test_distance_to_skeleton():
    d = build([1j, -1j])
    # skeleton is the real axis
    assert voronoi.distance_to_skeleton(d, 0.7 + 2.0j) == pytest.approx(2.0)
    assert voronoi.distance_to_skeleton(d, 5.0) == pytest.approx(0.0)


def test_psi_frozen_value_and_symmetry():
    # sites +-i: at 2i the nearest site is i, and psi averages the logs
    # of the distances to the remaining sites, here log 3
    assert psi([1j, -1j], 2j) == pytest.approx(math.log(3.0))
    assert psi([1j, -1j], -2j) == pytest.approx(math.log(3.0))
    # on the skeleton the two cell branches agree, so psi is continuous
    sites = (1j, -1j)
    assert voronoi.cell_branch(sites, 0, 0.4) == pytest.approx(
        voronoi.cell_branch(sites, 1, 0.4))


def test_psi_is_finite_and_continuous_at_the_sites():
    # Psi is harmonic off the skeleton, sites included: at a site it is
    # that site's cell branch, and 1e-9 away it reads the same to 1e-8
    rng = np.random.default_rng(5)
    ring = 1e-9 * np.exp(2j * math.pi * np.arange(8) / 8)
    for d in range(2, 9):
        sites = rng.normal(size=d) + 1j * rng.normal(size=d)
        for i, z in enumerate(sites):
            value = psi(sites, z)
            assert math.isfinite(value)
            assert value == voronoi.cell_branch(sites, i, z)
            assert np.abs(psi(sites, z + ring) - value).max() <= 1e-8


def test_psi_continuous_across_equilateral_edges():
    sites = cube_roots()
    d = build(sites)
    for e in d.edges:
        z = e.point(1.0 if math.isinf(e.t_hi) else 0.5 * (e.t_lo + e.t_hi))
        i, j = e.pair
        assert voronoi.cell_branch(sites, i, z) == pytest.approx(
            voronoi.cell_branch(sites, j, z))


def psi_reference(sites, z):
    """The scalar loop that psi is checked against: drop the nearest site."""
    dists = [abs(complex(z) - complex(s)) for s in sites]
    nearest = int(np.argmin(dists))
    acc = 0.0
    for k, dist in enumerate(dists):
        if k != nearest:
            acc += math.log(dist)
    return acc / (len(sites) - 1)


def test_array_psi_matches_scalar_loop():
    rng = np.random.default_rng(7)
    for sites in (cube_roots(), [1j, -1j],
                  list(rng.normal(size=6) + 1j * rng.normal(size=6))):
        # random points, the sites themselves (the continuous extension)
        # and points on the bisectors, where the nearest site is tied
        ties = [e.point(t) for e in build(sites).edges for t in (-0.4, 0.0, 0.9)
                if e.t_lo <= t <= e.t_hi]
        pts = np.concatenate([rng.normal(size=40) + 1j * rng.normal(size=40),
                              sites, ties])
        got = psi(sites, pts)
        assert got.shape == pts.shape
        np.testing.assert_allclose(got, [psi_reference(sites, z) for z in pts],
                                   rtol=1e-14, atol=1e-15)
        assert psi(sites, pts.reshape(-1, 1)).shape == (len(pts), 1)
    assert isinstance(psi([1j, -1j], 2j), float)


def test_psi_on_a_block_matches_scalar_loop():
    # a 2-D block of grid points whose axes pass through the sites; 12
    # sites are past the 8 at which numpy's pairwise summation starts
    rng = np.random.default_rng(9)
    for sites in (cube_roots(), [1j, -1j],
                  list(rng.normal(size=12) + 1j * rng.normal(size=12))):
        sites = np.asarray(sites)
        xs = np.sort(np.concatenate([rng.normal(size=11), sites.real]))
        ys = np.sort(np.concatenate([rng.normal(size=8), sites.imag]))
        block = xs + 1j * ys[:, None]
        got = psi(sites, block)
        assert got.shape == block.shape
        np.testing.assert_allclose(
            got, [[psi_reference(sites, z) for z in row] for row in block],
            rtol=1e-14, atol=1e-15)


def cell_branches_reference(sites, z):
    """psi by its definition, the largest cell branch 0.0 + (d-1)^{-1}
    sum_{k != i} log|z - z_k|, each sum taken from 0.0 in site order."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore"):
        logs = [np.log(np.abs(z - complex(s))) for s in sites]
    weight = 1.0 / (len(sites) - 1)
    return np.max([0.0 + weight * sum((x for k, x in enumerate(logs) if k != i), 0.0)
                   for i in range(len(sites))], axis=0)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 9, 32, 100])
def test_psi_is_the_nearest_cell_branch_bit_for_bit(d):
    rng = np.random.default_rng(100 + d)
    sites = rng.normal(size=d) + 1j * rng.normal(size=d)
    block = 2.0 * (rng.normal(size=(20, 30)) + 1j * rng.normal(size=(20, 30)))
    got = psi(sites, block)
    assert got.tobytes() == cell_branches_reference(sites, block).tobytes()
    # a scalar point gives the float that its block entry holds
    for z, value in zip(block.ravel()[::7], got.ravel()[::7]):
        scalar = psi(sites, z)
        assert isinstance(scalar, float) and scalar == value
    at_sites = psi(list(sites), sites)
    assert at_sites.tobytes() == cell_branches_reference(sites, sites).tobytes()
    assert np.isfinite(at_sites).all()


def test_psi_at_exact_ties_is_the_nearest_cell_branch():
    cases = [([1.0, -1.0], [0.0, 2j, -0.5j]),  # on the bisector of +-1
             (cube_roots(), [0.0]),  # the centre of the cube roots
             ([1.0, -1.0, 1j, -1j], [0.0, 1.0 + 1j, 3.0])]  # the square
    for sites, pts in cases:
        pts = np.asarray(pts, dtype=complex)
        got = psi(sites, pts)
        assert got.tobytes() == cell_branches_reference(sites, pts).tobytes()
        assert [psi(sites, z) for z in pts] == list(got)


def branch_reference(branch, z):
    """The scalar loop that branch_logs is checked against."""
    offset, weight, centres = branch
    total = 0.0
    for c in centres:
        dist = abs(complex(z) - complex(c))
        total += math.log(dist) if dist > 0.0 else -math.inf
    return offset + weight * total


def test_branch_logs_match_scalar_loop():
    rng = np.random.default_rng(13)
    sites = cube_roots()
    # points at infinity, as e.point gives at an infinite edge parameter
    far = [e.point(t) for e in build(sites).edges for t in (e.t_lo, e.t_hi)
           if math.isinf(t)]
    assert all(math.isinf(abs(z)) for z in far)
    branches = [
        (0.0, 0.5, sites[1:]),  # a cell branch of the three sites
        (0.7, -3.0, [sites[0]]),  # a negative weight: +inf at its centre
        (0.0, 1.0, [0.0, 0.0]),  # the repeated root of z^2 in criterion 12
        (-1.5, 2.0, []),  # no centres: its offset everywhere
    ]
    pts = np.concatenate([rng.normal(size=30) + 1j * rng.normal(size=30),
                          sites, [0.0], far])
    got = voronoi.branch_logs(branches, pts)
    assert got.shape == (len(branches), len(pts))
    expect = [[branch_reference(b, z) for z in pts] for b in branches]
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=1e-15)
    assert got[1, 30] == math.inf  # at sites[0]
    assert got[2, 33] == -math.inf  # at 0
    assert (got[3] == -1.5).all()
    # a scalar gives one value per branch, a 2-D block one block per branch
    scalar = voronoi.branch_logs(branches, 0.3 - 0.2j)
    assert scalar.shape == (len(branches),)
    np.testing.assert_allclose(scalar, [branch_reference(b, 0.3 - 0.2j) for b in branches],
                               rtol=1e-14)
    block = pts[:30].reshape(5, 6)
    np.testing.assert_allclose(voronoi.branch_logs(branches, block),
                               got[:, :30].reshape(len(branches), 5, 6), rtol=0.0)


def test_balanced_keeps_the_largest_margins_in_order_found():
    # branches log|z|, log|z - 2| and log 1.5 - log|z + 2|; a non-finite
    # margin (here at z = 0) ranks after every finite one
    branches = [(0.0, 1.0, [0.0]), (0.0, 1.0, [2.0]), (math.log(1.5), -1.0, [-2.0])]
    points = [np.array([1.0, 0.0, 1.0 + 3j]), np.array([-1.0])]
    kept = voronoi.balanced([(0, 1), (0, 2)], points, branches, 3)
    # margins: 1 has log 2, 1 + 3i about 2.19, -1 (pair 0, 2) log 1 - log 3
    # < 0, and 0 -inf
    assert np.array_equal(kept, [1.0, 1.0 + 3j, -1.0])
    assert np.array_equal(voronoi.balanced([(0, 1), (0, 2)], points, branches, 1), [1.0 + 3j])
    # two branches only: no third branch, so every margin is -inf and
    # the points are kept in the order found
    kept = voronoi.balanced([(0, 1)], [np.array([1.0, 3j, -1.0])], branches[:2], 2)
    assert np.array_equal(kept, [1.0, 3j])
    # at z = -2 the third branch is +inf: the pair (0, 1) ranks last
    # there, and the pair (0, 2) by log 2 - log 4
    points = [np.array([1.0, -2.0]), np.array([-2.0])]
    kept = voronoi.balanced([(0, 1), (0, 2)], points, branches, 2)
    assert np.array_equal(kept, [1.0, -2.0])


def per_pair_balanced(pairs, points, branches, degree):
    """voronoi.balanced's ranking, one branch_logs call per pair."""
    margin = []
    for (i, j), z in zip(pairs, points):
        logs = voronoi.branch_logs(branches, z)
        rest = np.delete(logs, [i, j], axis=0).max(axis=0, initial=-np.inf)
        with np.errstate(invalid="ignore"):
            m = np.minimum(logs[i], logs[j]) - rest
        margin.append(np.where(np.isfinite(m), m, -np.inf))
    keep = np.argsort(-np.concatenate(margin), kind="stable")[:degree]
    return np.concatenate(points)[np.sort(keep)]


@pytest.mark.parametrize("seed", range(8))
def test_balanced_matches_a_per_pair_ranking(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    d = 2 + seed % 5
    centres = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
    # weights of both signs, one or two centres per branch
    branches = [(rng.normal(), float(rng.choice([-1, 1]) * rng.integers(1, 4)),
                 list(centres[k:k + 1 + k % 2])) for k in range(d)]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    points = []
    for _ in pairs:
        m = int(rng.integers(0, 12))
        z = rng.normal(size=m) + 1j * rng.normal(size=m)
        if m > 2:
            z[0] = centres[rng.integers(0, 2 * d)]  # a branch at +-inf
            z[1] = z[2]  # a tie
        points.append(z)
    calls = []
    branch_logs = voronoi.branch_logs
    monkeypatch.setattr(voronoi, "branch_logs",
                        lambda *args: calls.append(1) or branch_logs(*args))
    total = sum(len(z) for z in points)
    for degree in (0, total // 3, total // 2, total + 1):
        calls.clear()
        kept = voronoi.balanced(pairs, points, branches, degree)
        assert len(calls) == 1
        assert kept.tobytes() == per_pair_balanced(pairs, points, branches, degree).tobytes()


def test_cell_branch_of_nearest_cell_is_psi():
    sites = (1j, -1j)
    z = 0.3 + 1.5j  # in cell 0
    assert voronoi.cell_branch(sites, 0, z) == pytest.approx(psi(sites, z))


def test_json_round_trip():
    d = build(cube_roots())
    data = json.loads(d.to_json())
    assert len(data["edges"]) == 3
    assert len(data["sites"]) == 3
    # infinities survive as strings and parse back
    tl = [e["t_lo"] for e in data["edges"]]
    assert "-inf" in tl
    z0 = complex(data["sites"][0]["re"], data["sites"][0]["im"])
    assert abs(z0 - d.sites[0]) < 1e-15


def test_degenerate_scale_guard():
    with pytest.raises(voronoi.DegenerateScale):
        build([0.5j, 0.5j])
