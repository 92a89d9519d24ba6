"""The limit measure on Voronoi edges and its potential."""

import cmath
import math

import numpy as np
import pytest

from voroderiv import measure, voronoi


def cube_diagram():
    return voronoi.build([cmath.exp(2j * math.pi * k / 3) for k in range(3)])


def test_total_mass_is_one_two_sites():
    d = voronoi.build([1j, -1j])
    assert measure.total_mass(d) == pytest.approx(1.0, abs=1e-12)


def test_total_mass_is_one_random_sites():
    rng = np.random.default_rng(9)
    for _ in range(3):
        sites = rng.normal(size=5) + 1j * rng.normal(size=5)
        d = voronoi.build(list(sites))
        assert measure.total_mass(d) == pytest.approx(1.0, abs=1e-10)


def test_equilateral_rays_carry_equal_thirds():
    d = cube_diagram()
    for e in d.edges:
        assert measure.edge_mass(e, 3) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_density_is_cdf_derivative():
    d = voronoi.build([1j, -1j])
    e = d.edges[0]
    for t in (-1.5, 0.0, 0.3, 2.0):
        h = 1e-6
        fd = (measure.edge_cdf(e, t + h, 2)
              - measure.edge_cdf(e, t - h, 2)) / (2.0 * h)
        assert measure.edge_density(e, t, 2) == pytest.approx(fd, rel=1e-6)


def test_density_positive_inside_interval():
    d = cube_diagram()
    e = d.edges[0]
    t = e.t_lo + 0.7
    assert measure.edge_density(e, t, 3) > 0.0


def test_out_of_interval_guard():
    d = cube_diagram()
    e = d.edges[0]  # ray with finite t_lo
    with pytest.raises(measure.OutOfInterval):
        measure.edge_density(e, e.t_lo - 1.0, 3)


def test_quantile_inverts_cdf():
    d = voronoi.build([1j, -1j])
    e = d.edges[0]
    for q in (0.05, 0.2, 0.5, 0.77, 0.95):
        t = measure.edge_quantile(e, q, 2)
        assert measure.edge_cdf(e, t, 2) == pytest.approx(q, abs=1e-10)


def test_potential_matches_psi_off_skeleton():
    d = voronoi.build([1j, -1j])
    for z in (0.5 + 1.2j, -2.0 + 0.7j, 3.0j):
        quad = measure.potential_from_measure(d, z)
        assert quad == pytest.approx(voronoi.psi([1j, -1j], z), abs=1e-6)


def test_potential_three_sites():
    sites = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    d = voronoi.build(sites)
    z = 0.4 + 0.9j
    quad = measure.potential_from_measure(d, z)
    assert quad == pytest.approx(voronoi.psi(sites, z), abs=1e-6)


def test_skeleton_proximity_guard():
    d = voronoi.build([1j, -1j])
    with pytest.raises(measure.SkeletonProximity):
        measure.potential_from_measure(d, 0.3)


def test_cauchy_residual_vanishes():
    d = voronoi.build([1j, -1j])
    for z in (0.5 + 1.2j, -1.0 - 2.0j, 2.0 + 0.1j):
        assert abs(measure.cauchy_residual((1j, -1j), z, d)) < 1e-10


def test_skeleton_starts_count_and_placement(monkeypatch):
    d = cube_diagram()
    monkeypatch.setattr(measure, "SKELETON_SEED", 3)
    pts = measure.skeleton_starts(d, 12)
    assert len(pts) == 12
    # starts hug the skeleton: all within a small multiple of the jitter
    for z in pts:
        assert voronoi.distance_to_skeleton(d, z) < 0.2 * d.scale


def test_skeleton_starts_proportional_allocation(monkeypatch):
    d = cube_diagram()
    monkeypatch.setattr(measure, "SKELETON_JITTER", 0.0)
    pts = measure.skeleton_starts(d, 9)
    counts = [0, 0, 0]
    for z in pts:
        dists = [e.project(z)[1] for e in d.edges]
        counts[int(np.argmin(dists))] += 1
    assert counts == [3, 3, 3]
