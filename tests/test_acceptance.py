"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
summary line, so `pytest -v` yields one pass/fail line per criterion.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from voroderiv import (asympt, lemniscate, measure, odecheck, rational,
                       rootfind, voronoi)
from voroderiv.svg import render_svg


def cube_roots():
    return [cmath.exp(2j * math.pi * k / 3) for k in range(3)]


def multiset_distance(found, expected):
    found = np.asarray(found, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    cost = np.abs(found[:, None] - expected[None, :])
    ri, ci = linear_sum_assignment(cost)
    return cost[ri, ci].max()


def solve_numerator(form, n):
    """Roots of the n-th derivative numerator.  Flagged clusters
    (multiple roots at Voronoi vertices) are kept best effort."""
    try:
        return rational.zeros(form, n)
    except rootfind.NoConvergence as e:
        rs = e.rootset
        bad = np.abs(rs.residuals[~rs.converged])
        assert bad.max() < 1e-6, "unconverged roots are not a tight cluster"
    return rs


def report_for(form, sites, n):
    rs = solve_numerator(form, n)
    d = voronoi.build(sites)
    return asympt.project_and_bin(asympt.empirical(rs, n), d)


def test_criterion_01_total_mass():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for k in range(100):
        d_sites = int(rng.integers(2, 11))
        sites = rng.normal(size=d_sites) + 1j * rng.normal(size=d_sites)
        diagram = voronoi.build(list(sites))
        worst = max(worst, abs(measure.total_mass(diagram) - 1.0))
    dt = time.time() - t0
    assert worst < 1e-12 and dt < 5.0
    print(f"criterion 01 PASS: total mass within {worst:.2e} of 1 "
          f"on 100 site sets ({dt:.2f} s)")


def test_criterion_02_cotangent_exactness():
    t0 = time.time()
    form = rational.polar_decompose([1.0], [(1j, 1), (-1j, 1)])
    worst = 0.0
    for n in (2, 5, 10, 30):
        rs = rational.zeros(form, n)
        expected = [1.0 / math.tan(k * math.pi / (n + 1))
                    for k in range(1, n + 1)]
        worst = max(worst, multiset_distance(rs.roots, expected))
    dt = time.time() - t0
    assert worst < 1e-8 and dt < 5.0
    print(f"criterion 02 PASS: cotangent roots within {worst:.2e} "
          f"({dt:.2f} s)")


def test_criterion_03_twopole_oracle():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for k in range(50):
        a1, a2 = (rng.normal() + 1j * rng.normal() for _ in range(2))
        z1 = rng.normal() + 1j * rng.normal()
        z2 = z1 + (rng.normal() + 1j * rng.normal())
        while abs(z2 - z1) < 0.3:
            z2 = z1 + (rng.normal() + 1j * rng.normal())
        n = int(rng.integers(2, 61))
        # the oracle parameterizes zeros of the (n-1)-th derivative
        form = rational.polar_form([z1, z2], [1, 1], [[a1], [a2]])
        rs = solve_numerator(form, n - 1)
        oracle = asympt.twopole_zeros(a1, a2, z1, z2, n)
        assert len(oracle) == len(rs)
        worst = max(worst, multiset_distance(rs.roots, oracle))
    dt = time.time() - t0
    assert worst < 1e-8 and dt < 30.0
    print(f"criterion 03 PASS: oracle agreement within {worst:.2e} "
          f"on 50 instances ({dt:.2f} s)")


def test_criterion_04_zero_counting_trend():
    t0 = time.time()
    w3 = cube_roots()
    n_list = (25, 50, 100, 200)
    # generic coefficients drive the KS trend
    ks_instances = [
        (rational.polar_form([1.0, -1.0], [1, 1], [[2.0], [1.0]]),
         [1.0, -1.0]),
        (rational.polar_form(w3, [1, 1, 1], [[1.0], [2.0], [1.0 + 1j]]),
         w3),
    ]
    for form, sites in ks_instances:
        ks_by_edge = []
        for n in n_list:
            rep = report_for(form, sites, n)
            ks_by_edge.append([ec.ks for ec in rep.edges])
        for edge_idx in range(len(ks_by_edge[0])):
            seq = [row[edge_idx] for row in ks_by_edge]
            assert all(a > b for a, b in zip(seq, seq[1:])), seq
            assert seq[-1] < 0.05
    # symmetric coefficients keep every zero on the skeleton, where the
    # mean distance sits at the numerical floor from n = 25 onward
    sym_instances = [
        (rational.polar_decompose([1.0], [(1j, 1), (-1j, 1)]), [1j, -1j]),
        (rational.polar_decompose([1.0], [(z, 1) for z in w3]), w3),
    ]
    for form, sites in sym_instances:
        d25 = report_for(form, sites, 25).mean_distance
        d100 = report_for(form, sites, 100).mean_distance
        scale = voronoi.build(sites).scale
        assert d100 < max(0.25 * d25, 1e-12 * scale)
    dt = time.time() - t0
    assert dt < 120.0
    print(f"criterion 04 PASS: per-edge KS strictly decreasing with "
          f"KS(200) < 0.05; mean distance at the floor ({dt:.2f} s)")


def test_criterion_05_potential_l1_trend():
    t0 = time.time()
    form = rational.polar_decompose([1.0], [(1j, 1), (-1j, 1)])
    d = voronoi.build([1j, -1j])
    vals = []
    for n in (25, 50, 100):
        rs = solve_numerator(form, n)
        vals.append(asympt.potential_l1(rs.roots, d,
                                        window=(0.0, 3.0), grid=200))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.05
    # reference from an independent 1000^2 midpoint quadrature, frozen
    assert vals[2] == pytest.approx(0.042400, abs=5e-4)
    dt = time.time() - t0
    assert dt < 120.0
    print(f"criterion 05 PASS: potential discrepancy "
          f"{vals[0]:.4f} > {vals[1]:.4f} > {vals[2]:.4f} < 0.05 "
          f"({dt:.2f} s)")


def test_criterion_06_degree_asymptotics():
    t0 = time.time()
    # generic d = 3: m_n = 2n + 2 exactly
    form = rational.polar_form([0.0, 1.0, 1.0j], [1, 1, 1],
                               [[1.0], [2.0], [1.0 + 1j]])
    for n in range(1, 31):
        res = rational.numerator(rational.derivative_state(form, n))
        assert res.degree == 2 * n + 2
    # cancelling instance 1/(z^2-1): m_n = n exactly (extended precision)
    canc = rational.polar_form([1.0, -1.0], [1, 1], [[0.5], [-0.5]],
                               precision="extended")
    for n in range(1, 21):
        res = rational.numerator(rational.derivative_state(canc, n))
        assert res.degree == n
    # log|n!/alpha_n|/n shrinks by more than a factor of ten when the
    # scaled leading coefficient grows with n (double poles with nearly
    # cancelling leading terms)
    grow = rational.polar_form([1.0, -1.0], [2, 2],
                               [[0.0, 1.0], [0.0, -1.0 + 1e-6]])
    def log_ratio(n):
        res = rational.numerator(rational.derivative_state(grow, n))
        return math.log(abs(1.0 / complex(res.alpha_over_factorial))) / n
    v10, v100 = log_ratio(10), log_ratio(100)
    assert abs(v100) < 0.10 * abs(v10)
    dt = time.time() - t0
    assert dt < 30.0
    print(f"criterion 06 PASS: degrees exact; log|n!/a_n|/n ratio "
          f"{abs(v100)/abs(v10):.3f} < 0.10 ({dt:.2f} s)")


def test_criterion_07_potential_identity():
    t0 = time.time()
    rng = np.random.default_rng(12)
    worst = 0.0
    for k in range(10):
        d_sites = int(rng.integers(2, 7))
        sites = list(rng.normal(size=d_sites) + 1j * rng.normal(size=d_sites))
        diagram = voronoi.build(sites)
        got = 0
        while got < 20:
            z = complex(rng.normal(), rng.normal()) * 1.5
            if voronoi.distance_to_skeleton(diagram, z) < 0.05 * diagram.scale:
                continue
            quad = measure.potential_from_measure(diagram, z)
            worst = max(worst, abs(quad - voronoi.psi(sites, z)))
            got += 1
    dt = time.time() - t0
    assert worst < 1e-5 and dt < 30.0
    print(f"criterion 07 PASS: quadrature potential within {worst:.2e} "
          f"of psi at 200 points ({dt:.2f} s)")


def test_criterion_08_cauchy_transform():
    t0 = time.time()
    rng = np.random.default_rng(21)
    sites = [1j, -1j, 1.5 + 0.2j]
    diagram = voronoi.build(sites)
    worst = 0.0
    got = 0
    while got < 100:
        z = complex(rng.normal(), rng.normal()) * 1.5
        if voronoi.distance_to_skeleton(diagram, z) < 0.05 * diagram.scale:
            continue
        worst = max(worst, abs(measure.cauchy_residual(sites, z, diagram)))
        got += 1
    # finite-difference 2 d(psi)/dz reproduces the branch value
    z0 = 0.8 + 1.4j
    h = 1e-6
    cell, _ = voronoi.locate(diagram, z0)
    dx = (voronoi.cell_branch(sites, cell, z0 + h)
          - voronoi.cell_branch(sites, cell, z0 - h)) / (2 * h)
    dy = (voronoi.cell_branch(sites, cell, z0 + 1j * h)
          - voronoi.cell_branch(sites, cell, z0 - 1j * h)) / (2 * h)
    fd = dx - 1j * dy  # 2 d/dz of a real-valued function
    fd_err = abs(fd - measure.cauchy_branch(sites, cell, z0))
    dt = time.time() - t0
    assert worst < 1e-12 and fd_err < 1e-5 and dt < 5.0
    print(f"criterion 08 PASS: residual {worst:.2e} < 1e-12, "
          f"derivative match {fd_err:.2e} ({dt:.2f} s)")


def test_criterion_09_powersum_identity():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0
    for s in (1.0, 2.0, 3.0):
        for d in (2, 3, 4):
            poles = tuple(rng.normal() + 1j * rng.normal() for _ in range(d))
            weights = tuple(rng.normal() + 1j * rng.normal()
                            for _ in range(d))
            f = odecheck.PowerSumFunction(s, poles, weights)
            for n in (0, 3, 10, 20):
                z = complex(rng.normal(), rng.normal()) * 2.0
                worst = max(worst, abs(odecheck.powersum_residual(f, n, z)))
    dt = time.time() - t0
    assert worst < 1e-9 and dt < 10.0
    print(f"criterion 09 PASS: power-sum residual {worst:.2e} < 1e-9 "
          f"({dt:.2f} s)")


def test_criterion_10_two_pole_ode():
    t0 = time.time()
    rng = np.random.default_rng(41)
    worst = 0.0
    for n in range(1, 31):
        z = complex(rng.normal(), rng.normal())
        worst = max(worst, abs(odecheck.d2_numerator_residual(
            1.0, -1.0 + 0.3j, n, z)))
    # the printed coefficient variant leaves the witness -(2/3)z^2 + 2/3
    w = odecheck.d2_numerator_residual(1.0, -1.0, 1, 0.5, printed=True,
                                       relative=False)
    witness_err = abs(w - (-(2.0 / 3.0) * 0.25 + 2.0 / 3.0))
    dt = time.time() - t0
    assert worst < 1e-12 and witness_err < 1e-12 and dt < 5.0
    print(f"criterion 10 PASS: corrected residual {worst:.2e}; printed "
          f"witness matches -(2/3)z^2 + 2/3 ({dt:.2f} s)")


def test_criterion_11_escaping_zeros():
    t0 = time.time()
    n_esc = asympt.single_pole_escape([2.0, 1.0], 1.0, 3, 10.0)
    assert n_esc == 6 and n_esc <= 500
    # simple pole: the numerator loses a degree per derivative and the
    # zero set is empty after deg R steps
    rng = np.random.default_rng(51)
    for trial in range(5):
        deg = int(rng.integers(1, 5))
        numer = list(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        pole = complex(rng.normal(), rng.normal())
        if abs(np.polyval(np.asarray(numer)[::-1], pole)) < 1e-3:
            continue
        form = rational.polar_decompose(numer, [(pole, 1)])
        assert rational.numerator(rational.derivative_state(form, deg)).degree == 0
    dt = time.time() - t0
    assert dt < 30.0
    print(f"criterion 11 PASS: escape at N = {n_esc}; simple-pole zero "
          f"sets empty after deg R steps ({dt:.2f} s)")


def test_criterion_12_lemniscate_dominance():
    t0 = time.time()
    problem = lemniscate.LemniscateProblem(((0.0, 0.0, 1.0), (-3.0, 1.0)),
                                           (1, 1))
    rep = lemniscate.compactness_and_compare(problem, [5, 10, 20, 40],
                                             window=(0.0, 6.0), grid=60)
    assert rep.compact
    assert all(m <= rep.dominance_radius for m in rep.max_root_modulus)
    l1 = list(rep.l1_discrepancy)
    assert all(a > b for a, b in zip(l1, l1[1:]))
    dt = time.time() - t0
    assert dt < 60.0
    print(f"criterion 12 PASS: moduli <= {rep.dominance_radius:.2f}, "
          f"discrepancy {l1[0]:.4f} .. {l1[-1]:.5f} decreasing "
          f"({dt:.2f} s)")


def test_criterion_13_figure_reproduction(tmp_path):
    t0 = time.time()
    # eight random simple poles, 15th derivative
    rng = np.random.default_rng(11)
    poles = list(rng.normal(size=8) + 1j * rng.normal(size=8))
    form = rational.polar_decompose([1.0], [(p, 1) for p in poles])
    rs = solve_numerator(form, 15)
    diagram = voronoi.build(poles)
    rep = asympt.project_and_bin(asympt.empirical(rs, 15), diagram)
    diam = max(abs(a - b) for a in poles for b in poles)
    assert rep.mean_distance < 0.05 * diam
    out1 = tmp_path / "pole_fig.svg"
    render_svg(str(out1), diagram, roots=list(rs.roots),
               window=(0.0, 0.6 * diam))
    assert out1.stat().st_size > 0
    # four linear factors at +-1, +-i with the figure's multipliers
    problem = lemniscate.LemniscateProblem(
        ((-1.0, 1.0), (1.0, 1.0), (-1.0j, 1.0), (1.0j, 1.0)),
        (12, 8, 7, 21))
    lrep = lemniscate.compactness_and_compare(problem, [10],
                                              window=(0.0, 2.0), grid=40)
    assert lrep.compact
    out2 = tmp_path / "lemniscate_fig.svg"
    render_svg(str(out2), None, roots=list(lrep.roots[0]),
               window=(0.0, 2.0))
    assert out2.stat().st_size > 0
    dt = time.time() - t0
    assert dt < 60.0
    print(f"criterion 13 PASS: mean distance {rep.mean_distance:.4f} < "
          f"{0.05 * diam:.4f}; both figures rendered ({dt:.2f} s)")
