"""Each named failure mode of the library raises its own class and message."""

import math

import numpy as np
import pytest

from voroderiv import asympt, lemniscate, measure, odecheck, rational, rootfind, voronoi
from voroderiv.errors import DuplicateSites, OnSkeleton, SharedRoot, ZeroPolynomial

C12 = ((0.0, 0.0, 1.0), (-3.0, 1.0))

CASES = {
    "shared-root": (lambda: rational.polar_decompose([1.0, -1.0], [(1.0, 1), (2.0, 1)]),
                    SharedRoot, r"numerator vanishes at pole \(1\+0j\)"),
    # 0 lies on the bisector of 1 and -1
    "on-skeleton": (lambda: measure.cauchy_residual([1.0, -1.0], 0j, voronoi.build([1.0, -1.0])),
                    OnSkeleton, "branch choice ambiguous on the skeleton"),
    "no-pole": (lambda: rational.polar_form([], [], []), ValueError, "need at least one pole"),
    "order-mismatch": (lambda: rational.polar_form([0.0], [2], [(1.0,)]),
                       ValueError, "pole 0: order/coefficient mismatch"),
    "zero-top-coefficient": (lambda: rational.polar_form([0.0], [1], [(0.0,)]),
                             ValueError, "pole 0: top coefficient is zero"),
    "non-monic-summand": (lambda: lemniscate.LemniscateProblem(((0.0, 2.0), (-3.0, 1.0))),
                          ValueError, "summands must be monic"),
    "multiplier-count": (lambda: lemniscate.LemniscateProblem(C12, (1,)),
                         ValueError, "one multiplier per summand"),
    "order-zero": (lambda: lemniscate.build_rn(lemniscate.LemniscateProblem(C12), 0),
                   ValueError, "n must be >= 1"),
    "zero-residue": (lambda: asympt.twopole_zeros(0.0, 1.0, 0.0, 1.0, 3),
                     ValueError, "a1 and a2 must be nonzero"),
    "equal-poles": (lambda: asympt.twopole_zeros(1.0, 1.0, 1j, 1j, 3),
                    ValueError, "poles must be distinct"),
    "power-below-1": (lambda: odecheck.PowerSumFunction(0, (0.0, 1.0), (1.0, 1.0)),
                      ValueError, "order s must be positive"),
    "zero-weight": (lambda: odecheck.PowerSumFunction(2, (0.0, 1.0), (1.0, 0.0)),
                    ValueError, "weights must be nonzero"),
    "repeated-pole": (lambda: odecheck.PowerSumFunction(2, (1j, 1j), (1.0, 1.0)),
                      ValueError, "poles must be distinct"),
    "start-count": (lambda: rootfind.solve([-1.0, 0.0, 1.0], start=[0.5]),
                    ValueError, "start must supply one point per root"),
    "constant": (lambda: rootfind.fujiwara_bound([3.0]), ZeroPolynomial, "need degree >= 1"),
    "one-site": (lambda: voronoi.build([0j]), DuplicateSites, "need at least two sites"),
}


@pytest.mark.parametrize("case", CASES)
def test_failure_mode_is_named(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


def test_grid_discrepancy_excluding_the_whole_window_is_nan():
    # every point of the window [-1, 1]^2 lies within 10 of the atom at 0
    axes = asympt.grid_axes((0.0, 1.0), 4, np.random.default_rng(0))
    value, skipped = asympt.grid_discrepancy(
        axes, [0j], (0.0, 1.0), lambda z: voronoi.psi([1.0, -1.0], z), 10.0)
    assert math.isnan(value)
    assert skipped == 4 * 4
