"""Seeded random input families, shared by the tests and CI's print-only steps."""

import numpy as np


def single_pole_draws():
    """(numerator, [(pole, order)]) for 300 draws of one pole each.

    Order from 1 to 11, a complex-normal pole, a numerator of degree 0 to
    2 r with complex-normal coefficients: above degree r - 1 the
    decomposition has a polynomial part.
    """
    rng = np.random.default_rng(3)
    for _ in range(300):
        order = int(rng.integers(1, 12))
        pole = complex(rng.normal(), rng.normal())
        degree = int(rng.integers(0, 2 * order + 1))
        numer = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        yield numer, [(pole, order)]
