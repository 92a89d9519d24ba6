"""Seeded random input families, shared by the tests and CI's print-only steps."""

import numpy as np

from voroderiv import rational


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


def multi_pole_draws():
    """(form, n) for 600 draws of 2 to 6 poles each, in double precision.

    Complex-normal poles; in 30% of the draws orders from 1 to 3, else
    simple poles; complex-normal polar coefficients; in 20% a real
    polynomial part of degree 0 to 2; n from {50, 200, 600, 1000}.
    """
    rng = np.random.default_rng(7)
    for _ in range(600):
        d = int(rng.integers(2, 7))
        poles = rng.normal(size=d) + 1j * rng.normal(size=d)
        orders = rng.integers(1, 4, size=d) if rng.random() < 0.3 else np.ones(d, dtype=int)
        coeffs = [rng.normal(size=r) + 1j * rng.normal(size=r) for r in orders]
        pp = rng.normal(size=int(rng.integers(1, 4))) if rng.random() < 0.2 else None
        n = int(rng.choice([50, 200, 600, 1000]))
        yield rational.polar_form(poles, orders, coeffs, polynomial_part=pp), n
