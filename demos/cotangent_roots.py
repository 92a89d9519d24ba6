"""Zeros of iterated derivatives of 1/(1+z^2).

The n-th derivative of 1/(1+z^2) has a polynomial numerator whose roots
are exactly cot(k pi / (n+1)), all on the real axis, which is the
perpendicular bisector of the two poles +-i.  This script finds the
zeros with rational.zeros and prints the worst deviation from the
closed form for a few orders.
"""

import math

import numpy as np

from voroderiv import rational

form = rational.polar_decompose([1.0], [(1j, 1), (-1j, 1)])

for n in (2, 5, 10, 30):
    rs = rational.zeros(form, n)
    expected = np.sort([1.0 / math.tan(k * math.pi / (n + 1))
                        for k in range(1, n + 1)])
    got = np.sort(np.asarray(rs.roots).real)
    err = np.abs(got - expected).max()
    imag = np.abs(np.asarray(rs.roots).imag).max()
    print(f"n = {n:3d}: degree {len(rs)}, worst |root - cot| = {err:.2e},"
          f" max |Im root| = {imag:.2e}")
