"""Zero-counting measures converging to the Voronoi edge measure.

Take three poles at the cube roots of unity with generic coefficients.
As the derivative order n grows, the zeros of the numerator crowd onto
the Voronoi skeleton of the poles, and their distribution along each
edge approaches the explicit limit density.  We track the per-edge
Kolmogorov-Smirnov statistic and the grid L1 gap between the empirical
log potential and the limit potential, then render the n = 100 picture.
"""

import cmath
import math

from voroderiv import asympt, rational
from voroderiv.svg import render_svg

poles = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
form = rational.polar_form(poles, [1, 1, 1], [[1.0], [2.0], [1.0 + 1j]])
diagram = form.diagram

last_roots = None
for n in (25, 50, 100):
    rs = rational.zeros(form, n)
    rep = asympt.project_and_bin(asympt.empirical(rs, n), diagram)
    l1 = asympt.potential_l1(rs.roots, diagram, window=(0.0, 3.0), grid=100)
    ks = ", ".join(f"{ec.ks:.4f}" for ec in rep.edges)
    print(f"n = {n:3d}: m_n = {rep.m_n}, per-edge KS = [{ks}], "
          f"potential L1 gap = {l1:.4f}")
    last_roots = list(rs.roots)

render_svg("skeleton_n100.svg", diagram, roots=last_roots, window=(0.0, 2.0))
print("wrote skeleton_n100.svg")
