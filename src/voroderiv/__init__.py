"""Zero asymptotics of iterated derivatives of rational functions.

The zeros of successive derivatives of a rational function drift onto
the Voronoi diagram of its poles, distributed according to an explicit
edge measure.  This package computes both sides of that statement:
exact iterated derivatives and their numerators, high-degree root
sets, the Voronoi diagram with its limit measure, and quantitative
comparisons between the two.

Each module is its own namespace, with its public names in its __all__:
`from voroderiv import rational`, then `rational.zeros(form, n)`.
"""

__version__ = "0.1.0"
