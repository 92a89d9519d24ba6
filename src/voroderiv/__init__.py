"""Zero asymptotics of iterated derivatives of rational functions.

The zeros of successive derivatives of a rational function drift onto
the Voronoi diagram of its poles, distributed according to an explicit
edge measure.  This package computes both sides of that statement:
exact iterated derivatives and their numerators, high-degree root
sets, the Voronoi diagram with its limit measure, and quantitative
comparisons between the two.
"""

from . import _poly, asympt, lemniscate, measure, odecheck, rational, rootfind, svg, voronoi
from ._poly import DOUBLE, EXTENDED
from .asympt import (
    ComparisonReport,
    EmpiricalMeasure,
    empirical,
    potential_l1,
    project_and_bin,
    single_pole_escape,
    twopole_zeros,
)
from .lemniscate import (
    LemniscateProblem,
    LemniscateReport,
    build_rn,
    compactness_and_compare,
    dominance_radius,
    psi_max,
    rn_evaluator,
)
from .measure import (
    cauchy_branch,
    cauchy_residual,
    cauchy_transform,
    edge_cdf,
    edge_density,
    edge_mass,
    edge_quantile,
    potential_from_measure,
    skeleton_starts,
    total_mass,
)
from .odecheck import PowerSumFunction, d2_numerator_residual, powersum_residual
from .rational import (
    DerivativeState,
    NumeratorResult,
    PolarForm,
    degree_diagnostics,
    derivative_state,
    newton_evaluator,
    numerator,
    polar_decompose,
    polar_form,
)
from .rootfind import RootSet, fujiwara_bound, solve
from .svg import render_svg
from .voronoi import (
    EdgeSegment,
    VoronoiDiagram,
    build,
    cell_branch,
    distance_to_skeleton,
    locate,
    phi,
    psi,
)

__version__ = "0.1.0"
