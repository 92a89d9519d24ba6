"""Exception types raised by the library."""


class VoroderivError(Exception):
    """Base class for all library errors."""


class DuplicatePole(VoroderivError):
    """Two pole locations coincide within tolerance."""


class SharedRoot(VoroderivError):
    """The numerator vanishes at a pole within tolerance."""


class DegreeCollapse(VoroderivError):
    """The Laurent coefficients mu_1..mu_r of Q's pole part all fell below the floor.

    Signals catastrophic cancellation (rational.leading_term).  Nothing
    retries automatically: rebuild the form with precision="extended" to
    resolve it.  The CLI reports it with exit code 2.
    """


class CoefficientOverflow(VoroderivError):
    """An expansion's coefficients at the requested order overflow."""


class ZeroPolynomial(VoroderivError):
    """Operation requires a nonzero polynomial."""


class NoConvergence(VoroderivError):
    """Root iteration did not converge; best-effort result attached."""

    def __init__(self, message, rootset):
        super().__init__(message)
        self.rootset = rootset


class DuplicateSites(VoroderivError):
    """Voronoi sites are not pairwise distinct."""


class DegenerateScale(VoroderivError):
    """All sites coincide within tolerance; no diagram scale."""


class OutOfInterval(VoroderivError):
    """Edge parameter outside the edge's t-interval."""


class SkeletonProximity(VoroderivError):
    """Evaluation point too close to the Voronoi skeleton."""


class OnSkeleton(VoroderivError):
    """Point lies on the skeleton where the cell branch is ambiguous."""


class AtPole(VoroderivError):
    """Evaluation point coincides with a pole."""


class EmptyRootSet(VoroderivError):
    """No converged roots available to build a measure."""


class ExclusionTooLarge(VoroderivError):
    """Excluded area around singularities exceeds the allowed fraction."""


class NoDominantDegree(VoroderivError):
    """No summand has strictly largest degree; compactness not guaranteed."""


class NotFound(VoroderivError):
    """Search exhausted its budget without meeting the criterion."""

    def __init__(self, n_max):
        super().__init__(f"criterion not met for any n <= {n_max}")
        self.n_max = n_max
