"""Exception hierarchy shared by all modules."""


class SimplexSectionError(Exception):
    """Base class for every library-specific error."""


class RankDeficient(SimplexSectionError):
    """Input vectors are linearly dependent beyond the pivot threshold."""


class DegenerateInput(SimplexSectionError):
    """A formula's denominator vanished (hyperplane parallel to the simplex, etc.)."""


class EmptySection(SimplexSectionError):
    """The hyperplane/subspace misses the relative interior of the simplex.

    Raised instead of silently returning 0: a normal vector whose nonzero
    coordinates all share one sign meets the simplex in at most a face, and
    the caller has to decide what that means.
    """


class PointSection(SimplexSectionError):
    """The section is a single vertex.  Carries the vertex coordinates."""

    def __init__(self, vertex):
        super().__init__("section is a single point")
        self.vertex = vertex


class TolUnreachable(SimplexSectionError):
    """Adaptive quadrature stalled before reaching the requested tolerance."""


class ZeroHits(SimplexSectionError):
    """A Monte Carlo run produced no accepted samples."""


class NotSupported(SimplexSectionError):
    """Requested configuration is outside the implemented (desk-scale) range."""


class OutOfRange(SimplexSectionError):
    """Scalar argument outside its documented domain."""


class NoSolution(SimplexSectionError):
    """A rescaling system had no root inside its bracket (should not happen)."""


class CounterexampleFound(SimplexSectionError):
    """A randomized verification found a bound violation.  Carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotFound(SimplexSectionError):
    """A search over its whole domain produced no qualifying value."""


class DegeneratePolytope(SimplexSectionError):
    """Facet structure of a section polytope is inconsistent."""
