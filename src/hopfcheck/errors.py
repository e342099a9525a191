"""Exception taxonomy shared by all modules.

Every failure mode that a caller can reasonably branch on gets its own
class.  The command line reports a HopfError as malformed input (exit 2)
and lets every other exception through as a defect.
"""


class HopfError(ValueError):
    """Base class for all structured errors raised by this package."""

    stage: str | None = None  # name of the pipeline check that raised, where known


class DimMismatch(HopfError):
    """Operands have incompatible dimensions or basis sizes."""


class SingularMatrix(HopfError):
    """Exact inverse requested for a matrix with no inverse."""


class NotPrimitiveRoot(HopfError):
    """Scalar is not a primitive root of unity of the required order."""


class InvalidCayleyTable(HopfError):
    """Multiplication table is not a group (associativity, identity or inverses fail)."""


class NoIntegral(HopfError):
    """Invariance system has only the zero solution."""


class NonUniqueIntegral(HopfError):
    """Invariance system has a solution space of dimension above one."""


class RightInvarianceFailed(HopfError):
    """Candidate right-invariant functional fails its defining identity."""


class InconsistentSystem(HopfError):
    """Row-by-row extraction of an element gave contradictory rows."""


class NotGroupLike(HopfError):
    """Element fails the comultiplication or counit condition for group-likes."""


class NotFaithful(HopfError):
    """Bilinear form of the functional is degenerate, no modular automorphism."""


class NotAutomorphism(HopfError):
    """Candidate map is not a unital algebra automorphism."""


class NotProportional(HopfError):
    """Two functionals expected to be proportional are not."""


class InconsistentWithDirectComputation(HopfError):
    """Two independent computation routes for the same object disagree."""


class NoStarStructure(HopfError):
    """Operation requires a star structure and the algebra carries none."""


class NumericalFailure(HopfError):
    """A routine left its validity envelope: a float residual, an order past
    its cap, or a star-Gram that is not Hermitian."""


class FormatError(HopfError):
    """Input document violates the file format or scalar grammar."""
