"""Exception hierarchy shared by all toepsolve modules."""


class ToepsolveError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ToepsolveError, ValueError):
    """An array has the wrong shape, length or dtype for the operation."""


class DimensionMismatch(ShapeError):
    """Operand dimensions are incompatible (matrix product, solve, ...)."""


class BlockShapeMismatch(ShapeError):
    """A block array handed to a generator, operator or bordered system has the wrong shape or type."""


class SingularMatrix(ToepsolveError, ArithmeticError):
    """A (near-)zero pivot was met while factorizing a block."""


class SingularBlock(SingularMatrix):
    """The leading self block of a block-Toeplitz system is singular."""


class SingularDenominator(SingularMatrix):
    """A denominator matrix of the bordering recursion is singular.

    Carries the recursion step at which the factorization failed; the
    system may still be solvable by the dense or iterative paths.
    """

    def __init__(self, step, msg=None):
        self.step = step
        super().__init__(
            msg
            or f"singular denominator at bordering step {step}; "
            "fall back to the dense or iterative solver"
        )


class SingularSchurComplement(SingularMatrix):
    """The reduced border operator is singular."""


class InvalidSpec(ToepsolveError, ValueError):
    """A problem specification violates its invariants."""


class TooLargeForOracle(ToepsolveError):
    """A dense assembly was requested above the configured size cap."""


class IndexOutOfRange(ToepsolveError, IndexError):
    """An element-local or column index is outside its valid range."""


class FormatError(ToepsolveError):
    """A serialized problem file cannot be decoded."""


class FormatVersionMismatch(FormatError):
    """The file magic or header version is not supported."""


class ChecksumMismatch(FormatError):
    """The file payload is truncated or fails its checksum."""


class NoConvergence(ToepsolveError):
    """An iterative solve stopped at the iteration cap above tolerance.

    The best iterate and the report of every Krylov group are attached so
    callers can inspect, persist or retry.  ``cli.run_method`` also
    attaches the finished record of the run as ``record``.
    """

    def __init__(self, msg, solution=None, reports=None):
        super().__init__(msg)
        self.solution = solution
        self.reports = reports
        self.record = None
