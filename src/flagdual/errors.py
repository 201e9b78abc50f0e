"""Exception hierarchy shared by all flagdual modules."""


class FlagdualError(Exception):
    """Base class for all errors raised by this package.

    exit_code is the command-line exit status the error maps to: 1 for
    unparseable input, 2 for domain errors, 3 for solver failures.
    """

    exit_code = 2


class BackendMismatch(FlagdualError, TypeError):
    """Exact and float scalars were combined in one expression."""


class ParseError(FlagdualError, ValueError):
    """A scalar string or an input file could not be parsed."""

    exit_code = 1


class DegenerateInput(FlagdualError, ValueError):
    """Coincident points, vanishing pairings or collinear triples."""


class SingularMatrix(FlagdualError, ZeroDivisionError):
    """3x3 matrix with zero determinant passed where invertible required."""


class Unsupported(FlagdualError, TypeError):
    """The operation does not support these values (backend or size)."""


class NotOnSphere(FlagdualError, ValueError):
    """Point fails the Hermitian null condition required for CR flags."""


class OutOfDomain(FlagdualError, ValueError):
    """A coordinate or formal-sum generator landed in the forbidden set {0, 1}."""


class NotVeryGeneric(FlagdualError, ValueError):
    """A face coordinate equals -1, so the duality formulas degenerate."""


class WSingular(FlagdualError, ZeroDivisionError):
    """A denominator of the w-coordinate birational map vanished."""


class MalformedPairing(FlagdualError, ValueError):
    """Face pairing data is not a simplicial bijection."""


class SolverDiverged(FlagdualError, RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""

    exit_code = 3

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class LeftDomain(FlagdualError, RuntimeError):
    """A solver iterate entered the forbidden disks around 0 or 1."""

    exit_code = 3
