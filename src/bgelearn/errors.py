"""Exception hierarchy shared by all bgelearn modules."""


class BgeLearnError(Exception):
    """Base class for every error raised by this package."""


class NotPositiveDefiniteError(BgeLearnError):
    """A matrix required to be symmetric positive definite is not."""


class IndexOutOfRangeError(BgeLearnError, IndexError):
    """A row/column selection names an invalid or repeated index."""


class CycleDetectedError(BgeLearnError):
    """A graph required to be acyclic contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"directed cycle: {' -> '.join(map(str, self.cycle))}")


class NonPositiveVarianceError(BgeLearnError):
    """A conditional variance is zero or negative."""


class VariableMismatchError(BgeLearnError):
    """Two objects that must share a variable set do not."""


class TooLargeError(BgeLearnError):
    """The request exceeds the exhaustive-enumeration size cap."""


class MissingValueError(BgeLearnError):
    """A data cell is absent or non-finite; only complete data is supported."""

    def __init__(self, row, column):
        self.row = row
        self.column = column
        super().__init__(f"missing value at row {row}, column {column!r}")


class DataParseError(BgeLearnError):
    """A data or configuration file could not be parsed."""


class DuplicateVariableError(BgeLearnError):
    """The same variable name is declared more than once."""


class UnknownVariableError(BgeLearnError):
    """A variable name does not exist in the referenced object."""


class InvalidNetworkError(BgeLearnError):
    """Network parameters do not match the companion structure."""


class AlphaTooSmallError(BgeLearnError):
    """The precision equivalent sample size is too small for elicitation."""


class DimensionMismatchError(BgeLearnError):
    """Vector/matrix dimensions disagree."""


class GammaDomainError(BgeLearnError):
    """A log-gamma argument is outside the positive domain."""


class EmptyInputError(BgeLearnError):
    """A nonempty collection was required."""
