"""Exception types shared across the toolkit."""


class FlatkitError(Exception):
    pass


class UsageError(FlatkitError):
    """Caller violated a precondition (bad labels, bad parameters, ...)."""


class ConductorMismatchError(UsageError):
    """Arithmetic attempted between scalars of different conductors."""


class ScalarParseError(FlatkitError):
    """Malformed scalar token."""


class MatrixParseError(FlatkitError):
    """Malformed representation file."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class ContractNonFlatError(UsageError):
    """Attempted to contract a set that is not a flat."""


class BudgetExceededError(FlatkitError):
    """An enumeration exceeded its work budget."""


class GenerationError(FlatkitError):
    """Random instance generation exhausted its rejection-sampling limit."""


class UnsatisfiableShapeError(UsageError, GenerationError):
    """A random instance was asked for in a shape that no simple matroid
    has, so rejection sampling could never succeed; raised before any
    draw."""


class InternalInconsistencyError(FlatkitError):
    """A theorem-backed runtime assertion failed.

    For representable input this signals a bug in the toolkit, not in the
    mathematics; the attached trace records the construction state.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
