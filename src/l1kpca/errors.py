"""Exception types shared across the package.

Each class carries the CLI exit status for it in its exit_code attribute:
data-shaped problems (bad input, unparseable files, schema drift,
oversized oracle instances) exit 3, numerical failures (non-convergence,
degenerate components, eigensolver breakdown) exit 4.
"""


class L1KpcaError(Exception):
    """Base class for all package errors; a data error unless a subclass says otherwise."""

    exit_code = 3


class InvalidData(L1KpcaError):
    """Input violates a precondition (non-finite values, shape mismatch, ...)."""


class ParseError(L1KpcaError):
    """A file could not be parsed; carries 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class SchemaError(L1KpcaError):
    """A persisted model has an unknown format version or a malformed structure."""


class DegenerateComponent(L1KpcaError):
    """A component's quadratic form c'Kc is numerically zero (e.g. rank exhausted)."""

    exit_code = 4


class NonConvergence(L1KpcaError):
    """The fixed-point iteration hit l1.MAX_ITER passes; the partial report is attached."""

    exit_code = 4

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class NumericalFailure(L1KpcaError):
    """A backend numerical routine failed to converge."""

    exit_code = 4


class InstanceTooLarge(L1KpcaError):
    """Exhaustive enumeration was requested beyond its size cap (oracle.MAX_ENUMERATION_SIZE)."""
