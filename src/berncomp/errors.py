"""Exception hierarchy shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ToolkitError, ValueError):
    """An argument violates a documented precondition (non-finite entries,
    dimension mismatch, malformed structure)."""


class BudgetExceededError(ToolkitError):
    """A computation was requested beyond its enumeration, row or memory
    budget."""


class DegenerateSetError(ToolkitError):
    """A computation requires at least two distinct elements but every pair
    coincides (within the degenerate-pair threshold)."""


class SolverError(ToolkitError):
    """An internal numerical solver failed to converge; the message carries
    diagnostics (iteration count, problem size)."""


class ConfigError(ToolkitError):
    """A configuration file failed strict parsing.

    Carries the 1-based line and column of the offending token so the CLI
    can point at it.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            prefix = f"line {line}"
            if column is not None:
                prefix += f", column {column}"
            message = f"{prefix}: {message}"
        super().__init__(message)
