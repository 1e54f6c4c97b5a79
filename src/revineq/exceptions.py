"""Exception types shared across the package.

Every error message is prefixed with the module and operation it originates
from, so CLI users can locate the failing step without a traceback.
"""


class RevineqError(Exception):
    """Base class; carries the module/operation of origin."""

    def __init__(self, message: str, *, module: str = "", operation: str = ""):
        self.module = module
        self.operation = operation
        where = f"{module}.{operation}: " if (module or operation) else ""
        super().__init__(where + message)


class ParameterError(RevineqError):
    """A scalar parameter violates a stated admissibility condition."""


class ShapeError(RevineqError):
    """Point arrays do not match the group's topological dimension."""


class ConfigError(RevineqError):
    """Configuration file failed to parse or contains unknown/invalid keys."""


class NumericalError(RevineqError):
    """A computation failed on admissible input (CLI exit status 3)."""


class DegenerateInputError(NumericalError):
    """Input makes a side of the inequality zero or undefined (0^q branch)."""


class DivergenceError(NumericalError):
    """A requested integral diverges, or its estimate overflows."""


class EvaluationError(NumericalError):
    """An integrand returned a non-finite value at a concrete point."""


class EstimationError(NumericalError):
    """All candidate evaluations during a best-constant search degenerated."""
