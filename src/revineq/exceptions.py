"""Exception types shared across the package, and ``where``.

An error carries only its message.  ``where`` reads the package functions
it passed through off the traceback that Python records, and the command
line prints both, so a message never names its own origin.
"""

import os
import traceback

_PACKAGE = os.path.dirname(__file__)


def where(exc: BaseException) -> str:
    """The package functions ``exc`` passed through, outermost first, as
    ``module.qualname`` joined by " > ".  Frames of ``cli`` and of lambdas
    and comprehensions are left out; "" if none is left."""
    names = []
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        code = frame.f_code
        folder, file = os.path.split(code.co_filename)
        if folder == _PACKAGE and file != "cli.py" and code.co_name[0] != "<":
            name = getattr(code, "co_qualname", code.co_name)   # 3.11 on
            names.append(f"{file[:-3]}.{name}")
    return " > ".join(names)


class RevineqError(Exception):
    """Base class of the package's errors."""


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
