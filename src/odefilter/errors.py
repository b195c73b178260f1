"""Exception types shared across the package, and the parameter rules that raise them."""

import math
import numbers


class ContractViolation(ValueError):
    """An argument violates an operation's precondition (bad dimension, sign, grid)."""


class SingularUpdateError(RuntimeError):
    """Kalman update with zero innovation variance but nonzero innovation.

    Carries ``step`` and ``t`` once the solver loop knows them.
    """

    def __init__(self, message: str, step: int | None = None, t: float | None = None):
        super().__init__(message)
        self.step = step
        self.t = t


class DivergedSolveError(RuntimeError):
    """The vector field returned a non-finite value; the solve cannot continue."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class CsvFormatError(ValueError):
    """A trajectory CSV file does not parse; ``line`` is the offending 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _is_finite(value) -> bool:
    """A real number (numpy scalars count, strings and arrays do not), neither NaN nor inf."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _integer_at_least(value, k: int, name: str) -> int:
    """``value`` as an int if it is an integer >= k (2.0 counts, 2.5, NaN and inf do not)."""
    if not (_is_finite(value) and value == int(value) >= k):
        raise ContractViolation(f"{name} must be an integer >= {k}, got {value}")
    return int(value)


def _finite_positive(value, name: str) -> float:
    if not (_is_finite(value) and value > 0):
        raise ContractViolation(f"{name} must be finite and > 0, got {value}")
    return float(value)


def _finite_nonnegative(value, name: str) -> float:
    if not (_is_finite(value) and value >= 0):
        raise ContractViolation(f"{name} must be finite and >= 0, got {value}")
    return float(value)
