"""Exception types and the argument rules shared across the package."""

import math

import numpy as np


class ConstructionError(RuntimeError):
    """Raised when a codebook or code could not be built under the given limits."""


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _check_int(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as an int.  Raises ValueError, naming ``name``, unless it is a
    Python or numpy integer (not a bool, not a float) in [low, high)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value < high):
        below = "" if high == math.inf else f" and below {high}"
        raise ValueError(f"{name} must be an integer >= {low}{below}, got {value!r}")
    return int(value)


def _check_real(name: str, value, low, high=math.inf, ends: str = "[)"):
    """``value`` as a Python int or float.  Raises ValueError, naming ``name``, unless it is
    a real number (not a bool, not NaN) in the interval [low, high), ``ends`` its brackets."""
    value = value.item() if isinstance(value, np.generic) else value  # numpy scalars too
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (low < value if ends[0] == "(" else low <= value)
            or not (value < high if ends[1] == ")" else value <= high)):
        raise ValueError(f"{name} must be a number in {ends[0]}{low}, {high}{ends[1]},"
                         f" got {value!r}")
    return value
