"""Exception types and the argument rules shared across the package."""

import math
import reprlib
import sys

import numpy as np


class ConstructionError(RuntimeError):
    """Raised when a codebook or code could not be built under the given limits."""


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _bound(value):
    """A bound as a message prints it: a power of two from 2**32 up as 2**k."""
    k = abs(value).bit_length() - 1 if isinstance(value, int) else 0
    return f"{'-' * (value < 0)}2**{k}" if k >= 32 and abs(value) == 2**k else value


def _check_int(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as an int.  Raises ValueError, naming ``name``, unless it is a
    Python or numpy integer (not a bool, not a float) in [low, high)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value < high):
        below = "" if high == math.inf else f" and below {_bound(high)}"
        raise ValueError(f"{name} must be an integer >= {_bound(low)}{below},"
                         f" got {reprlib.repr(value)}")
    return int(value)


def _check_real(name: str, value, low, high=math.inf, ends: str = "[)"):
    """``value`` as a Python int or float.  Raises ValueError, naming ``name``, unless it is
    a real number (not a bool, not NaN) in the interval [low, high), ``ends`` its brackets.
    An int past the float range is read as the infinity of its sign, as json reads 1e400."""
    value = given = value.item() if isinstance(value, np.generic) else value  # numpy scalars too
    if isinstance(value, int) and not -sys.float_info.max <= value <= sys.float_info.max:
        value = math.inf if value > 0 else -math.inf
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (low < value if ends[0] == "(" else low <= value)
            or not (value < high if ends[1] == ")" else value <= high)):
        raise ValueError(f"{name} must be a number in {ends[0]}{_bound(low)}, {_bound(high)}"
                         f"{ends[1]}, got {reprlib.repr(given)}")
    return value


def _check_array(name: str, value, low, high=math.inf, ends="[)", ndim=1, kinds="iuf"):
    """``value`` as a new float array, an int64 one when ``kinds`` is "iu".  Raises
    ValueError, naming ``name``, unless it is a nonempty ``ndim``-D array of a numpy
    dtype of ``kinds`` (integer or float: not bool, str or object) whose entries lie
    in the interval of :func:`_check_real`."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        array = np.empty(0)
    if (array.dtype.kind not in kinds or array.ndim != ndim or array.size == 0
            or not np.all(low < array if ends[0] == "(" else low <= array)
            or not np.all(array < high if ends[1] == ")" else array <= high)):
        raise ValueError(f"{name} must be a nonempty {ndim}-D array of"
                         f" {'integers' if kinds == 'iu' else 'numbers'} in {ends[0]}{_bound(low)},"
                         f" {_bound(high)}{ends[1]}, got {reprlib.repr(value)}")
    return array.astype(np.int64 if kinds == "iu" else float)
