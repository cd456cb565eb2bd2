"""Exception types shared by every module in the package, and its input gates.

Each gate (_integer, _integer_array, _real, _complex, _number_array) is
the package's one rule for its kind of number: none takes a bool or a
string, and each refuses with DomainError.
"""

import math
import numbers

import numpy as np


class HelsonError(Exception):
    """Base class for errors raised by this package."""


class DomainError(HelsonError, ValueError):
    """Invalid argument, index out of range, or sieve overflow."""


def _integer(n, what, low=None):
    """n as an int; DomainError unless it is an integer >= low, a bool excepted."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"{what} must be an integer, got {type(n).__name__}")
    n = int(n)
    if low is not None and n < low:
        raise DomainError(f"{what} must be >= {low}, got {n}")
    return n


def _integer_array(ns, low=None):
    """ns as an int64 array; DomainError unless it holds integers in [low, 2^63).

    An empty input passes whatever its dtype, so () and [] are valid.  An
    index past the int64 range is refused by its value, never wrapped or
    called a non-integer: numpy keeps a Python int past that range as an
    object, makes float64 of a list of them that fits neither int64 nor
    uint64, and casts a uint64 at or past 2^63 to a negative int64.
    """
    arr = np.asarray(ns)
    dtype = arr.dtype
    if not arr.size:
        return arr.astype(np.int64, copy=False)
    if dtype.kind == "f" and not isinstance(ns, np.ndarray):
        arr = np.array(ns, dtype=object)
    if arr.dtype == object and all(
            isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in arr.flat):
        bottom, top = int(min(arr.flat)), int(max(arr.flat))
    elif np.issubdtype(arr.dtype, np.integer):
        # only a uint64 passes 2^63, and only a low bound needs the minimum
        bottom = int(arr.min()) if low is not None else 0
        top = int(arr.max()) if arr.dtype == np.uint64 else 0
    else:
        raise DomainError(f"indices must be integers, got dtype {dtype}")
    if top >= 1 << 63:
        raise DomainError(f"index must be below 2^63, got {top}")
    if low is not None and bottom < low:
        raise DomainError(f"index must be >= {low}, got {bottom}")
    if bottom < -(1 << 63):
        raise DomainError(f"index must be >= -2^63, got {bottom}")
    return arr.astype(np.int64, copy=False)


def _real(x, what, high=math.inf, low=0.0):
    """x as a float; DomainError unless it is a real number, a bool excepted, in (low, high)."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise DomainError(f"{what} must be a real number, got {type(x).__name__}")
    try:
        x = float(x)
    except OverflowError:  # an int or Fraction past the float range
        x = math.inf
    if not low < x < high:
        if high < math.inf:
            raise DomainError(f"{what} must lie in ({low:g}, {high:g}), got {x}")
        sign = "positive and " if low == 0.0 else ""
        raise DomainError(f"{what} must be {sign}finite, got {x}")
    return x


def _complex(z, what, finite=True):
    """z as a complex; DomainError unless it is a number, finite if finite, a bool excepted."""
    if not isinstance(z, numbers.Complex) or isinstance(z, bool):
        raise DomainError(f"{what} must be a number, got {type(z).__name__}")
    try:
        z = complex(z)
    except OverflowError:  # an int or Fraction past the float range
        z = complex(math.inf)
    if finite and not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{what} must be finite, got {z}")
    return z


def _number_array(x):
    """x as float64 for an integer or real dtype, complex128 for a complex one; no scan."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iufc":
        raise DomainError(f"matrix entries must be numbers, got dtype {arr.dtype}")
    return arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)
