"""Exception hierarchy shared by all rwkit modules, and the input rules they
share.  :func:`_index` and :func:`_real` raise :class:`ParameterError` that
names the parameter and its range: an integer >= 0 that is not a ``bool``
(seeds, counts, axis lengths), and a ``numbers.Real`` that is not a
``bool``, inside the range the call states; NaN fails every range, a call
that states none checks only the type, and the value is never converted.
:func:`_array` and :func:`_real_array` read the arrays that callers pass.
:func:`_entries` refuses more entries than an array can hold.
"""

import math
import numbers
import operator

import numpy as np

__all__ = ["RwkitError", "ParameterError", "ShapeError", "NumericError", "InfeasibleError", "ConfigError"]


class RwkitError(Exception):
    """Base class for all rwkit errors."""


class ParameterError(RwkitError, ValueError):
    """A scalar parameter is outside its valid range."""


class ShapeError(RwkitError, ValueError):
    """Array shapes or lengths are incompatible."""


class NumericError(RwkitError, ArithmeticError):
    """A computation produced non-finite values."""


class InfeasibleError(RwkitError):
    """A certificate precondition is violated (e.g. tau * alpha <= 2 * epsilon)."""


class ConfigError(RwkitError):
    """A configuration file is malformed or inconsistent."""


def _index(value, what):
    # An integer >= 0 that is not a bool, as operator.index reads it.
    try:
        i = operator.index(value)
    except TypeError:
        i = -1
    if i < 0 or isinstance(value, bool):
        raise ParameterError(f"{what} must be an integer >= 0, got {value!r}")
    return i


def _array(value, what, error=ShapeError, dtype=None, copy=None, finite=False):
    # np.array(value, dtype, copy=copy); ``error`` if ragged or, given a dtype
    # or ``finite``, not numbers (a cast reads None as NaN) or not finite.
    try:
        if dtype is None and not finite:
            return np.array(value, copy=copy)
        arr = np.asarray(value)
        if arr.dtype.kind not in "biufc":
            raise TypeError(f"got {arr.dtype} entries")
        arr = np.array(arr, dtype=dtype, copy=copy)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be a rectangular array of numbers ({exc})") from None
    if finite and not np.isfinite(arr).all():
        raise error(f"{what} contains non-finite entries")
    return arr


def _real_array(value, what, error):
    # A finite array of numbers as a real float64 copy; ``error`` if not real.
    v = _array(value, what, error, np.complex128, finite=True)
    if np.any(v.imag):
        raise error(f"{what} has a non-zero imaginary part")
    return v.real.copy()


# The most entries of an array: numpy indexes a complex128 array of at most
# intp.max bytes, and a larger size ends in its bare ValueError.
_MAX_ENTRIES = np.iinfo(np.intp).max // 16


def _entries(count, what, error):
    # ``error`` if no array can hold ``count`` entries, an integer.
    if count > _MAX_ENTRIES:
        raise error(f"{what}: {count} entries, more than the {_MAX_ENTRIES} an array can hold")


def _signal_shape(shape, what, error=ShapeError):
    # A signal, and a mask or a file meant for one: 1 or 2 axes, none empty,
    # and no more entries than an array can hold.
    if len(shape) not in (1, 2) or 0 in shape:
        raise error(f"{what} must be a non-empty 1D or 2D array, got shape {shape}")
    _entries(math.prod(shape), f"{what} of shape {shape}", error)


def _real(value, what, ge=None, gt=None, le=None, lt=None):
    # A real that is not a bool, with value >= ge, > gt, <= le and < lt for
    # each bound given (at most one lower and one upper); NaN fails them all.
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if (
            (ge is None or value >= ge)
            and (gt is None or value > gt)
            and (le is None or value <= le)
            and (lt is None or value < lt)
        ):
            return value
    raise ParameterError(f"{what} must {_range(ge, gt, le, lt)}, got {value!r}")


def _range(ge, gt, le, lt):
    # The range in words: "be positive", "be >= 0", "lie in [0, 1]"; an
    # upper bound "< inf" reads "finite", and no bound "a real number".
    finite = lt == math.inf
    if finite:
        gt, lt = (None if gt == -math.inf else gt), None
    bounds = [(op, b) for op, b in ((">=", ge), (">", gt), ("<=", le), ("<", lt)) if b is not None]
    if len(bounds) == 2:
        (lo_op, lo), (hi_op, hi) = bounds
        lo, hi = _bound(lo), _bound(hi)
        return f"lie in {'[' if lo_op == '>=' else '('}{lo}, {hi}{']' if hi_op == '<=' else ')'}"
    words = ["finite"] if finite else []
    if bounds:
        op, b = bounds[0]
        words.append("positive" if bounds == [(">", 0)] else f"{op} {_bound(b)}")
    return "be " + (" and ".join(words) or "a real number")


def _bound(b):
    # An integer bound exactly, as %g could round it past the value refused.
    return str(b) if isinstance(b, numbers.Integral) else f"{b:g}"
