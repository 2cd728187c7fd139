"""Exception hierarchy shared by all rwkit modules, and the integer check
that the seed rule and every count share."""

import operator


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
