"""Exception hierarchy shared by all rwkit modules."""


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
