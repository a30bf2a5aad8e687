"""Exception types, and the rules that read a caller's numbers and arrays."""

import math
import numbers
import operator

import numpy as np


def excerpt(value, show=str) -> str:
    """``show(value)`` (``str`` or ``repr``) to quote in a message, cut
    to 40 characters and "…".  Python refuses the text of an int past
    its 4300-digit limit, alone or inside a container: such an int is
    named by its bit length, and any other value by its type."""
    try:
        text = show(value)
    except ValueError:          # past sys.get_int_max_str_digits()
        text = (f"an int of {value.bit_length()} bits"
                if isinstance(value, int) else
                f"a {type(value).__name__} too long to quote")
    return text if len(text) <= 40 else text[:40] + "…"


class MrootError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MrootError):
    """A base point lies outside the field's declared domain box."""


class AdmissibleConeError(MrootError):
    """A probe direction leaves the admissible cone (A <= 0 there)."""


class DegenerateMetricError(MrootError):
    """The Hessian of A in y is singular or not positive definite.

    ``condition`` is the condition number of the offending matrix, its
    largest over its smallest eigenvalue magnitude, and inf when it is
    singular.  It is None where no matrix was examined: a non-finite
    spray or geodesic state.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class ConfigurationError(MrootError):
    """A run was requested with inconsistent or insufficient configuration
    (too few base points, rank-deficient direction fan, wrong degree)."""


class MetricFileError(MrootError):
    """A metric definition file could not be read or failed to parse.

    ``line`` and ``column`` are 1-based positions of the offending token
    when known.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


def integer(value, what, least):
    """``value`` as an int, if it is an integer (``operator.index``
    accepts it) of at least ``least``; otherwise
    :class:`ConfigurationError` naming ``what``.  Every count, seed,
    index and exponent a caller passes is read here, so none is
    truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{what} must be an integer, got "
                                 f"{excerpt(value, repr)}") from None
    if value < least:
        raise ConfigurationError(
            f"{what} must be >= {least}, got {excerpt(value)}")
    return value


def real(value, what, least=None):
    """``value`` as a float if ``numbers.Real`` admits it, else
    ConfigurationError naming ``what``; with ``least``, finite and >= it."""
    try:    # float and int first: numbers.Real alone costs 0.5 us (3.11)
        num = float(value if isinstance(value, (float, int, numbers.Real))
                    else None)
    except (TypeError, OverflowError):  # float(None); an int past the range
        raise ConfigurationError(f"{what} must be a real number, got "
                                 f"{excerpt(value, repr)}") from None
    if least is not None and not (math.isfinite(num) and num >= least):
        bound = f" and >= {least:g}" if least > -math.inf else ""
        raise ConfigurationError(f"{what} must be finite{bound}, got {num!r}")
    return num


def vector(value, what):
    """``value`` as a float64 array if numpy reads it as bool, int or
    float entries, or as objects that ``numbers.Real`` admits all (an
    int past int64), else (str, complex, None, other objects, ragged, an
    int past the float range) :class:`ConfigurationError` naming
    ``what``; the caller checks its shape."""
    try:
        array = np.asarray(value)
        if array.dtype.kind == "O" and all(
                isinstance(v, numbers.Real) for v in array.flat):
            array = array.astype(float)
    except (ValueError, OverflowError):  # ragged; an int past the range
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise ConfigurationError(f"{what} must be an array of real numbers, "
                                 f"got {excerpt(value, repr)}")
    return np.asarray(array, dtype=float)
