"""Exception types shared across the package, and the one integer rule."""

import operator


def excerpt(text) -> str:
    """``text`` to quote in a message, cut to 40 characters and "…"."""
    text = str(text)
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
    """A metric definition file failed to parse.

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
        raise ConfigurationError(
            f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise ConfigurationError(f"{what} must be >= {least}, got {value}")
    return value
