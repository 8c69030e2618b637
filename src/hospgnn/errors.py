"""Exception types shared across the package, and the count rule.

The CLI maps these to exit codes: usage/config problems exit 1, data
problems exit 2, numeric failures exit 3.
"""

import numbers


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericError(ArithmeticError):
    """A computation hit an invalid numeric state (NaN input, zero denominator)."""


class DataError(ValueError):
    """A dataset or episode request cannot be satisfied."""


class FormatError(DataError):
    """An embedding file does not conform to the HOSPEMB format."""


class DegenerateEpisodeError(DataError):
    """All relative features of an episode coincide; edge metrics are undefined."""


class ConfigError(ValueError):
    """A configuration is internally inconsistent."""


def require_count(name, value, least=1):
    """``value``, checked to be an integer of at least ``least``;
    anything else is a ConfigError naming it. A bool is no count, as for
    the CLI's config keys; numpy integers are."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return value
