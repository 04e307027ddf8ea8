"""Exception hierarchy shared across the simulator, and the one integer rule.

Every count, length and size that pimsim takes passes :func:`check_int`:
an integer, NumPy's included but no bool, from a least value to
2**63 - 1, kept as a Python ``int``.  :func:`is_int` is its predicate.
"""

import numbers


class SimulatorError(Exception):
    """Base class for all simulator errors."""


class CapacityError(SimulatorError):
    """An address, allocation, or image exceeds the available capacity."""


class GeometryError(SimulatorError):
    """A coordinate or parameter is inconsistent with the DRAM geometry."""


class RegionError(SimulatorError):
    """Invalid memory region request or unmapped address."""


class AttributeViolation(SimulatorError):
    """An operation requires a different cacheability attribute."""


class ConfigError(SimulatorError):
    """Invalid or inconsistent run configuration."""


def is_int(value) -> bool:
    """Whether ``value`` is an integer, a NumPy one included, but no bool."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def check_int(name: str, value, least: int = 1, error=ConfigError) -> int:
    """``value`` as a Python ``int``; ``error`` unless it is an integer
    (:func:`is_int`) from ``least`` to 2**63 - 1."""
    if is_int(value):
        value = int(value)
        if least <= value < 2 ** 63:
            return value
        if value >= least:
            raise error(f"{name} must fit in an int64, got {value}")
    raise error(f"{name} must be an integer >= {least}, got {value!r}")
