"""Exception hierarchy shared across the simulator."""


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
