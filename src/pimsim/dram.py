"""DRAM geometry and the physical-address <-> DRAM-coordinate bijection.

The address map is pure bit slicing: the low bits address bytes inside one
burst, and the remaining bits are carved into channel / rank / bank / row /
column fields in a configurable order (least significant first).  All
geometry counts are restricted to powers of two so that encode and decode
are exact inverses over the full capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapacityError, GeometryError

FIELD_NAMES = ("channel", "rank", "bank", "row", "column")


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DramGeometry:
    """Physical organization of the DRAM device.

    ``burst_bytes`` is the atomic transfer unit (256 bits by default, which
    holds 16 two-byte elements).
    """

    channels: int = 1
    ranks_per_channel: int = 1
    banks_per_rank: int = 16
    rows_per_bank: int = 64
    columns_per_row: int = 32
    burst_bytes: int = 32
    element_bytes: int = 2

    def __post_init__(self):
        for name in ("channels", "ranks_per_channel", "banks_per_rank",
                     "rows_per_bank", "columns_per_row"):
            value = getattr(self, name)
            if not _is_pow2(value):
                raise GeometryError(f"{name} must be a power of two >= 1, got {value}")
        if not _is_pow2(self.burst_bytes) or not _is_pow2(self.element_bytes):
            raise GeometryError("burst_bytes and element_bytes must be powers of two")
        if self.burst_bytes % self.element_bytes != 0:
            raise GeometryError("burst_bytes must be a multiple of element_bytes")

    @property
    def elements_per_burst(self) -> int:
        return self.burst_bytes // self.element_bytes

    @property
    def row_bytes(self) -> int:
        """Bytes held by one DRAM row of one bank."""
        return self.columns_per_row * self.burst_bytes

    @property
    def total_capacity(self) -> int:
        return (self.channels * self.ranks_per_channel * self.banks_per_rank
                * self.rows_per_bank * self.columns_per_row * self.burst_bytes)

    def count_of(self, field_name: str) -> int:
        return {
            "channel": self.channels,
            "rank": self.ranks_per_channel,
            "bank": self.banks_per_rank,
            "row": self.rows_per_bank,
            "column": self.columns_per_row,
        }[field_name]


@dataclass(frozen=True)
class DramCoord:
    channel: int = 0
    rank: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0
    burst_offset: int = 0

    def get(self, field_name: str) -> int:
        return getattr(self, field_name)


@dataclass(frozen=True)
class AddressMap:
    """Bit layout of a physical address above the intra-burst offset.

    ``field_order`` lists (field-name, bit-width) pairs from least to most
    significant.  Widths must equal log2 of the corresponding geometry
    counts; use :func:`validate_map` to check a hand-built map.
    """

    geometry: DramGeometry
    field_order: tuple = field(default=None)

    def __post_init__(self):
        if self.field_order is None:
            object.__setattr__(self, "field_order",
                               default_field_order(self.geometry))
        else:
            object.__setattr__(self, "field_order",
                               tuple((str(n), int(w)) for n, w in self.field_order))

    @property
    def offset_bits(self) -> int:
        return self.geometry.burst_bytes.bit_length() - 1


def default_field_order(geometry: DramGeometry) -> tuple:
    """Channel and bank in the low bits (interleaving-friendly), row on top."""
    order = ("channel", "bank", "column", "rank", "row")
    return tuple((name, (geometry.count_of(name).bit_length() - 1)) for name in order)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violation: str | None = None


def validate_map(amap: AddressMap) -> ValidationResult:
    """Check field coverage, width consistency, and geometry constraints.

    Reports the first violated constraint; a well-formed map yields
    ``ValidationResult(ok=True)``.
    """
    geo = amap.geometry
    names = [n for n, _ in amap.field_order]
    for name in names:
        if name not in FIELD_NAMES:
            return ValidationResult(False, f"unknown field {name!r}")
        if names.count(name) > 1:
            return ValidationResult(False, f"duplicate field {name!r}")
    for name in FIELD_NAMES:
        if name not in names:
            return ValidationResult(False, f"field coverage: missing {name!r}")
    for name, width in amap.field_order:
        count = geo.count_of(name)
        if width != count.bit_length() - 1:
            return ValidationResult(
                False,
                f"width mismatch: field {name!r} has width {width}, "
                f"geometry count {count} needs {count.bit_length() - 1}")
    return ValidationResult(True)


def slice_fields(amap: AddressMap, addr) -> dict:
    """Bit-slice ``addr`` into ``{field: value}`` plus ``burst_offset``.

    ``addr`` is a Python int or a numpy integer array (sliced elementwise);
    nothing is range-checked.
    """
    values = {"burst_offset": addr & (amap.geometry.burst_bytes - 1)}
    shift = amap.offset_bits
    for name, width in amap.field_order:
        values[name] = (addr >> shift) & ((1 << width) - 1)
        shift += width
    return values


def pack_fields(amap: AddressMap, values: dict):
    """Inverse of :func:`slice_fields`; values may be ints or numpy integer
    arrays that broadcast together, and a missing ``burst_offset`` is 0."""
    addr = values.get("burst_offset", 0)
    shift = amap.offset_bits
    for name, width in amap.field_order:
        addr = addr | (values[name] << shift)
        shift += width
    return addr


def decode_address(amap: AddressMap, addr: int) -> DramCoord:
    """Split a flat physical address into its DRAM coordinate."""
    geo = amap.geometry
    if addr < 0 or addr >= geo.total_capacity:
        raise CapacityError(f"address {addr:#x} out of range "
                            f"(capacity {geo.total_capacity:#x})")
    return DramCoord(**slice_fields(amap, addr))


def encode_coord(amap: AddressMap, coord: DramCoord) -> int:
    """Inverse of :func:`decode_address`."""
    geo = amap.geometry
    if not 0 <= coord.burst_offset < geo.burst_bytes:
        raise GeometryError(f"burst_offset {coord.burst_offset} out of range")
    values = {"burst_offset": coord.burst_offset}
    for name, _ in amap.field_order:
        value = values[name] = coord.get(name)
        if not 0 <= value < geo.count_of(name):
            raise GeometryError(f"{name} index {value} out of range "
                                f"(bound {geo.count_of(name)})")
    return pack_fields(amap, values)
