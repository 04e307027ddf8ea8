"""DRAM geometry and the physical-address <-> DRAM-coordinate bijection.

The address map is pure bit slicing: the low bits address bytes inside one
burst, and the remaining bits are carved into channel / rank / bank / row /
column fields in a configurable order (least significant first).  A map is
that order of field names alone: every width is log2 of a geometry count,
so all counts are restricted to powers of two, and encode and decode are
exact inverses over the full capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import CapacityError, GeometryError, check_int

FIELD_NAMES = ("channel", "rank", "bank", "row", "column")


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
        for name in (f.name for f in fields(self)):  # every field is a count
            value = check_int(name, getattr(self, name), error=GeometryError)
            object.__setattr__(self, name, value)
            if value & (value - 1):
                raise GeometryError(f"{name} must be a power of two, got {value}")
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


@dataclass(frozen=True)
class DramCoord:
    channel: int = 0
    rank: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0
    burst_offset: int = 0


@dataclass(frozen=True)
class AddressMap:
    """Bit layout of a physical address above the intra-burst offset.

    ``field_order`` names each of the five fields once, least significant
    first.  Each field's width is log2 of its geometry count, derived here
    as ``widths``; an unknown, duplicate or missing name raises
    :class:`GeometryError`.
    """

    geometry: DramGeometry
    # channel and bank in the low bits (interleaving-friendly), row on top
    field_order: tuple = ("channel", "bank", "column", "rank", "row")
    widths: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = tuple(self.field_order)
        for name in order:
            if name not in FIELD_NAMES:
                raise GeometryError(f"unknown address field {name!r}")
            if order.count(name) > 1:
                raise GeometryError(f"duplicate address field {name!r}")
        missing = [name for name in FIELD_NAMES if name not in order]
        if missing:
            raise GeometryError(f"address fields missing: {missing}")
        geo = self.geometry
        counts = {"channel": geo.channels, "rank": geo.ranks_per_channel,
                  "bank": geo.banks_per_rank, "row": geo.rows_per_bank,
                  "column": geo.columns_per_row}
        object.__setattr__(self, "field_order", order)
        object.__setattr__(self, "widths", tuple(
            counts[name].bit_length() - 1 for name in order))

    @property
    def offset_bits(self) -> int:
        return self.geometry.burst_bytes.bit_length() - 1


def slice_fields(amap: AddressMap, addr) -> dict:
    """Bit-slice ``addr`` into ``{field: value}`` plus ``burst_offset``.

    ``addr`` is a Python int or a numpy integer array (sliced elementwise);
    nothing is range-checked.
    """
    values = {"burst_offset": addr & (amap.geometry.burst_bytes - 1)}
    shift = amap.offset_bits
    for name, width in zip(amap.field_order, amap.widths):
        values[name] = (addr >> shift) & ((1 << width) - 1)
        shift += width
    return values


def pack_fields(amap: AddressMap, values: dict):
    """Inverse of :func:`slice_fields`; values may be ints or numpy integer
    arrays that broadcast together, and a missing ``burst_offset`` is 0."""
    addr = values.get("burst_offset", 0)
    shift = amap.offset_bits
    for name, width in zip(amap.field_order, amap.widths):
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
    if not 0 <= coord.burst_offset < amap.geometry.burst_bytes:
        raise GeometryError(f"burst_offset {coord.burst_offset} out of range")
    values = {"burst_offset": coord.burst_offset}
    for name, width in zip(amap.field_order, amap.widths):
        value = values[name] = getattr(coord, name)
        if not 0 <= value < 1 << width:
            raise GeometryError(f"{name} index {value} out of range "
                                f"(bound {1 << width})")
    return pack_fields(amap, values)
