"""Host-friendly and PIM-aware weight placement, conversion, and the
swizzled memory copy.

Placement scheme
----------------
Output rows are grouped into tiles of ``elements_per_burst`` (16) rows.
Tiles are assigned round-robin over the active banks of the active
channels; once every active bank holds a tile, the next tile starts a new
*slot* stacked along DRAM rows within each bank.  Inside a bank, bursts
are column-major: burst ``j`` of a tile holds input column ``j`` for the
16 rows of the tile, one row per burst lane.  Every matrix row therefore
resides entirely within a single bank.

Padding: the output dimension is padded to a multiple of
``16 * active_banks`` and the per-bank slab of each matrix is padded to a
DRAM-row boundary; the input dimension is padded to a whole number of
128-element input tiles (8 register-file entries of 16 lanes).  Padding
elements are zero.

A :class:`PimImage` stores the padded matrix burst-major, ``(slots,
k_pad, banks, lanes)``: the weights that one burst index delivers in every
active bank form one contiguous row, so the engine gathers a window's
weights as a row take.  Physical addresses are computed only at the DRAM
boundary: the requests (:func:`burst_address_of_tile`), the trigger decode
(:func:`burst_of_address`) and the ``pimsim convert`` export
(:func:`address_order`).  A :class:`PimPlacement` is frozen, so it sets its
geometry once, when it is made, and computes its slot burst table once, on
first use; conversion and the engine's request stream read the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bf16
from .dram import AddressMap, DramCoord, pack_fields
from .errors import AttributeViolation, CapacityError, GeometryError, check_int
from .model import ModelSpec

RF_ENTRIES = 8  # entries of each PIM block's input and output register file
# Conversion writes at most this many lanes (matrix rows) of a slot at once:
# a phone slot's 1,024 rows, at a power-of-two stride, thrash the cache
# when written in one go.
LANE_BLOCK = 64


@dataclass
class WeightMatrix:
    """A 2-D weight tensor; ``data`` holds raw uint16 element bit patterns
    in (out_dim, in_dim) row-major order."""

    out_dim: int
    in_dim: int
    data: np.ndarray

    def __post_init__(self):
        for name in ("out_dim", "in_dim"):
            setattr(self, name, check_int(name, getattr(self, name), error=GeometryError))
        self.data = bf16.check_bits(self.data)
        if self.data.size != self.out_dim * self.in_dim:
            raise GeometryError(
                f"data length {self.data.size} != {self.out_dim}x{self.in_dim}")
        self.data = self.data.reshape(self.out_dim, self.in_dim)


@dataclass(frozen=True)
class PimPlacement:
    """Placement function for one matrix over the active banks.

    ``base_row`` is the first DRAM row of the matrix's per-bank slab; the
    slab occupies the same row range in every active bank.  Construction
    sets the geometry: ``row_tile`` output rows per tile, ``slots`` tiles
    stacked per bank, ``m_pad`` and ``k_pad`` the padded dimensions,
    ``rows_needed`` DRAM rows per bank and ``padded_bytes`` across all
    ``active_banks``.
    """

    address_map: AddressMap
    out_dim: int
    in_dim: int
    banks_per_channel: int = 1
    channels_used: int = 1
    base_row: int = 0

    def __post_init__(self):
        geo = self.address_map.geometry
        # 0 banks or channels is out of range, as too many are
        for name, least in (("out_dim", 1), ("in_dim", 1), ("banks_per_channel", 0),
                            ("channels_used", 0), ("base_row", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least, GeometryError))
        if not 1 <= self.banks_per_channel <= geo.banks_per_rank:
            raise GeometryError("banks_per_channel out of range")
        if not 1 <= self.channels_used <= geo.channels:
            raise GeometryError("channels_used out of range")
        # a tile has one output row per burst lane, a slot one tile in each
        # active bank; each bank's slab is padded to a DRAM-row boundary
        row_tile = geo.elements_per_burst
        tile_elements = RF_ENTRIES * row_tile
        banks = self.banks_per_channel * self.channels_used
        slots = -(-self.out_dim // (row_tile * banks))
        k_pad = -(-self.in_dim // tile_elements) * tile_elements
        rows_needed = -(-slots * k_pad // geo.columns_per_row)
        for name, value in (("geometry", geo), ("row_tile", row_tile),
                            ("input_tile_elements", tile_elements),
                            ("active_banks", banks), ("m_pad", slots * row_tile * banks),
                            ("k_pad", k_pad), ("slots", slots),
                            ("rows_needed", rows_needed),
                            ("padded_bytes", rows_needed * geo.row_bytes * banks)):
            object.__setattr__(self, name, value)

    @cached_property
    def slot_bursts(self) -> np.ndarray:
        """Read-only ``(slots, k_pad)`` table: the address of every burst of
        each slot in the first active bank, by :func:`burst_address_of_tile`
        (a ``CapacityError`` past a bank's rows).  Every other active bank
        holds the same (row, column) bursts at its own bank and channel
        bits."""
        table = burst_address_of_tile(self, np.arange(self.slots) * self.active_banks)
        table.flags.writeable = False
        return table

    def bank_assignment(self, tile: int) -> tuple[int, int]:
        """tile index -> (channel, bank), round-robin banks then channels."""
        bank = tile % self.banks_per_channel
        channel = (tile // self.banks_per_channel) % self.channels_used
        return channel, bank

    def tile_slot(self, tile: int) -> int:
        return tile // self.active_banks


def pim_coord_of_element(p: PimPlacement, m: int, k: int) -> DramCoord:
    """DRAM coordinate of element (m, k) under the placement function.

    All 16 elements of a lane group share (channel, bank, row, column) and
    differ only in the intra-burst offset.
    """
    if not (0 <= m < p.m_pad and 0 <= k < p.k_pad):
        raise GeometryError(f"element ({m}, {k}) outside padded bounds "
                            f"({p.m_pad}, {p.k_pad})")
    geo = p.geometry
    tile, lane = divmod(m, p.row_tile)
    channel, bank = p.bank_assignment(tile)
    burst = p.tile_slot(tile) * p.k_pad + k
    row_off, column = divmod(burst, geo.columns_per_row)
    return DramCoord(channel=channel, rank=0, bank=bank,
                     row=p.base_row + row_off, column=column,
                     burst_offset=lane * geo.element_bytes)


def burst_address_of_tile(p: PimPlacement, tile) -> np.ndarray:
    """Physical address of every burst (one per padded input column) of a
    tile; for an array of tiles, one row of addresses per tile."""
    geo = p.geometry
    tile = np.asarray(tile, dtype=np.int64)
    burst = p.tile_slot(tile)[..., None] * p.k_pad + np.arange(p.k_pad)
    # columns_per_row is a power of two
    rows = p.base_row + (burst >> geo.columns_per_row.bit_length() - 1)
    if rows.size and rows.max() >= geo.rows_per_bank:
        raise CapacityError(f"placement exceeds rows_per_bank "
                            f"({rows.max()} >= {geo.rows_per_bank})")
    channel, bank = p.bank_assignment(tile)
    return pack_fields(p.address_map, {
        "channel": channel[..., None], "rank": 0, "bank": bank[..., None],
        "row": rows, "column": burst & geo.columns_per_row - 1})


def burst_of_address(p: PimPlacement, addrs: np.ndarray) -> np.ndarray:
    """Inverse of the placement by bit slicing: the burst index
    ``slot * k_pad + column`` each address reads, or -1 for an address that
    is no burst of the placement.  One mask test rejects an address with a
    bit set outside its channel, bank, row and column fields: a burst
    offset, a rank, a bit above the top field (an address outside the
    device) or the sign.  Every active bank shares the index of the same
    (row, column), as lockstep execution requires."""
    amap = p.address_map
    at = {name: (shift, (1 << width) - 1)
          for name, shift, width in zip(amap.field_order, amap.shifts, amap.widths)}
    (cs, cm), (bs, bm), (rs, rm), (ks, km) = (at[f] for f in ("channel", "bank", "row", "column"))
    burst = ((((addrs >> rs) & rm) - p.base_row) << km.bit_length()) | ((addrs >> ks) & km)
    # a field's bound compares the field in place, unshifted; a negative
    # burst is past any bound as unsigned
    ours = (((addrs & ~(cm << cs | bm << bs | rm << rs | km << ks)) == 0)
            & ((addrs & cm << cs) < p.channels_used << cs)
            & ((addrs & bm << bs) < p.banks_per_channel << bs)
            & (burst.view(np.uint64) < p.slots * p.k_pad))
    return np.where(ours, burst, -1)


@dataclass
class PimImage:
    """PIM-aware weight image: the padded matrix burst-major, ``data[s, k,
    b, lane] == w[(s * active_banks + b) * lanes + lane, k]``, so
    ``data[s, k]`` is what burst ``s * k_pad + k`` holds in every active
    bank.  ``base_addr`` and ``span_bytes`` bound the placed bursts'
    addresses exactly."""

    placement: PimPlacement
    base_addr: int
    span_bytes: int
    data: np.ndarray  # uint16, (slots, k_pad, active_banks, lanes)


def convert_to_pim_aware(w: WeightMatrix, p: PimPlacement) -> PimImage:
    """Offline model converter: host-friendly matrix -> PIM-aware image.

    Element (m, k) lands at ``encode(pim_coord_of_element(m, k))`` in the
    image's :func:`address_order`; padding elements are zero.
    """
    if (w.out_dim, w.in_dim) != (p.out_dim, p.in_dim):
        raise GeometryError("placement dims do not match matrix dims")
    data = np.zeros((p.slots, p.k_pad, p.active_banks, p.row_tile), dtype=np.uint16)
    # the matrix rows of each slot, written once into a (slots, lanes, k_pad)
    # view: the full slots, then the ragged last one, LANE_BLOCK lanes at a time
    lanes = p.active_banks * p.row_tile
    slot_rows = data.reshape(p.slots, p.k_pad, lanes).transpose(0, 2, 1)
    full = p.out_dim // lanes
    for slots, src in ((slice(0, full), w.data[:full * lanes].reshape(full, lanes, p.in_dim)),
                       (slice(full, full + 1), w.data[None, full * lanes:])):
        n = src.shape[1]
        for lane in range(0, n, LANE_BLOCK):
            block = slice(lane, min(lane + LANE_BLOCK, n))
            slot_rows[slots, block, :p.in_dim] = src[:, block]
    # Each active bank holds the same (row, column) bursts at disjoint bank and
    # channel bits: the first bank has the lowest address, the last the highest.
    first = p.slot_bursts
    last_bank = pack_fields(p.address_map, {
        "channel": p.channels_used - 1, "rank": 0,
        "bank": p.banks_per_channel - 1, "row": 0, "column": 0})
    lo, hi = int(first.min()), int(first.max()) + last_bank
    return PimImage(p, lo, hi + p.geometry.burst_bytes - lo, data)


def address_order(image: PimImage) -> np.ndarray:
    """The image as stored in DRAM: one element per element address from
    ``base_addr`` over ``span_bytes``, zero where no burst is placed."""
    p = image.placement
    eb = p.geometry.element_bytes
    tiles = np.arange(p.m_pad // p.row_tile).reshape(p.slots, -1)
    first = (burst_address_of_tile(p, tiles) - image.base_addr) // eb
    out = np.zeros(image.span_bytes // eb, dtype=np.uint16)
    out[first.transpose(0, 2, 1)[..., None] + np.arange(p.row_tile)] = image.data
    return out


def smc_copy(image: PimImage, rows: range, cols: range,
             dst: np.ndarray, mem=None) -> int:
    """Swizzled memory copy: PIM-aware image tile -> host-friendly buffer.

    ``rows`` and ``cols`` are contiguous unit-step ranges.  ``dst``, a 1-D
    uint16 array, receives the selected (rows x cols) tile in column-major
    (host-friendly) order and must be large enough.  The ``"copy"`` agent
    issues one DRAM read per source burst through ``mem`` when given; every
    copied burst must then lie in one non-cacheable region, or the copy
    raises ``AttributeViolation`` before any request.  Returns the number of
    payload bytes copied.
    """
    p = image.placement
    geo = p.geometry
    for r in (rows, cols):
        if not isinstance(r, range) or r.step != 1:
            raise GeometryError(f"rows and cols must be contiguous unit-step "
                                f"ranges, got {r!r}")
    nr, nc = len(rows), len(cols)
    if nr == 0 or nc == 0:
        return 0
    if (rows.start < 0 or cols.start < 0 or rows[-1] >= p.out_dim
            or cols[-1] >= p.in_dim):
        raise GeometryError("row/col range outside matrix bounds")
    if not (isinstance(dst, np.ndarray) and dst.ndim == 1 and dst.dtype == np.uint16):
        raise GeometryError("destination must be a 1-D uint16 array")
    if dst.size < nr * nc:
        raise CapacityError(f"destination holds {dst.size} elements, "
                            f"tile needs {nr * nc}")
    if mem is not None:
        tiles = np.arange(rows[0] // p.row_tile, rows[-1] // p.row_tile + 1)
        # tile by tile, then column
        addrs = burst_address_of_tile(p, tiles)[:, cols.start:cols.stop].ravel()
        region = mem.region_at(int(addrs.min()))
        if not (region.is_non_cacheable and region.contains(int(addrs.max()))):
            raise AttributeViolation(f"SMC source bursts must lie in one non-cacheable "
                                     f"region; the first is in {region.name!r}")
        mem.access_many(addrs, "R", geo.burst_bytes, "copy")
    # column-major destination, one row per column, from the burst-major
    # image: the slots holding ``rows``, each column's rows slot after slot
    per_slot = p.active_banks * p.row_tile
    first, last = rows.start // per_slot, (rows.stop - 1) // per_slot
    src = image.data.reshape(p.slots, p.k_pad, per_slot)[
        first:last + 1, cols.start:cols.stop].transpose(1, 0, 2).reshape(nc, -1)
    start = rows.start - first * per_slot
    dst[:nr * nc].reshape(nc, nr)[:] = src[:, start:start + nr]
    return nr * nc * geo.element_bytes


def unswizzle(image: PimImage, mem=None) -> WeightMatrix:
    """Full-matrix SMC into a fresh host-friendly matrix."""
    p = image.placement
    dst = np.zeros(p.out_dim * p.in_dim, dtype=np.uint16)
    smc_copy(image, range(p.out_dim), range(p.in_dim), dst, mem=mem)
    data = dst.reshape(p.in_dim, p.out_dim).T
    return WeightMatrix(p.out_dim, p.in_dim, data.copy())


def model_placements(model: ModelSpec, amap: AddressMap,
                     banks_per_channel: int,
                     channels_used: int) -> list[tuple[str, PimPlacement]]:
    """Stack every matrix of the model along DRAM rows from row 0, slab
    after slab; a ``CapacityError`` at the first matrix whose slab ends past
    a bank's rows, before any later matrix is made."""
    placements = []
    row = 0
    for mat in model.all_matrices():
        p = PimPlacement(amap, mat.out_dim, mat.in_dim,
                         banks_per_channel=banks_per_channel,
                         channels_used=channels_used, base_row=row)
        placements.append((mat.name, p))
        row += p.rows_needed
        if row > amap.geometry.rows_per_bank:
            raise CapacityError(f"{mat.name} ends at row {row}, past the "
                                f"{amap.geometry.rows_per_bank} rows of a bank")
    return placements

