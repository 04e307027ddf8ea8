"""Placement, conversion, swizzled-copy round trip, and padding accounting."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimsim.dram import (FIELD_NAMES, AddressMap, DramGeometry,
                         decode_address, encode_coord, slice_fields)
from pimsim.errors import (AttributeViolation, CapacityError, GeometryError,
                           SimulatorError)
from pimsim.layout import (LANE_BLOCK, PimPlacement, WeightMatrix,
                           address_order, burst_address_of_tile, burst_of_address,
                           convert_to_pim_aware, model_placements,
                           pim_coord_of_element, smc_copy, unswizzle)
from pimsim.memsys import Attribute, CacheConfig, MemorySystem, RegionKind
from pimsim.model import ModelSpec
from pimsim.presets import (DESK_GEOMETRY, PHONE_GEOMETRY, model_preset,
                            pim_weight_bytes)

DESK = DramGeometry(channels=2, ranks_per_channel=1, banks_per_rank=8,
                    rows_per_bank=256, columns_per_row=32)
AMAP = AddressMap(DESK)


def make_placement(out_dim, in_dim, banks=4, channels=2, base_row=0,
                   amap=AMAP):
    return PimPlacement(amap, out_dim, in_dim, banks_per_channel=banks,
                        channels_used=channels, base_row=base_row)


# largest drawn geometry: images span up to its whole capacity
MAX_DRAWN_CAPACITY = 1 << 26
# largest drawn matrix: the address oracle encodes each weight's coordinate
MAX_DRAWN_WEIGHTS = 40_000


@st.composite
def address_maps(draw):
    """A geometry of 1-4 channels, 1-2 ranks, 2-16 banks, 32-1024 columns
    and 16-1024 DRAM rows (at most 64 MiB in all), with any order of the
    address fields."""
    channels = draw(st.sampled_from([1, 2, 4]))
    ranks = draw(st.sampled_from([1, 2]))
    banks = draw(st.sampled_from([2, 4, 8, 16]))
    columns = draw(st.sampled_from([32, 256, 512, 1024]))
    rows = draw(st.sampled_from(
        [r for r in (16, 64, 128, 256, 512, 1024) if channels * ranks * banks
         * r * columns * 32 <= MAX_DRAWN_CAPACITY]))
    geo = DramGeometry(channels=channels, ranks_per_channel=ranks,
                       banks_per_rank=banks, rows_per_bank=rows,
                       columns_per_row=columns)
    return AddressMap(geo, draw(st.permutations(FIELD_NAMES)))


def assert_image_spans_every_burst(image):
    p = image.placement
    addrs = burst_address_of_tile(p, np.arange(p.m_pad // p.row_tile))
    assert addrs.min() == image.base_addr
    assert addrs.max() + p.geometry.burst_bytes == \
        image.base_addr + image.span_bytes


def assert_addresses_hold_the_matrix(image, w):
    """In the address-order export, every element (m, k) of ``w`` sits at
    the physical address of its DRAM coordinate, and every other element of
    the span is zero."""
    p = image.placement
    eb = p.geometry.element_bytes
    flat = address_order(image)
    assert flat.size * eb == image.span_bytes
    rest = np.ones(flat.size, dtype=bool)
    for m in range(p.out_dim):  # row by row, to fail (and shrink) fast
        offsets = np.array([encode_coord(p.address_map,
                                         pim_coord_of_element(p, m, k))
                            for k in range(p.in_dim)]) - image.base_addr
        assert offsets.min() >= 0 and offsets.max() < image.span_bytes
        assert not (offsets % eb).any()
        assert np.array_equal(flat[offsets // eb], w.data[m]), m
        rest[offsets // eb] = False
    assert not flat[rest].any()


@st.composite
def placements(draw):
    """A placement on a drawn address map that fits its geometry: any
    active banks and channels, one or more slots per bank, a shape with
    ragged tails on both axes (the interesting cases) and a slab anywhere in
    the rows left.

    One active bank and channel, hence many slots, is drawn often: slots
    that share long DRAM rows, with the row field below the column field,
    give a middle slot a higher address than the last one."""
    amap = draw(address_maps())
    geo = amap.geometry
    banks = draw(st.just(1) | st.integers(1, geo.banks_per_rank))
    channels = draw(st.just(1) | st.integers(1, geo.channels))
    in_dim = draw(st.integers(1, 300))
    k_pad = -(-in_dim // 128) * 128
    group = 16 * banks * channels  # output rows per slot
    max_slots = geo.rows_per_bank * geo.columns_per_row // k_pad
    max_out = MAX_DRAWN_WEIGHTS // in_dim
    slots = draw(st.sampled_from(
        range(1, min(max_slots, -(-max_out // group)) + 1)))
    out_dim = draw(st.integers((slots - 1) * group + 1,
                               min(max_out, slots * group)))
    p = make_placement(out_dim, in_dim, banks, channels, amap=amap)
    base_row = draw(st.integers(0, geo.rows_per_bank - p.rows_needed))
    return make_placement(out_dim, in_dim, banks, channels, base_row, amap)


@settings(max_examples=120, deadline=None)
@given(placements(), st.integers(0, 2**32 - 1))
# 256 lanes per slot, written LANE_BLOCK lanes at a time: two full slots and
# a ragged third of one full lane block and a ragged one
@example(make_placement(2 * 256 + LANE_BLOCK + 24, 30, banks=8, channels=2), 0)
def test_round_trip_is_identity(p, seed):
    out_dim, in_dim = p.out_dim, p.in_dim
    rng = np.random.default_rng(seed)
    w = WeightMatrix(out_dim, in_dim,
                     rng.integers(0, 1 << 16, size=(out_dim, in_dim)))
    image = convert_to_pim_aware(w, p)
    assert image.data.size == p.m_pad * p.k_pad
    assert_image_spans_every_burst(image)
    assert_addresses_hold_the_matrix(image, w)
    back = unswizzle(image)
    assert np.array_equal(back.data, w.data)


@settings(max_examples=60, deadline=None)
@given(placements())
def test_row_locality_and_burst_column_major(p):
    """Every matrix row lives in one bank; consecutive bursts of a tile walk
    consecutive input columns within the same (channel, bank)."""
    rng = np.random.default_rng(0)
    for m in rng.integers(0, p.m_pad, size=8):
        coords = [pim_coord_of_element(p, int(m), k)
                  for k in range(0, p.k_pad, max(1, p.k_pad // 7))]
        banks_seen = {(c.channel, c.rank, c.bank) for c in coords}
        assert len(banks_seen) == 1
        offsets = {c.burst_offset for c in coords}
        assert len(offsets) == 1  # lane index fixed by m within the tile
    # column-major bursts: k and k+1 are adjacent bursts of the same tile
    c0 = pim_coord_of_element(p, 0, 0)
    c1 = pim_coord_of_element(p, 0, 1)
    assert (c1.row, c1.column) in (
        (c0.row, c0.column + 1), (c0.row + 1, 0))


@settings(max_examples=40, deadline=None)
@given(placements(), st.integers(0, 2**32 - 1))
def test_burst_decode_inverts_the_placement(p, seed):
    """Bit-slice decode equals a table of the placed bursts: ``slot * k_pad
    + column`` for each burst address, in every active bank, and no burst
    anywhere else.  Checked on every burst address, the next element of
    each, the same address shifted above and below the device, and random
    element addresses of the image span."""
    out_dim, in_dim, amap = p.out_dim, p.in_dim, p.address_map
    image = convert_to_pim_aware(
        WeightMatrix(out_dim, in_dim, np.zeros((out_dim, in_dim), np.uint16)), p)
    table = {}
    for tile in range(p.m_pad // p.row_tile):
        for j, addr in enumerate(burst_address_of_tile(p, tile).tolist()):
            table[addr] = p.tile_slot(tile) * p.k_pad + j
    eb = amap.geometry.element_bytes
    rng = np.random.default_rng(seed)
    sample = image.base_addr + eb * rng.integers(
        0, image.span_bytes // eb, size=4096)
    cap = amap.geometry.total_capacity
    addrs = np.concatenate([list(table), np.add(list(table), eb),
                            np.add(list(table), cap),
                            np.subtract(list(table), 2**40), sample])
    expected = [table.get(a, -1) for a in addrs.tolist()]
    assert burst_of_address(p, addrs).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(placements())
def test_slot_burst_table_is_each_slots_first_tile(p):
    """The placement's read-only slot burst table holds, row by row, the
    bursts of each slot's first tile as ``burst_address_of_tile`` gives them
    tile by tile; the tiles of the other active banks read the same (row,
    column) bursts.  It is computed once per placement."""
    table = p.slot_bursts
    assert table.shape == (p.slots, p.k_pad) and not table.flags.writeable
    for tile in range(p.m_pad // p.row_tile):
        addrs = burst_address_of_tile(p, tile)
        first = table[p.tile_slot(tile)]
        if tile % p.active_banks == 0:
            assert np.array_equal(addrs, first)
        ours, theirs = (slice_fields(p.address_map, a) for a in (addrs, first))
        assert all(np.array_equal(ours[f], theirs[f]) for f in ("row", "column"))
    assert p.slot_bursts is table


def test_span_covers_bursts_outside_the_first_and_last_slots():
    """With the row field below the column field, a middle slot of a bank
    can reach a higher DRAM column than the last slot; the image must still
    cover it."""
    geo = DramGeometry(channels=1, ranks_per_channel=1, banks_per_rank=16,
                       rows_per_bank=256, columns_per_row=256)
    amap = AddressMap(geo, ("channel", "bank", "rank", "row", "column"))
    p = make_placement(48, 128, banks=1, channels=1, amap=amap)
    rng = np.random.default_rng(5)
    w = WeightMatrix(48, 128, rng.integers(0, 1 << 16, size=(48, 128)))
    image = convert_to_pim_aware(w, p)
    assert_image_spans_every_burst(image)
    assert_addresses_hold_the_matrix(image, w)
    assert np.array_equal(unswizzle(image).data, w.data)


def test_coordinates_match_declared_placement():
    p = make_placement(out_dim=16 * 8 * 3, in_dim=128, banks=4, channels=2)
    for tile in range(p.m_pad // p.row_tile):
        channel, bank = p.bank_assignment(tile)
        c = pim_coord_of_element(p, tile * p.row_tile, 0)
        assert (c.channel, c.bank) == (channel, bank)
        assert p.tile_slot(tile) == tile // p.active_banks


def test_image_addresses_decode_inside_the_slab():
    p = make_placement(40, 130, banks=2, channels=1, base_row=5)
    rng = np.random.default_rng(1)
    w = WeightMatrix(40, 130, rng.integers(0, 1 << 16, size=(40, 130)))
    image = convert_to_pim_aware(w, p)
    for tile in range(p.m_pad // p.row_tile):
        for addr in burst_address_of_tile(p, tile)[::17]:
            coord = decode_address(AMAP, int(addr))
            assert p.base_row <= coord.row < p.base_row + p.rows_needed


def test_padding_elements_are_zero():
    p = make_placement(17, 130, banks=2, channels=1)
    w = WeightMatrix(17, 130, np.full((17, 130), 0xFFFF, dtype=np.uint16))
    image = convert_to_pim_aware(w, p)
    ones = int(np.count_nonzero(image.data))
    assert ones == 17 * 130


def test_m_k_padding_rules():
    p = make_placement(17, 130, banks=4, channels=2)
    assert p.m_pad == 16 * 8  # one tile group of 8 active banks
    assert p.k_pad == 256     # two 128-element input tiles
    assert p.slots == 1
    # per-bank slab padded to a row boundary
    assert p.rows_needed == -(-p.slots * p.k_pad // DESK.columns_per_row)


def test_partial_copy_matches_full_copy():
    rng = np.random.default_rng(7)
    p = make_placement(64, 256, banks=2, channels=2)
    w = WeightMatrix(64, 256, rng.integers(0, 1 << 16, size=(64, 256)))
    image = convert_to_pim_aware(w, p)
    rows, cols = range(10, 50), range(32, 200)
    dst = np.zeros(len(rows) * len(cols), dtype=np.uint16)
    copied = smc_copy(image, rows, cols, dst)
    assert copied == len(rows) * len(cols) * 2
    tile = dst.reshape(len(cols), len(rows)).T  # column-major destination
    assert np.array_equal(tile, w.data[10:50, 32:200])


def test_smc_issues_one_read_per_source_burst():
    p = make_placement(32, 128, banks=2, channels=1)
    w = WeightMatrix(32, 128, np.arange(32 * 128, dtype=np.uint16).reshape(32, 128))
    image = convert_to_pim_aware(w, p)
    mem = MemorySystem(capacity=DESK.total_capacity,
                       cache=CacheConfig(capacity=1 << 14))
    mem.allocate_region(RegionKind.CONTIGUOUS_POOL, Attribute.NON_CACHEABLE,
                        image.base_addr + image.span_bytes, align=1)
    dst = np.zeros(32 * 128, dtype=np.uint16)
    mark = mem.mark()
    smc_copy(image, range(32), range(128), dst, mem=mem)
    records = mem.records_since(mark)
    # 2 tiles x 128 bursts, all reads, all distinct addresses
    assert len(records) == 2 * 128
    assert all(r.op == "R" and r.nbytes == DESK.burst_bytes for r in records)
    assert len({r.addr for r in records}) == len(records)


def test_smc_requires_non_cacheable_source():
    p = make_placement(16, 128, banks=1, channels=1)
    w = WeightMatrix(16, 128, np.zeros((16, 128), dtype=np.uint16))
    image = convert_to_pim_aware(w, p)
    mem = MemorySystem(capacity=DESK.total_capacity)
    mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE,
                        image.base_addr + image.span_bytes, align=1)
    dst = np.zeros(16 * 128, dtype=np.uint16)
    with pytest.raises(AttributeViolation):
        smc_copy(image, range(16), range(128), dst, mem=mem)


def split_desk_copy():
    """A 64x256 desk image on 4 banks, the first half of its span in a
    non-cacheable region and the second half in a cacheable one."""
    p = PimPlacement(AddressMap(DESK_GEOMETRY), 64, 256, banks_per_channel=4)
    w = WeightMatrix(64, 256, np.arange(64 * 256, dtype=np.uint16).reshape(64, 256))
    image = convert_to_pim_aware(w, p)
    assert (image.base_addr, image.span_bytes) == (0, 130_688)
    mem = MemorySystem(capacity=DESK_GEOMETRY.total_capacity)
    for attribute in (Attribute.NON_CACHEABLE, Attribute.CACHEABLE):
        mem.allocate_region(RegionKind.GENERAL, attribute,
                            image.span_bytes // 2, align=1)
    return w, image, mem


def test_smc_source_straddling_a_cacheable_region_raises_before_any_record():
    _, image, mem = split_desk_copy()
    dst = np.zeros(64 * 256, dtype=np.uint16)
    with pytest.raises(AttributeViolation):
        smc_copy(image, range(64), range(256), dst, mem=mem)
    assert len(mem.trace) == 0 and list(mem.hit_log) == [] and not dst.any()
    assert mem.cache.stats.as_dict() == {"hits": 0, "misses": 0,
                                         "evictions": 0, "writebacks": 0}


@pytest.mark.parametrize("dst", [
    np.zeros(64 * 128, dtype=np.int8),      # 511 of 512 elements got wrong bits
    np.zeros(64 * 128, dtype=np.float32),   # bit patterns stored as numbers
    np.zeros((128, 128), dtype=np.uint16),  # failed after the requests
    [0] * (64 * 128),
], ids=["int8", "float32", "2-d", "list"])
def test_smc_rejects_a_destination_that_is_no_1d_uint16_array(dst):
    _, image, mem = split_desk_copy()
    with pytest.raises(SimulatorError, match="^destination must be a 1-D uint16 array$"):
        smc_copy(image, range(64), range(128), dst, mem=mem)
    assert len(mem.trace) == 0 and not np.any(dst)


def test_smc_copy_inside_the_non_cacheable_half_runs():
    # input columns 0-127 are DRAM rows 0-3, below the cacheable half
    w, image, mem = split_desk_copy()
    dst = np.zeros(64 * 128, dtype=np.uint16)
    smc_copy(image, range(64), range(128), dst, mem=mem)
    assert np.array_equal(dst.reshape(128, 64).T, w.data[:, :128])
    assert len(mem.trace) == 4 * 128 and list(mem.hit_log) == []
    assert {r.agent for r in mem.trace} == {"copy"}


def test_smc_copy_of_an_empty_range_copies_nothing_and_issues_no_request():
    p = make_placement(16, 128, banks=1, channels=1)
    image = convert_to_pim_aware(
        WeightMatrix(16, 128, np.ones((16, 128), dtype=np.uint16)), p)
    mem = MemorySystem(capacity=DESK.total_capacity)
    mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE,
                        image.base_addr + image.span_bytes, align=1)
    dst = np.zeros(16 * 128, dtype=np.uint16)
    for rows, cols in ((range(0), range(128)), (range(16), range(5, 5)),
                       (range(3, 3), range(7, 7))):
        assert smc_copy(image, rows, cols, dst, mem=mem) == 0
    assert len(mem.trace) == 0 and list(mem.hit_log) == [] and not dst.any()


def test_smc_destination_overflow():
    p = make_placement(16, 128, banks=1, channels=1)
    w = WeightMatrix(16, 128, np.zeros((16, 128), dtype=np.uint16))
    image = convert_to_pim_aware(w, p)
    with pytest.raises(CapacityError):
        smc_copy(image, range(16), range(128),
                 np.zeros(16 * 128 - 1, dtype=np.uint16))


@pytest.mark.parametrize("rows, cols", [
    (range(0, 4), range(0, 10, 2)),
    (range(0, 8, 2), range(0, 4)),
    (range(-1, 4), range(0, 4)),
    ([0, 1, 2], range(0, 4)),
])
def test_smc_rejects_non_contiguous_ranges(rows, cols):
    p = make_placement(16, 128, banks=1, channels=1)
    w = WeightMatrix(16, 128, np.zeros((16, 128), dtype=np.uint16))
    image = convert_to_pim_aware(w, p)
    with pytest.raises(GeometryError):
        smc_copy(image, rows, cols, np.zeros(16 * 128, dtype=np.uint16))


def test_conversion_rejects_shape_mismatch():
    p = make_placement(16, 128)
    with pytest.raises(GeometryError):
        convert_to_pim_aware(
            WeightMatrix(32, 128, np.zeros((32, 128), dtype=np.uint16)), p)


@pytest.mark.parametrize("banks, channels", [(0, 1), (DESK.banks_per_rank + 1, 1),
                                             (1, 0), (1, DESK.channels + 1)],
                         ids=["no-banks", "banks-past-a-rank", "no-channels",
                              "channels-past-the-device"])
def test_placement_rejects_banks_or_channels_out_of_range(banks, channels):
    with pytest.raises(GeometryError, match="out of range"):
        make_placement(16, 128, banks=banks, channels=channels)


@pytest.mark.parametrize("m, k", [(-1, 0), (0, -1), (16, 0), (0, 128)],
                         ids=["negative-row", "negative-column", "row-past-m-pad",
                              "column-past-k-pad"])
def test_element_coordinate_outside_the_padded_matrix_is_rejected(m, k):
    p = make_placement(16, 128, banks=1, channels=1)
    assert (p.m_pad, p.k_pad) == (16, 128)
    pim_coord_of_element(p, p.m_pad - 1, p.k_pad - 1)  # the last padded element
    with pytest.raises(GeometryError, match="outside padded bounds"):
        pim_coord_of_element(p, m, k)


@pytest.mark.parametrize("data", [np.zeros(16 * 128 - 1, np.uint16),
                                  np.zeros(16 * 128 + 1, np.uint16),
                                  np.zeros((128, 17), np.uint16)],
                         ids=["short", "long", "wrong-shape-and-length"])
def test_weight_matrix_data_must_match_its_dimensions(data):
    with pytest.raises(GeometryError, match="data length"):
        WeightMatrix(16, 128, data)


def test_placement_rejects_overflow_of_rows():
    tiny = AddressMap(DramGeometry(rows_per_bank=4))
    p = PimPlacement(tiny, 16 * 64, 128)
    with pytest.raises(CapacityError):
        burst_address_of_tile(p, p.m_pad // p.row_tile - 1)


@pytest.mark.parametrize("out_dim, in_dim, base_row", [
    (0, 128, 0), (16, 0, 0), (-16, 128, 0), (16, -128, 0), (16, 128, -1),
], ids=["no-rows", "no-columns", "negative-rows", "negative-columns",
        "negative-base-row"])
def test_placement_rejects_a_matrix_that_cannot_exist(out_dim, in_dim,
                                                       base_row):
    with pytest.raises(GeometryError):
        PimPlacement(AMAP, out_dim, in_dim, base_row=base_row)


def test_model_placements_stack_without_overlap():
    model = ModelSpec(hidden=64, intermediate=256, layers=1, vocab=128)
    placements = model_placements(model, AMAP, banks_per_channel=8,
                                  channels_used=2)
    rows = 0
    for _, p in placements:
        assert p.base_row == rows
        rows += p.rows_needed


def test_padded_size_accounting():
    """The padded image holds every weight, on each geometry's banks and
    channels."""
    desk_4x1 = replace(DESK, channels=1, banks_per_rank=4)
    cases = [
        (ModelSpec(hidden=64, intermediate=256, layers=2, vocab=128), DESK),
        (ModelSpec(hidden=64, intermediate=256, layers=0, vocab=128), DESK),
        (ModelSpec(hidden=64, intermediate=256, layers=3), desk_4x1),
        (model_preset("toy-64"), DESK),
        (model_preset("llama3.2-1b"), PHONE_GEOMETRY),
        (model_preset("llama3.2-3b"), PHONE_GEOMETRY),
    ]
    for model, geometry in cases:
        assert pim_weight_bytes(model, geometry) >= model.host_bytes()


def test_phone_scale_padding_fraction_is_small():
    model = model_preset("llama3.2-1b")
    total = pim_weight_bytes(model)
    assert total - model.host_bytes() <= 0.03 * model.host_bytes()


@st.composite
def small_models(draw):
    hidden = draw(st.sampled_from([16, 32, 48, 64, 128]))
    return ModelSpec(hidden=hidden, intermediate=draw(st.integers(1, 300)),
                     layers=draw(st.integers(0, 2)),
                     vocab=draw(st.sampled_from([0, 1, 100, 300])),
                     element_bytes=draw(st.sampled_from([1, 2])))


@settings(max_examples=40, deadline=None)
@given(small_models(), st.sampled_from([1, 2, 4]),
       st.sampled_from([2, 4, 8, 16]), st.sampled_from([32, 64, 256]))
def test_pim_weight_bytes_bound_every_placed_burst(model, channels, banks,
                                                    columns):
    """Every burst of every slab that the model's placement stacks lies
    below ``pim_weight_bytes``, and the last one ends within one all-bank
    DRAM row of it (one rank, row field on top)."""
    geometry = DramGeometry(channels=channels, banks_per_rank=banks,
                            rows_per_bank=1 << 16, columns_per_row=columns)
    total = pim_weight_bytes(model, geometry)
    amap = AddressMap(replace(geometry, element_bytes=model.element_bytes))
    end = 0
    for _, p in model_placements(model, amap, banks_per_channel=banks,
                                 channels_used=channels):
        addrs = burst_address_of_tile(p, np.arange(p.m_pad // p.row_tile))
        assert addrs.min() >= 0
        end = max(end, int(addrs.max()) + geometry.burst_bytes)
    assert end <= total
    assert total - end < geometry.row_bytes * banks * channels


@settings(max_examples=60, deadline=None)
@given(st.data(), small_models(), address_maps())
def test_model_placements_fit_the_geometry_or_raise(data, model, amap):
    """A model's stack either places every burst below the geometry's
    capacity or raises ``CapacityError``, exactly when its slabs, counted
    here from the padding rules, need more rows than a bank holds."""
    geo = replace(amap.geometry, element_bytes=model.element_bytes,
                  rows_per_bank=data.draw(st.sampled_from([1, 2, 4, 16, 64])))
    amap = AddressMap(geo, amap.field_order)
    banks = data.draw(st.integers(1, geo.banks_per_rank), label="active banks")
    channels = data.draw(st.integers(1, geo.channels), label="channels used")
    lanes = geo.elements_per_burst
    rows = sum(-(-(-(-m.out_dim // (lanes * banks * channels))
                   * -(-m.in_dim // (8 * lanes)) * 8 * lanes) // geo.columns_per_row)
               for m in model.all_matrices())
    if rows > geo.rows_per_bank:
        with pytest.raises(CapacityError):
            model_placements(model, amap, banks, channels)
        return
    for _, p in model_placements(model, amap, banks, channels):
        addrs = burst_address_of_tile(p, np.arange(p.m_pad // p.row_tile))
        assert 0 <= addrs.min() and addrs.max() < geo.total_capacity


def test_both_llama_presets_fit_the_phone_geometry_and_3b_no_smaller_one():
    """The 3B stack ends past row 65,535, so it needs the phone preset's
    131,072 rows per bank; 1B fits in either."""
    half = AddressMap(replace(PHONE_GEOMETRY, rows_per_bank=65536))
    for name, fits_half in (("llama3.2-1b", True), ("llama3.2-3b", False)):
        model = model_preset(name)
        for amap, fits in ((AddressMap(PHONE_GEOMETRY), True), (half, fits_half)):
            if fits:
                model_placements(model, amap, 16, 4)
            else:
                with pytest.raises(CapacityError):
                    model_placements(model, amap, 16, 4)
