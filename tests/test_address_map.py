"""Address map: bijection, construction checks, and geometry constraints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsim.dram import (FIELD_NAMES, AddressMap, DramCoord, DramGeometry,
                         decode_address, encode_coord)
from pimsim.errors import CapacityError, GeometryError

POW2 = st.sampled_from([1, 2, 4, 8, 16])


@st.composite
def geometries(draw):
    return DramGeometry(
        channels=draw(POW2),
        ranks_per_channel=draw(st.sampled_from([1, 2])),
        banks_per_rank=draw(st.sampled_from([4, 8, 16])),
        rows_per_bank=draw(st.sampled_from([16, 64, 256])),
        columns_per_row=draw(st.sampled_from([8, 32])),
        burst_bytes=32,
    )


@st.composite
def maps(draw):
    return AddressMap(draw(geometries()), draw(st.permutations(FIELD_NAMES)))


@settings(max_examples=60, deadline=None)
@given(maps(), st.data())
def test_decode_encode_roundtrip(amap, data):
    addr = data.draw(st.integers(0, amap.geometry.total_capacity - 1))
    coord = decode_address(amap, addr)
    assert encode_coord(amap, coord) == addr


@settings(max_examples=60, deadline=None)
@given(maps(), st.data())
def test_encode_decode_roundtrip(amap, data):
    geo = amap.geometry
    coord = DramCoord(
        channel=data.draw(st.integers(0, geo.channels - 1)),
        rank=data.draw(st.integers(0, geo.ranks_per_channel - 1)),
        bank=data.draw(st.integers(0, geo.banks_per_rank - 1)),
        row=data.draw(st.integers(0, geo.rows_per_bank - 1)),
        column=data.draw(st.integers(0, geo.columns_per_row - 1)),
        burst_offset=data.draw(st.integers(0, geo.burst_bytes - 1)),
    )
    assert decode_address(amap, encode_coord(amap, coord)) == coord


@settings(max_examples=30, deadline=None)
@given(maps())
def test_decode_is_injective_over_a_sample(amap):
    seen = set()
    step = max(1, amap.geometry.total_capacity // 512)
    for addr in range(0, amap.geometry.total_capacity, step * 32):
        coord = decode_address(amap, addr)
        assert coord not in seen
        seen.add(coord)


def test_default_map_is_valid():
    amap = AddressMap(DramGeometry())
    assert amap.field_order == ("channel", "bank", "column", "rank", "row")
    assert amap.widths == (0, 4, 5, 0, 6)


def test_validate_rejects_missing_field():
    order = tuple(n for n in FIELD_NAMES if n != "row")
    with pytest.raises(GeometryError, match="missing"):
        AddressMap(DramGeometry(), order)


def test_validate_rejects_duplicate_field():
    with pytest.raises(GeometryError, match="duplicate"):
        AddressMap(DramGeometry(), FIELD_NAMES + ("bank",))


def test_validate_rejects_unknown_field():
    with pytest.raises(GeometryError, match="unknown"):
        AddressMap(DramGeometry(), FIELD_NAMES + ("subarray",))


def test_non_power_of_two_geometry_rejected():
    with pytest.raises(GeometryError):
        DramGeometry(banks_per_rank=12)


def test_out_of_capacity_address_rejected():
    amap = AddressMap(DramGeometry())
    with pytest.raises(CapacityError):
        decode_address(amap, amap.geometry.total_capacity)
    with pytest.raises(CapacityError):
        decode_address(amap, -1)


def test_out_of_range_coord_rejected():
    amap = AddressMap(DramGeometry())
    with pytest.raises(GeometryError):
        encode_coord(amap, DramCoord(bank=amap.geometry.banks_per_rank))
    with pytest.raises(GeometryError):
        encode_coord(amap, DramCoord(burst_offset=amap.geometry.burst_bytes))


def test_field_order_changes_the_mapping():
    geo = DramGeometry(channels=2)
    a = AddressMap(geo)
    b = AddressMap(geo, tuple(reversed(a.field_order)))
    addr = geo.burst_bytes  # first burst above offset zero
    assert decode_address(a, addr) != decode_address(b, addr)
