"""The one integer rule: every count, length and size that pimsim takes is
an integer, NumPy's included but no bool, from a least value to
2**63 - 1, and is kept as a Python ``int``; anything else raises a
``SimulatorError`` subclass at the boundary."""

import math
from dataclasses import replace
from functools import partial
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimsim.cost import analytical_prefill
from pimsim.dram import AddressMap, DramGeometry
from pimsim.errors import SimulatorError, check_int
from pimsim.layout import PimPlacement
from pimsim.memsys import Attribute, CacheConfig, MemorySystem, RegionKind
from pimsim.model import ModelSpec
from pimsim.presets import hardware_preset, model_preset
from pimsim.runtime import run_decode, run_prefill
from pimsim.scenario import Scenario

HW = hardware_preset("s24plus")
TOY = model_preset("toy-64")
AMAP = AddressMap(DramGeometry(channels=8))


def _stored(make, name):
    """A call that makes an object with ``name=value`` and reads the field
    back."""
    return lambda value: getattr(make(**{name: value}), name)


def _region(field):
    """The field of a general region as stored: a size, or an alignment
    read back as the base of a region placed after one byte."""
    def call(value):
        mem = MemorySystem(1 << 20)
        if field == "size":
            return mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, value).size
        mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 1, align=1)
        return mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 1, align=value).base
    return call


def _request(field):
    """One request in a list, which ``_requests`` checks item by item: the
    address or the size of the trace record it makes."""
    def call(value):
        mem = MemorySystem(1 << 20)
        mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE, 1 << 20)
        kwargs = {"addrs": [0], "nbytes": [8], field: [value]}
        mem.access_many(op="R", **kwargs)
        record, = mem.trace
        return record.addr if field == "addrs" else record.nbytes
    return call


# each call, by the integer field it takes: it takes a value for the field
# and returns the field as stored
CALLS = {
    **{f"CacheConfig.{name}": _stored(partial(CacheConfig, line_bytes=1, ways=1), name)
       for name in ("capacity", "line_bytes", "ways")},
    "MemorySystem.capacity": _stored(MemorySystem, "capacity"),
    "MemorySystem.rogue_period": _stored(partial(MemorySystem, 1 << 20), "rogue_period"),
    "allocate_region.size": _region("size"),
    "allocate_region.align": _region("align"),
    "access_many.addrs": _request("addrs"),
    "access_many.nbytes": _request("nbytes"),
    **{f"ModelSpec.{name}": _stored(partial(ModelSpec, hidden=64, intermediate=128, layers=1),
                                    name)
       for name in ("hidden", "intermediate", "layers", "vocab", "element_bytes")},
    **{f"DramGeometry.{name}": _stored(DramGeometry, name)
       for name in ("channels", "ranks_per_channel", "banks_per_rank", "rows_per_bank",
                    "columns_per_row", "burst_bytes", "element_bytes")},
    **{f"PimPlacement.{name}": _stored(partial(PimPlacement, AMAP, out_dim=16, in_dim=128), name)
       for name in ("out_dim", "in_dim", "banks_per_channel", "channels_used", "base_row")},
    "run_prefill.sl": lambda v: run_prefill(Scenario.WD, TOY, HW, v).sl,
    "run_decode.out_len": lambda v: run_decode(Scenario.WD, TOY, HW, v).out_len,
    # an NC stream's TTFT is sl t-units at a read penalty of 1
    "analytical_prefill.sl": lambda v: analytical_prefill(
        Scenario.NC_GEMM, v, replace(HW, nc_read_penalty=1.0))[0].numerator,
}
# None asks for no prefetcher and for the default alignment
NONE_IS_DEFAULT = {"MemorySystem.rogue_period", "allocate_region.align"}

NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64)
# 8 is valid in every call, so each converts an integer of each dtype
FIXED = (8, 0, -1, 2 ** 63 - 1, 2 ** 63, 10 ** 400, *(t(8) for t in NUMPY_INTEGERS),
         True, False, np.True_, np.False_, 2.0, 1.5, math.nan, math.inf, "8", None,
         Fraction(8))
VALUES = st.one_of(
    st.sampled_from(FIXED),
    st.sampled_from(NUMPY_INTEGERS).flatmap(
        lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)))


def _every_fixed_value(test):
    for value in FIXED:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=20, deadline=None)
@given(value=VALUES)
@_every_fixed_value
def test_a_count_is_stored_as_an_int_or_rejected(name, value):
    """A call succeeds only on an integer, which it keeps as the ``int`` of
    equal value; any other value raises a ``SimulatorError`` subclass, and
    never another exception or a warning."""
    try:
        stored = CALLS[name](value)
    except SimulatorError:
        return
    if value is None and name in NONE_IS_DEFAULT:
        return
    assert isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    assert type(stored) is int and stored == value


def test_check_int_messages():
    assert check_int("n", np.uint16(7), 0) == 7
    with pytest.raises(SimulatorError, match=r"^n must be an integer >= 1, got 0$"):
        check_int("n", 0)
    with pytest.raises(SimulatorError, match=r"^n must be an integer >= 0, got True$"):
        check_int("n", True, 0)
    with pytest.raises(SimulatorError, match=rf"^n must fit in an int64, got {2 ** 64 - 1}$"):
        check_int("n", np.uint64(2 ** 64 - 1))


# Inputs that the parent of the integer rule accepted, or failed on with
# an exception that is no SimulatorError
HOLES = {
    # NumPy dimensions whose weight bytes pass int64 wrapped with a warning
    "numpy-model-past-int64": lambda: ModelSpec(
        hidden=np.int64(2 ** 20), intermediate=np.int64(2 ** 20), layers=np.int64(2 ** 21)),
    "float-channels": lambda: DramGeometry(channels=2.0),
    "bool-channels": lambda: DramGeometry(channels=True),
    "fractional-out-dim": lambda: PimPlacement(AMAP, 2.5, 128),
    "float-banks": lambda: PimPlacement(AMAP, 16, 128, banks_per_channel=2.0),
    "fractional-base-row": lambda: PimPlacement(AMAP, 16, 128, base_row=1.5),
    "fractional-prefill-sl": lambda: run_prefill(Scenario.WD, TOY, HW, 1.5),
    "bool-prefill-sl": lambda: run_prefill(Scenario.WD, TOY, HW, True),
    "fractional-decode-out-len": lambda: run_decode(Scenario.WD, TOY, HW, 2.5),
    "fractional-analytical-sl": lambda: analytical_prefill(Scenario.S_DDB, 1.5, HW),
}


@pytest.mark.parametrize("call", HOLES.values(), ids=HOLES.keys())
def test_a_bad_count_fails_at_the_boundary(call):
    with pytest.raises(SimulatorError):
        call()


def test_numpy_geometry_counts_give_the_exact_capacity():
    counts = {"channels": 2 ** 20, "rows_per_bank": 2 ** 30, "columns_per_row": 2 ** 20}
    geo = DramGeometry(**{k: np.int64(v) for k, v in counts.items()})
    assert geo.total_capacity == DramGeometry(**counts).total_capacity == 2 ** 70 * 16 * 32
