"""PIM GEMV engine against a host oracle, plus command-count and
trigger-integrity behavior."""

import gc
import hashlib
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimsim import bf16, layout
from pimsim.dram import FIELD_NAMES, AddressMap, DramGeometry
from pimsim.engine import PIPELINE_DRAIN_READS, GemvJob, PimGemvEngine
from pimsim.errors import ConfigError
from pimsim.layout import (PimPlacement, WeightMatrix, burst_address_of_tile,
                           convert_to_pim_aware)
from pimsim.memsys import Attribute, CacheConfig, MemorySystem, RegionKind
from pimsim.presets import DESK_GEOMETRY

GEO = DramGeometry(channels=1, ranks_per_channel=1, banks_per_rank=16,
                   rows_per_bank=256, columns_per_row=32)
AMAP = AddressMap(GEO)
ACTIVE_BANKS = 4


def build(out_dim, in_dim, w_int, cacheable=False, rogue_period=None, amap=AMAP,
          banks=ACTIVE_BANKS, **engine_kw):
    mem = MemorySystem(capacity=amap.geometry.total_capacity + (1 << 16),
                       cache=CacheConfig(capacity=1 << 18),
                       rogue_period=rogue_period)
    image = add_image(mem, out_dim, in_dim, w_int, cacheable, amap,
                      banks=banks)
    engine = PimGemvEngine(mem, **engine_kw)
    return engine, image


def add_image(mem, out_dim, in_dim, w_int, cacheable=False, amap=AMAP,
              base_row=0, banks=ACTIVE_BANKS, channels=1):
    """Convert ``w_int`` and map the rest of ``mem`` up to the end of its
    image as one weight region."""
    p = PimPlacement(amap, out_dim, in_dim, banks_per_channel=banks,
                     channels_used=channels, base_row=base_row)
    w = WeightMatrix(out_dim, in_dim, bf16.encode(w_int.astype(np.float32)))
    image = convert_to_pim_aware(w, p)
    attr = Attribute.CACHEABLE if cacheable else Attribute.NON_CACHEABLE
    end = mem.regions[-1].base + mem.regions[-1].size if mem.regions else 0
    assert image.base_addr >= end
    mem.allocate_region(RegionKind.CONTIGUOUS_POOL, attr,
                        image.base_addr + image.span_bytes - end,
                        name="weights", align=1)
    return image


def run_exact(engine, image, x_int):
    job = GemvJob(image, bf16.encode(x_int.astype(np.float32)),
                  arithmetic="exact")
    return job, engine.execute(job)


def test_identity_matrix_returns_input():
    n = 16 * ACTIVE_BANKS
    w = np.zeros((n, n))
    np.fill_diagonal(w, 1.0)
    x = np.arange(n, dtype=np.float64) - 31
    engine, image = build(n, n, w)
    job, result = run_exact(engine, image, x)
    assert np.array_equal(result.output, x)


def test_zero_weights_give_zero_output():
    engine, image = build(64, 128, np.zeros((64, 128)))
    job, result = run_exact(engine, image, np.arange(128))
    assert not result.output.any()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from([2, 4, 8, 16]),
       st.data(), st.permutations(FIELD_NAMES), st.integers(0, 2**32 - 1))
def test_exact_mode_matches_oracle_bit_exactly(otiles, itiles, geo_banks,
                                               data, order, seed):
    banks = data.draw(st.integers(1, geo_banks), label="active banks")
    rng = np.random.default_rng(seed)
    out_dim = otiles * 16 * banks - int(rng.integers(0, 16))
    in_dim = itiles * 128 - int(rng.integers(0, 100))
    out_dim, in_dim = max(out_dim, 1), max(in_dim, 1)
    w = rng.integers(-4, 5, size=(out_dim, in_dim)).astype(np.float64)
    x = rng.integers(-4, 5, size=in_dim).astype(np.float64)
    geo = DramGeometry(channels=1, ranks_per_channel=1,
                       banks_per_rank=geo_banks, rows_per_bank=256,
                       columns_per_row=32)
    engine, image = build(out_dim, in_dim, w, amap=AddressMap(geo, order),
                          banks=banks)
    # weights of 1 in the padded columns: the output shows any padded input
    # lane that is not staged as zero
    image.data[:, in_dim:] = bf16.encode(np.float32(1.0))
    job, result = run_exact(engine, image, x)
    assert np.array_equal(result.output, w @ x)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bf16_mode_error_bound(seed):
    rng = np.random.default_rng(seed)
    out_dim = int(rng.integers(16, 256))
    in_dim = int(rng.integers(64, 512))
    w = rng.standard_normal((out_dim, in_dim))
    x = rng.standard_normal(in_dim)
    wq = bf16.decode(bf16.encode(w)).astype(np.float64)
    xq = bf16.decode(bf16.encode(x)).astype(np.float64)
    engine, image = build(out_dim, in_dim, w)
    job = GemvJob(image, bf16.encode(x.astype(np.float32)), arithmetic="bf16")
    result = engine.execute(job)
    oracle = wq @ xq
    scale = max(np.abs(oracle).max(), 1.0)
    assert np.abs(result.output - oracle).max() / scale <= 2.0 ** -7


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 4, 8, 16]), st.sampled_from([1, 2]),
       st.sampled_from([32, 64]), st.sampled_from([32, 64]),
       st.permutations(FIELD_NAMES), st.data())
def test_command_counts_match_protocol_formula(geo_banks, channels, columns,
                                               burst_bytes, order, data):
    """A non-cacheable job traces, per output tile, each input tile's
    staging write and its slab reads, then the drain reads and the output
    write: exactly the counts of ``expected_total_commands``."""
    geo = DramGeometry(channels=channels, ranks_per_channel=1,
                       banks_per_rank=geo_banks, rows_per_bank=256,
                       columns_per_row=columns, burst_bytes=burst_bytes)
    banks = data.draw(st.integers(1, geo_banks), label="active banks")
    used = data.draw(st.integers(1, channels), label="channels used")
    lanes = geo.elements_per_burst
    out_dim = data.draw(st.integers(1, 3 * lanes * banks * used), label="M")
    in_dim = data.draw(st.integers(1, 3 * 8 * lanes), label="K")
    mem = MemorySystem(capacity=geo.total_capacity + (1 << 16))
    image = add_image(mem, out_dim, in_dim, np.ones((out_dim, in_dim)),
                      amap=AddressMap(geo, order), banks=banks, channels=used)
    engine = PimGemvEngine(mem)
    job, result = run_exact(engine, image, np.ones(in_dim))
    p = image.placement
    slab = burst_address_of_tile(p, np.arange(p.slots) * p.active_banks)
    kinds = {("W", engine.in_buf_addr): "input_writes",
             ("R", engine.dummy_addr): "dummy_reads",
             ("W", engine.out_buf_addr): "output_writes"}
    kinds.update((("R", a), "mac_reads") for a in slab.ravel().tolist())
    trace = [kinds.get((r.op, r.addr), r) for r in result.records]
    n_in = p.k_pad // p.input_tile_elements
    per_tile = ((["input_writes"] + ["mac_reads"] * p.input_tile_elements) * n_in
                + ["dummy_reads"] * PIPELINE_DRAIN_READS + ["output_writes"])
    assert trace == per_tile * p.slots
    assert Counter(trace) == job.expected_total_commands
    mac = [r.addr for r, kind in zip(result.records, trace) if kind == "mac_reads"]
    assert mac == slab.ravel().tolist()  # slot by slot, column by column
    assert job.expected_total_commands["mac_reads"] == job.expected_mac_reads


def test_single_tile_trace_shape():
    out_dim, in_dim = 16 * ACTIVE_BANKS, 128
    engine, image = build(out_dim, in_dim, np.ones((out_dim, in_dim)))
    job, result = run_exact(engine, image, np.ones(in_dim))
    ops = [(r.op, r.addr == engine.dummy_addr) for r in result.records]
    assert ops[0] == ("W", False)
    assert ops[1:129] == [("R", False)] * 128
    assert ops[129:129 + PIPELINE_DRAIN_READS] == [("R", True)] * 5
    assert ops[-1] == ("W", False)


WIDE_BURST = AddressMap(DramGeometry(channels=1, ranks_per_channel=1,
                                     banks_per_rank=16, rows_per_bank=256,
                                     columns_per_row=32, burst_bytes=64))


def test_back_to_back_non_cacheable_runs_are_ok():
    """Also on 64-byte bursts: 32 lanes per tile, 256-element input tiles."""
    rng = np.random.default_rng(3)
    w = rng.integers(-3, 4, size=(64, 256)).astype(np.float64)
    x = rng.integers(-3, 4, size=256).astype(np.float64)
    for amap in (AMAP, WIDE_BURST):
        engine, image = build(64, 256, w, amap=amap)
        for _ in range(2):
            job, result = run_exact(engine, image, x)
            report = engine.verify_trigger_integrity(job, result)
            assert report.ok
            assert result.triggered_mac_reads == job.expected_mac_reads
            assert np.array_equal(result.output, w @ x)


def test_a_job_runs_as_on_a_fresh_engine_after_a_different_job():
    """The engine keeps no state between jobs: job B after a different job
    A gives what B gives on a fresh engine.  A stages one input tile, so a
    staging count carried over would swap B's two tiles."""
    rng = np.random.default_rng(12)
    w_a = rng.integers(-3, 4, size=(48, 100)).astype(np.float64)
    w_b = rng.integers(-3, 4, size=(64, 200)).astype(np.float64)
    x_a = bf16.encode(rng.standard_normal(100).astype(np.float32))
    x_b = bf16.encode(rng.integers(-3, 4, size=200).astype(np.float32))
    mem = MemorySystem(capacity=GEO.total_capacity + (1 << 16))
    image_a = add_image(mem, 48, 100, w_a)
    row_b = image_a.placement.rows_needed
    image_b = add_image(mem, 64, 200, w_b, base_row=row_b)
    engine = PimGemvEngine(mem)
    engine.execute(GemvJob(image_a, x_a))
    fresh_mem = MemorySystem(capacity=GEO.total_capacity + (1 << 16))
    fresh = PimGemvEngine(fresh_mem)
    fresh_image = add_image(fresh_mem, 64, 200, w_b, base_row=row_b)
    results = []
    for eng, image in ((engine, image_b), (fresh, fresh_image)):
        job = GemvJob(image, x_b, arithmetic="exact")
        result = eng.execute(job)
        results.append((result, eng.verify_trigger_integrity(job, result)))
    (after_a, report), (on_fresh, fresh_report) = results
    assert np.array_equal(after_a.output, w_b @ bf16.decode(x_b))
    assert np.array_equal(after_a.output, on_fresh.output)
    assert np.array_equal(after_a.output_bits, on_fresh.output_bits)
    assert after_a.triggered_mac_reads == on_fresh.triggered_mac_reads
    assert report == fresh_report and report.ok


def test_cacheable_weights_block_second_run():
    rng = np.random.default_rng(4)
    w = rng.integers(-3, 4, size=(64, 256)).astype(np.float64)
    x = rng.integers(-3, 4, size=256).astype(np.float64)
    engine, image = build(64, 256, w, cacheable=True)
    job1, r1 = run_exact(engine, image, x)
    mem = engine.mem
    warm_mark = mem.mark()
    job2, r2 = run_exact(engine, image, x)
    report = engine.verify_trigger_integrity(job2, r2)
    assert report.status == "pim-blocked"
    # deficit equals the number of warm hits inside the weight span
    base, end = image.base_addr, image.base_addr + image.span_bytes
    warm_hits = [h for h in mem.hits_since(warm_mark)
                 if base <= h.line_addr < end]
    assert report.deficit == len(warm_hits)
    assert report.absorbing_lines  # names the absorbing cache lines
    # functional corruption: the blocked run accumulates nothing
    assert not np.array_equal(r2.output, w @ x)


def test_integrity_of_an_earlier_result_uses_its_own_hit_window():
    rng = np.random.default_rng(5)
    w = rng.integers(-3, 4, size=(64, 128)).astype(np.float64)
    engine, image = build(64, 128, w, cacheable=True)
    run_exact(engine, image, np.ones(128))
    job, blocked = run_exact(engine, image, np.ones(128))
    # rows past the first image and the engine's staging region
    other = add_image(engine.mem, 64, 128, w,
                      base_row=image.placement.rows_needed + 1)
    run_exact(engine, other, np.ones(128))
    report = engine.verify_trigger_integrity(job, blocked)
    assert report.status == "pim-blocked"
    assert len(report.absorbing_lines) == 128


def test_a_job_triggers_on_the_weight_reads_traced_inside_it():
    """Weight reads traced between two jobs trigger nothing in the second."""
    rng = np.random.default_rng(12)
    w = rng.integers(-3, 4, size=(16, 256)).astype(np.float64)
    x = rng.integers(-3, 4, size=256).astype(np.float64)
    engine, image = build(16, 256, w, banks=1)
    burst_bytes = image.placement.geometry.burst_bytes
    reads = burst_address_of_tile(image.placement, 0)[:128]
    run_exact(engine, image, x)
    engine.mem.access_many(reads, "R", burst_bytes, "copy")
    job, result = run_exact(engine, image, x)
    assert np.array_equal(result.output, w @ x)
    assert engine.verify_trigger_integrity(job, result).ok


def test_rf_pointer_saturates_but_every_trigger_counts():
    """A read prefetched after every second weight read lands in the other
    active bank, so each input tile's window holds 192 triggers: the first
    128 consume the tile, the rest trigger without a MAC."""
    rng = np.random.default_rng(14)
    w = rng.integers(-3, 4, size=(32, 256)).astype(np.float64)
    x = rng.integers(-3, 4, size=256).astype(np.float64)
    mem = MemorySystem(capacity=GEO.total_capacity + (1 << 16),
                       cache=CacheConfig(capacity=1 << 18),
                       rogue_period=2)
    image = add_image(mem, 32, 256, w, banks=2)
    job, result = run_exact(PimGemvEngine(mem), image, x)
    assert result.triggered_mac_reads == 2 * 192
    assert result.prefetcher_triggers == 2 * 64
    # columns read per window: 0, 1, 1 (prefetched), 2, 3, 3, ...
    cols = np.repeat(np.arange(128), np.tile([1, 2], 64))[:128]
    expected = sum(w[:, t + cols] @ x[t:t + 128] for t in (0, 128))
    assert np.array_equal(result.output, expected)


def test_stagings_split_one_flush_window_into_tiles():
    """With the first 100 weight reads absorbed by a warm cache of one burst
    per line, the first input tile's window triggers 28 reads, which MAC
    that tile's first 28 elements; the second staging restarts the RF
    pointer, so its 128 reads MAC the whole second tile."""
    rng = np.random.default_rng(15)
    w = rng.integers(-3, 4, size=(16, 256)).astype(np.float64)
    x = rng.integers(-3, 4, size=256).astype(np.float64)
    mem = MemorySystem(capacity=GEO.total_capacity + (1 << 16),
                       cache=CacheConfig(capacity=1 << 18, line_bytes=32))
    image = add_image(mem, 16, 256, w, cacheable=True, banks=1)
    engine = PimGemvEngine(mem)
    bursts = burst_address_of_tile(image.placement, 0)
    mem.access_many(bursts[:100], "R", image.placement.geometry.burst_bytes)
    job, result = run_exact(engine, image, x)
    assert result.triggered_mac_reads == 28 + 128
    assert np.array_equal(result.output,
                          w[:, 100:128] @ x[:28] + w[:, 128:] @ x[128:])
    assert engine.verify_trigger_integrity(job, result).deficit == 100


def test_a_job_decodes_its_macs_once():
    """One decode per ``execute``, whatever the number of output tiles."""
    engine, image = build(16 * ACTIVE_BANKS * 3, 300,
                          np.ones((16 * ACTIVE_BANKS * 3, 300)))
    decode, decodes = engine._on_dram, []

    def counted(*args):
        decodes.append(None)
        return decode(*args)
    engine._on_dram = counted
    assert image.placement.slots == 3
    for n in (1, 2):
        job, result = run_exact(engine, image, np.ones(300))
        assert len(decodes) == n
        assert engine.verify_trigger_integrity(job, result).ok


def test_a_job_builds_no_burst_table(monkeypatch):
    """Conversion computes the placement's slot burst table once, and every
    ``execute`` on the image reads that table: no job packs an address."""
    n = 16 * ACTIVE_BANKS * 3
    mem = MemorySystem(capacity=GEO.total_capacity + (1 << 16))
    built = []
    for name in ("burst_address_of_tile", "pack_fields"):
        real = getattr(layout, name)
        monkeypatch.setattr(layout, name,
                            lambda *args, real=real, name=name:
                            built.append(name) or real(*args))
    image = add_image(mem, n, 300, np.ones((n, 300)))
    assert built.count("burst_address_of_tile") == 1
    table, built[:] = image.placement.slot_bursts, []
    engine = PimGemvEngine(mem)
    for _ in range(2):
        job, result = run_exact(engine, image, np.ones(300))
        assert engine.verify_trigger_integrity(job, result).ok
    assert built == [] and image.placement.slot_bursts is table


def test_bf16_decode_is_the_high_half_of_every_pattern():
    bits = np.arange(1 << 16, dtype=np.uint16)
    decoded = bf16.decode(bits)
    assert decoded.dtype == np.float32 and decoded.shape == bits.shape
    # bit for bit, NaN payloads included
    assert np.array_equal(decoded.view(np.uint32), bits.astype(np.uint32) << 16)
    # a scalar pattern gives a scalar
    assert type(bf16.decode(0x3F80)) is np.float32 and bf16.decode(0x3F80) == 1.0


def test_bf16_encode_rounds_to_nearest_even_and_keeps_nans():
    """A float32 pattern's bf16 encoding depends only on its high half and
    on whether its low half is below, at or above 0x8000; every high half
    with low halves on both sides of each boundary covers every case.  A
    non-NaN pattern rounds to nearest even by the carry formula, computed
    here without wrapping; a NaN stays a NaN of its sign, made quiet."""
    highs = np.arange(1 << 16, dtype=np.uint64)
    lows = np.array([0, 1, 0x3FFF, 0x7FFF, 0x8000, 0x8001, 0xC000, 0xFFFF], np.uint64)
    bits = (highs[:, None] << 16 | lows).reshape(-1)
    encoded = bf16.encode(bits.astype(np.uint32).view(np.float32))
    assert encoded.dtype == np.uint16 and encoded.shape == bits.shape
    nan = (bits & 0x7FFFFFFF) > 0x7F800000
    rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
    assert np.array_equal(encoded[~nan], rounded[~nan])
    assert np.array_equal(encoded[nan], (bits[nan] >> 16) | 0x0040)
    assert np.isnan(bf16.decode(encoded[nan])).all()
    for pattern, want in ((0x7FFF8000, 0x7FFF), (0x7FFFFFFF, 0x7FFF),
                          (0xFFFFFFFF, 0xFFFF), (0x7F800001, 0x7FC0),
                          (0x7F7FFFFF, 0x7F80)):  # the largest finite rounds to +inf
        assert bf16.encode(np.uint32(pattern).view(np.float32)) == want
    assert type(bf16.encode(1.0)) is np.uint16 and bf16.encode(1.0) == 0x3F80


def rf_partial(ws, xs, dtype):
    """One window's partial sum by pimsim's MAC rule, with no NumPy
    reduction: from zero, add ``ws[j] * xs[j]`` (each a bank x lane array
    and an input) in RF order, in the accumulators' precision ``dtype``."""
    part = np.zeros(ws.shape[1:], dtype=dtype)
    for wj, xj in zip(ws, xs):
        part += wj.astype(dtype) * dtype(xj)
    return part


def replay_mac_rule(result, engine, w, x, p, arithmetic, corrupt):
    """Independent, record-by-record model of the MAC rule over a job's
    trace: a staging write resets the RF pointer to the next input tile,
    the j-th read of a slab burst after it MACs input j if j is inside the
    tile, and an output write snapshots (then clears) the accumulators.
    The MACs of each window, the reads between two boundaries, are the
    ``rf_partial`` of the bf16-rounded operands, added to the accumulators
    before the next window.  Returns the readback bits, values, triggers
    and prefetcher triggers."""
    lanes, banks = p.row_tile, p.active_banks
    dtype = np.float64 if arithmetic == "exact" else np.float32
    w_pad = np.zeros((p.m_pad, p.k_pad), dtype=np.float32)
    w_pad[:p.out_dim, :p.in_dim] = bf16.decode(bf16.encode(w.astype(np.float32)))
    x_pad = np.zeros(p.k_pad, dtype=dtype)
    x_pad[:p.in_dim] = bf16.decode(bf16.encode(x.astype(np.float32)))
    x_tiles = x_pad.reshape(-1, p.input_tile_elements)
    slab = {}  # burst address in any active bank -> (slot, column)
    for tile in range(p.slots * banks):
        for col, addr in enumerate(burst_address_of_tile(p, tile).tolist()):
            slab[addr] = (tile // banks, col)
    x_cur = np.zeros(p.input_tile_elements, dtype=dtype)
    acc, pending, stagings = np.zeros((banks, lanes), dtype=dtype), [], 0
    out, triggers, prefetched = [], 0, 0

    def apply():
        if pending:
            ws = np.array([w_pad[slot * banks * lanes:(slot + 1) * banks * lanes, col]
                           for slot, col in pending]).reshape(-1, banks, lanes)
            xs = x_cur[:len(pending)]
            acc[:] += rf_partial(ws, xs[::-1] if corrupt else xs, dtype)
        pending.clear()

    for r in result.records:
        if r.op == "W" and r.addr == engine.in_buf_addr:
            apply()
            x_cur = x_tiles[stagings % len(x_tiles)]
            stagings += 1
        elif r.op == "W" and r.addr == engine.out_buf_addr:
            apply()
            out.append(acc.reshape(-1).copy())
            acc[:] = 0
        elif r.op == "R" and r.addr in slab:
            triggers += 1
            prefetched += r.agent == "prefetcher"
            if len(pending) < len(x_cur):
                pending.append(slab[r.addr])
    values = np.concatenate(out)
    return bf16.encode(values.astype(np.float32)), values, triggers, prefetched


class Drawn:
    """Stands in for ``st.data()`` in an explicit example: every draw
    gives ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy, label=None):
        return self.value


# Seed 44303 draws a 64x427 job; on 4 banks with a read prefetched after
# every second one, each input tile's window holds more slab reads than
# the RF, so the RF pointer saturates while every read still triggers.
# Seed 4 draws a 558x604 job: on 16 banks of 16 lanes a flush holds two
# windows, so a tile's five windows span three flushes, which add windows to
# accumulators that are not zero, and a flush holds windows of two tiles.
@example(4, 32, 32, list(FIELD_NAMES), Drawn(4), "exact", False, False, 2, 44303, False)
@example(4, 32, 32, list(FIELD_NAMES), Drawn(4), "bf16", False, True, 2, 44303, False)
@example(16, 32, 32, list(FIELD_NAMES), Drawn(16), "bf16", False, False, None, 4, True)
@example(16, 32, 32, list(FIELD_NAMES), Drawn(16), "exact", True, True, 7, 4, True)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 8, 16]), st.sampled_from([32, 64]),
       st.sampled_from([32, 64]), st.permutations(FIELD_NAMES), st.data(),
       st.sampled_from(["exact", "bf16"]), st.booleans(), st.booleans(),
       st.none() | st.integers(2, 300), st.integers(0, 2**32 - 1), st.booleans())
def test_trace_replay_oracle_matches_the_engine(geo_banks, columns,
                                                burst_bytes, order, data,
                                                arithmetic, cacheable,
                                                corrupt, rogue_period, seed,
                                                normal):
    """Integer-valued operands keep every partial sum exact, so the oracle's
    summation order cannot matter, in either arithmetic.  Standard-normal
    operands round, so with them the engine's output bits are those of each
    window's ``rf_partial`` added in trace order, whatever the windows: full ones
    flushed together, short ones on a warm cache, saturated ones under the
    prefetcher, reversed inputs, and flushes of ``FLUSH_BYTES`` that end
    inside a tile or span output writes."""
    geo = DramGeometry(channels=1, ranks_per_channel=1,
                       banks_per_rank=geo_banks, rows_per_bank=256,
                       columns_per_row=columns, burst_bytes=burst_bytes)
    amap = AddressMap(geo, order)
    banks = data.draw(st.integers(1, geo_banks), label="active banks")
    rng = np.random.default_rng(seed)
    out_dim = int(rng.integers(1, 3 * geo.elements_per_burst * banks + 1))
    in_dim = int(rng.integers(1, 5 * 8 * geo.elements_per_burst + 1))
    if normal:
        w = rng.standard_normal((out_dim, in_dim))
        x = rng.standard_normal(in_dim)
    else:
        w = rng.integers(-4, 5, size=(out_dim, in_dim)).astype(np.float64)
        x = rng.integers(-4, 5, size=in_dim).astype(np.float64)
    mem = MemorySystem(capacity=geo.total_capacity + (1 << 16),
                       cache=CacheConfig(capacity=1 << 14),
                       rogue_period=rogue_period)
    image = add_image(mem, out_dim, in_dim, w, cacheable, amap, banks=banks)
    engine = PimGemvEngine(mem, corrupt_mac_order=corrupt)
    job = GemvJob(image, bf16.encode(x.astype(np.float32)), arithmetic)
    for _ in range(2):  # the second run meets a warm cache
        result = engine.execute(job)
        bits, values, triggers, prefetched = replay_mac_rule(
            result, engine, w, x, image.placement, arithmetic, corrupt)
        assert np.array_equal(result.output_bits, bits)
        assert result.output.tobytes() == values[:out_dim].astype(np.float64).tobytes()
        assert result.triggered_mac_reads == triggers
        assert result.prefetcher_triggers == prefetched


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 16), st.sampled_from([16, 32]),
       st.sampled_from(["exact", "bf16"]), st.integers(0, 2**32 - 1))
def test_the_batched_einsum_is_the_sequential_mac_rule(windows, banks, lanes,
                                                       arithmetic, seed):
    """The engine's flush takes every window's partial sum from one
    ``einsum("wnab,wn->wab")``.  On standard-normal bf16 operands, windows of
    1 to one input tile's ``RF_ENTRIES * lanes`` MACs, zero-padded as the
    flush pads them, must give the bits of ``rf_partial``, the rule itself,
    and not whatever order a NumPy version sums in."""
    rng = np.random.default_rng(seed)
    dtype = np.float64 if arithmetic == "exact" else np.float32
    rf = layout.RF_ENTRIES * lanes
    w = bf16.decode(bf16.encode(
        rng.standard_normal((windows, rf, banks, lanes)).astype(np.float32)))
    x = bf16.decode(bf16.encode(
        rng.standard_normal((windows, rf)).astype(np.float32))).astype(dtype)
    macs = rng.integers(1, rf + 1, size=windows)
    for i, n in enumerate(macs):
        w[i, n:] = 0
        x[i, n:] = 0
    got = np.einsum("wnab,wn->wab", w, x)
    want = np.stack([rf_partial(w[i, :n], x[i, :n], dtype)
                     for i, n in enumerate(macs)])
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), \
        f"einsum sums a window in another order than the MAC rule on NumPy {np.__version__}"


def test_staging_beyond_the_device_triggers_no_mac():
    """A weight region that fills the device puts the engine's staging
    buffers above it.  Their addresses differ from the slab's bursts only in
    bits above the top address field, so they must trigger nothing."""
    geo = DramGeometry(channels=1, ranks_per_channel=1, banks_per_rank=4,
                       rows_per_bank=16, columns_per_row=32)
    rng = np.random.default_rng(13)
    w = rng.integers(-3, 4, size=(64, 128)).astype(np.float64)
    x = rng.integers(-3, 4, size=128).astype(np.float64)
    mem = MemorySystem(capacity=geo.total_capacity + (1 << 16))
    mem.allocate_region(RegionKind.CONTIGUOUS_POOL, Attribute.NON_CACHEABLE,
                        geo.total_capacity, name="weights")
    p = PimPlacement(AddressMap(geo), 64, 128, banks_per_channel=4)
    image = convert_to_pim_aware(
        WeightMatrix(64, 128, bf16.encode(w.astype(np.float32))), p)
    engine = PimGemvEngine(mem)
    assert engine.dummy_addr >= geo.total_capacity
    job, result = run_exact(engine, image, x)
    assert np.array_equal(result.output, w @ x)
    assert engine.verify_trigger_integrity(job, result).ok


def test_attribute_removal_never_increases_dram_reads():
    rng = np.random.default_rng(6)
    w = rng.integers(-2, 3, size=(64, 128)).astype(np.float64)
    counts = {}
    for cacheable in (False, True):
        engine, image = build(64, 128, w, cacheable=cacheable)
        mark = engine.mem.mark()
        for _ in range(2):
            run_exact(engine, image, np.ones(128))
        counts[cacheable] = sum(r.op == "R"
                                for r in engine.mem.records_since(mark))
    assert counts[True] < counts[False]


def test_rogue_prefetcher_desynchronizes():
    rng = np.random.default_rng(8)
    w = rng.integers(-2, 3, size=(64, 256)).astype(np.float64)
    engine, image = build(64, 256, w, rogue_period=64)
    job, result = run_exact(engine, image, np.ones(256))
    report = engine.verify_trigger_integrity(job, result)
    assert report.status == "desynchronized"
    assert report.surplus_reads > 0


# sha256 of the trace export and output bits of two jobs run back to back
# on the desk geometry: weights in a non-cacheable region, the same with a
# rogue prefetcher that reads every third read's next block, and weights in
# a cacheable region.  Any change to what a job's mixed staging and weight
# stream records changes them.
ENGINE_TRACE_SHA256 = {
    "plain": "478aef95f803cc400708b961c658b4cd3b8b3ad6a0107e03047d38a187fa6777",
    "rogue": "a80b18c2b17ff5f8de4590fd86499a53a6bfd592ef1aed2b963e6927ba9ebd73",
    "cacheable": "ce97aa680c6e851039fe955994503feefdf301fc92d4676637a5a5e7d08c126b",
}


def _pinned_jobs_digest(case: str) -> str:
    amap = AddressMap(DESK_GEOMETRY)
    mem = MemorySystem(capacity=DESK_GEOMETRY.total_capacity + (1 << 16),
                       cache=CacheConfig(capacity=1 << 16),
                       rogue_period=3 if case == "rogue" else None)
    rng = np.random.default_rng(21)
    w = rng.integers(-3, 4, size=(96, 300)).astype(np.float64)
    image = add_image(mem, 96, 300, w, cacheable=case == "cacheable", amap=amap)
    engine = PimGemvEngine(mem)
    digest = hashlib.sha256()
    for _ in range(2):
        x = rng.integers(-3, 4, size=300).astype(np.float32)
        result = engine.execute(GemvJob(image, bf16.encode(x)))
        digest.update(mem.export_trace_ndjson(result.records).encode())
        digest.update(result.output_bits.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(ENGINE_TRACE_SHA256))
def test_engine_trace_and_output_are_pinned(case):
    assert _pinned_jobs_digest(case) == ENGINE_TRACE_SHA256[case]


def test_corrupt_mac_order_hook_breaks_results():
    rng = np.random.default_rng(9)
    w = rng.integers(-3, 4, size=(64, 256)).astype(np.float64)
    x = np.arange(256, dtype=np.float64) % 7 - 3
    engine, image = build(64, 256, w, corrupt_mac_order=True)
    job, result = run_exact(engine, image, x)
    assert not np.array_equal(result.output, w @ x)


def test_job_validates_input_length():
    engine, image = build(64, 128, np.zeros((64, 128)))
    with pytest.raises(ConfigError):
        GemvJob(image, np.zeros(64, dtype=np.uint16))


@pytest.mark.parametrize("arithmetic", ["fp32", "Exact", None])
def test_job_rejects_an_unknown_arithmetic(arithmetic):
    engine, image = build(64, 128, np.zeros((64, 128)))
    with pytest.raises(ConfigError, match="unknown arithmetic"):
        GemvJob(image, np.zeros(128, dtype=np.uint16), arithmetic=arithmetic)


@pytest.mark.parametrize("x", [
    np.full(128, 1.7),                  # a float: would run as bit pattern 1
    np.full(128, -1),                   # would wrap to 0xFFFF, a NaN
    np.full(128, 70000),                # would wrap to 4464
    np.zeros((2, 64), dtype=np.uint16),  # right size, wrong shape
    np.ones(128, dtype=bool),
    [1.5] * 128,
], ids=["float", "negative", "above-16-bit", "2-d", "bool", "float-list"])
def test_job_rejects_input_it_would_reinterpret(x):
    """And a weight matrix rejects each value case with the same error."""
    engine, image = build(64, 128, np.zeros((64, 128)))
    with pytest.raises(ConfigError) as job_error:
        GemvJob(image, x)
    if np.ndim(x) == 1:
        with pytest.raises(ConfigError) as weight_error:
            WeightMatrix(1, 128, x)
        assert str(weight_error.value) == str(job_error.value)


def test_job_accepts_uint16_and_in_range_integer_input():
    engine, image = build(64, 128, np.zeros((64, 128)))
    bits = np.arange(128, dtype=np.uint16) + 0xFF00
    for x in (bits, bits.astype(np.int64)):
        job = GemvJob(image, x)
        assert job.input_bits.dtype == np.uint16
        assert np.array_equal(job.input_bits, bits)


def test_dropped_engine_and_memory_system_are_freed_without_gc():
    """Nothing links the engine and its memory system in a cycle, so they
    are freed as soon as they are dropped, even with the cyclic garbage
    collector off."""
    gc.disable()
    try:
        engine, image = build(64, 128, np.ones((64, 128)))
        job, result = run_exact(engine, image, np.arange(128))
        assert result.triggered_mac_reads == job.expected_mac_reads
        refs = (weakref.ref(engine), weakref.ref(engine.mem))
        del engine, job, result
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
