"""PIM GEMV engine against a host oracle, plus command-count and
trigger-integrity behavior."""

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsim import bf16
from pimsim.dram import FIELD_NAMES, AddressMap, DramGeometry
from pimsim.engine import PIPELINE_DRAIN_READS, GemvJob, PimGemvEngine
from pimsim.errors import ConfigError, StagingError
from pimsim.layout import (PimPlacement, WeightMatrix, burst_address_of_tile,
                           convert_to_pim_aware)
from pimsim.memsys import Attribute, CacheConfig, MemorySystem, RegionKind

GEO = DramGeometry(channels=1, ranks_per_channel=1, banks_per_rank=16,
                   rows_per_bank=256, columns_per_row=32)
AMAP = AddressMap(GEO)
ACTIVE_BANKS = 4


def build(out_dim, in_dim, w_int, cacheable=False, rogue=False, amap=AMAP,
          banks=ACTIVE_BANKS, **engine_kw):
    mem = MemorySystem(capacity=amap.geometry.total_capacity + (1 << 16),
                       cache=CacheConfig(capacity=1 << 18),
                       rogue_prefetcher=rogue)
    image = add_image(mem, out_dim, in_dim, w_int, cacheable, amap,
                      banks=banks)
    engine = PimGemvEngine(mem, **engine_kw)
    return engine, image


def add_image(mem, out_dim, in_dim, w_int, cacheable=False, amap=AMAP,
              base_row=0, banks=ACTIVE_BANKS):
    """Convert ``w_int`` and map the rest of ``mem`` up to the end of its
    image as one weight region."""
    p = PimPlacement(amap, out_dim, in_dim, banks_per_channel=banks,
                     channels_used=1, base_row=base_row)
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


def test_command_counts_match_protocol_formula():
    out_dim, in_dim = 16 * ACTIVE_BANKS * 3, 300
    engine, image = build(out_dim, in_dim,
                          np.ones((out_dim, in_dim)))
    job, result = run_exact(engine, image, np.ones(in_dim))
    expected = job.expected_total_commands
    reads = [r for r in result.records if r.op == "R"]
    writes = [r for r in result.records if r.op == "W"]
    mac = [r for r in reads if r.addr != engine.dummy_addr]
    dummy = [r for r in reads if r.addr == engine.dummy_addr]
    assert len(mac) == expected["mac_reads"] == job.expected_mac_reads
    assert len(dummy) == expected["dummy_reads"]
    assert len([w for w in writes if w.addr == engine.in_buf_addr]) == \
        expected["input_writes"]
    assert len([w for w in writes if w.addr == engine.out_buf_addr]) == \
        expected["output_writes"]


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
    """Weight reads traced between two jobs trigger nothing in the second;
    another agent's weight read inside a job triggers its MAC."""
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
    engine._bind(job)
    engine.pim_write_input(job.input_bits[:128])
    engine.mem.access_many(reads, "R", burst_bytes, "copy")
    values, _ = engine.pim_read_output()
    assert np.array_equal(values, w[:16, :128] @ x[:128])


def test_rf_pointer_saturates_but_every_trigger_counts():
    """One staged tile followed by 256 weight reads before the readout: the
    first 128 consume the tile, the rest trigger without a MAC."""
    rng = np.random.default_rng(14)
    w = rng.integers(-3, 4, size=(16, 256)).astype(np.float64)
    x = rng.integers(-3, 4, size=256).astype(np.float64)
    engine, image = build(16, 256, w, banks=1)
    job = GemvJob(image, bf16.encode(x.astype(np.float32)), arithmetic="exact")
    engine._bind(job)
    engine.pim_write_input(job.input_bits[:128])
    engine.mem.access_many(burst_address_of_tile(image.placement, 0), "R",
                           image.placement.geometry.burst_bytes)
    values, _ = engine.pim_read_output()
    assert np.array_equal(values, w[:, :128] @ x[:128])
    assert engine._trigger_count == 256


def test_stagings_split_one_flush_window_into_tiles():
    """Weight reads after the bind, between two stagings and after the
    second, all flushed by one readback, each use their own tile; reads
    after the readback use the last tile again."""
    rng = np.random.default_rng(15)
    w = rng.integers(-3, 4, size=(16, 256)).astype(np.float64)
    x = rng.integers(-3, 4, size=256).astype(np.float64)
    engine, image = build(16, 256, w, banks=1)
    job = GemvJob(image, bf16.encode(x.astype(np.float32)), arithmetic="exact")
    burst_bytes = image.placement.geometry.burst_bytes
    bursts = burst_address_of_tile(image.placement, 0)
    engine._bind(job)
    engine.mem.access_many(bursts[:10], "R", burst_bytes)  # the zero tile
    engine.pim_write_input(job.input_bits[:128])
    engine.mem.access_many(bursts[200:], "R", burst_bytes)
    engine.pim_write_input(job.input_bits[128:])
    engine.mem.access_many(bursts[:100], "R", burst_bytes)
    values, _ = engine.pim_read_output()
    assert np.array_equal(values,
                          w[:, 200:] @ x[:56] + w[:, :100] @ x[128:228])
    assert engine._trigger_count == 10 + 56 + 100
    # the next window starts on the tile staged last, from its element 0
    engine.mem.access_many(bursts[:20], "R", burst_bytes)
    later, _ = engine.pim_read_output()
    assert np.array_equal(later - values, w[:, :20] @ x[128:148])


def test_a_job_flushes_macs_once_per_output_tile():
    engine, image = build(16 * ACTIVE_BANKS * 3, 300,
                          np.ones((16 * ACTIVE_BANKS * 3, 300)))
    flush, flushes = engine._on_dram, []
    engine._on_dram = lambda: flushes.append(flush())
    job, result = run_exact(engine, image, np.ones(300))
    assert len(flushes) == image.placement.slots == 3
    assert engine.verify_trigger_integrity(job, result).ok


def replay_mac_rule(result, engine, w_int, x_int, p, corrupt):
    """Independent, record-by-record model of the MAC rule over a job's
    trace: a staging write resets the RF pointer to the next input tile,
    the j-th read of a slab burst after it MACs input j if j is inside the
    tile, and an output write snapshots (then clears) the accumulators.
    Returns the readback bits, values, triggers and prefetcher triggers."""
    lanes, banks = p.row_tile, p.active_banks
    w_pad = np.zeros((p.m_pad, p.k_pad))
    w_pad[:p.out_dim, :p.in_dim] = w_int
    x_pad = np.zeros(p.k_pad)
    x_pad[:p.in_dim] = x_int
    x_tiles = x_pad.reshape(-1, p.input_tile_elements)
    slab = {}  # burst address in any active bank -> (slot, column)
    for tile in range(p.slots * banks):
        for col, addr in enumerate(burst_address_of_tile(p, tile).tolist()):
            slab[addr] = (tile // banks, col)
    x_cur = np.zeros(p.input_tile_elements)
    acc, pending, stagings = np.zeros((banks, lanes)), [], 0
    out, triggers, prefetched = [], 0, 0

    def apply():
        xs = x_cur[:len(pending)]
        for (slot, col), xj in zip(pending, xs[::-1] if corrupt else xs):
            rows = slot * banks * lanes + np.arange(banks * lanes)
            acc[:] += w_pad[rows, col].reshape(banks, lanes) * xj
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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 8, 16]), st.sampled_from([32, 64]),
       st.sampled_from([32, 64]), st.permutations(FIELD_NAMES), st.data(),
       st.sampled_from(["exact", "bf16"]), st.booleans(), st.booleans(),
       st.none() | st.integers(2, 300), st.integers(0, 2**32 - 1))
def test_trace_replay_oracle_matches_the_engine(geo_banks, columns,
                                                burst_bytes, order, data,
                                                arithmetic, cacheable,
                                                corrupt, rogue_period, seed):
    """Integer-valued operands keep every partial sum exact, so the oracle's
    summation order cannot matter, in either arithmetic."""
    geo = DramGeometry(channels=1, ranks_per_channel=1,
                       banks_per_rank=geo_banks, rows_per_bank=256,
                       columns_per_row=columns, burst_bytes=burst_bytes)
    amap = AddressMap(geo, order)
    banks = data.draw(st.integers(1, geo_banks), label="active banks")
    rng = np.random.default_rng(seed)
    out_dim = int(rng.integers(1, 3 * geo.elements_per_burst * banks + 1))
    in_dim = int(rng.integers(1, 3 * 8 * geo.elements_per_burst + 1))
    w = rng.integers(-4, 5, size=(out_dim, in_dim)).astype(np.float64)
    x = rng.integers(-4, 5, size=in_dim).astype(np.float64)
    mem = MemorySystem(capacity=geo.total_capacity + (1 << 16),
                       cache=CacheConfig(capacity=1 << 14),
                       rogue_prefetcher=rogue_period is not None,
                       rogue_period=rogue_period or 64)
    image = add_image(mem, out_dim, in_dim, w, cacheable, amap, banks=banks)
    engine = PimGemvEngine(mem, corrupt_mac_order=corrupt)
    job = GemvJob(image, bf16.encode(x.astype(np.float32)), arithmetic)
    for _ in range(2):  # the second run meets a warm cache
        result = engine.execute(job)
        bits, values, triggers, prefetched = replay_mac_rule(
            result, engine, w, x, image.placement, corrupt)
        assert np.array_equal(result.output_bits, bits)
        assert np.array_equal(result.output, values[:out_dim])
        assert result.triggered_mac_reads == triggers
        assert result.prefetcher_triggers == prefetched


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
    engine, image = build(64, 256, w, rogue=True)
    job, result = run_exact(engine, image, np.ones(256))
    report = engine.verify_trigger_integrity(job, result)
    assert report.status == "desynchronized"
    assert report.surplus_reads > 0


def test_corrupt_mac_order_hook_breaks_results():
    rng = np.random.default_rng(9)
    w = rng.integers(-3, 4, size=(64, 256)).astype(np.float64)
    x = np.arange(256, dtype=np.float64) % 7 - 3
    engine, image = build(64, 256, w, corrupt_mac_order=True)
    job, result = run_exact(engine, image, x)
    assert not np.array_equal(result.output, w @ x)


def test_input_rf_staging_round_trip():
    engine, image = build(16 * ACTIVE_BANKS, 128,
                          np.zeros((16 * ACTIVE_BANKS, 128)))
    job = GemvJob(image, np.zeros(128, dtype=np.uint16), arithmetic="exact")
    engine._bind(job)
    bits = np.arange(128, dtype=np.uint16)
    engine.pim_write_input(bits)
    state = json.loads(engine.state_dump())
    staged = np.asarray(state["blocks"][0]["input_rf"], dtype=np.uint16)
    assert np.array_equal(staged.reshape(-1), bits)


def test_partial_tile_zero_fills_unused_lanes():
    engine, image = build(16 * ACTIVE_BANKS, 128,
                          np.zeros((16 * ACTIVE_BANKS, 128)))
    job = GemvJob(image, np.zeros(128, dtype=np.uint16), arithmetic="exact")
    engine._bind(job)
    engine.pim_write_input(np.full(100, 0xAAAA, dtype=np.uint16))
    state = json.loads(engine.state_dump())
    staged = np.asarray(state["blocks"][0]["input_rf"]).reshape(-1)
    assert (staged[100:] == 0).all()


def test_rf_overflow_rejected():
    engine, image = build(16 * ACTIVE_BANKS, 128,
                          np.zeros((16 * ACTIVE_BANKS, 128)))
    job = GemvJob(image, np.zeros(128, dtype=np.uint16), arithmetic="exact")
    engine._bind(job)
    with pytest.raises(StagingError):
        engine.pim_write_input(np.zeros(129, dtype=np.uint16))


def test_output_readback_matches_state_dump():
    rng = np.random.default_rng(11)
    w = rng.integers(-3, 4, size=(64, 128)).astype(np.float64)
    engine, image = build(64, 128, w)
    job, result = run_exact(engine, image, np.ones(128))
    state = json.loads(engine.state_dump())
    accs = np.concatenate([b["acc"] for b in state["blocks"]])
    # the final out-tile readback snapshot equals the accumulator dump
    assert np.array_equal(result.output[-64:], accs[:64])


def test_job_validates_input_length():
    engine, image = build(64, 128, np.zeros((64, 128)))
    with pytest.raises(ConfigError):
        GemvJob(image, np.zeros(64, dtype=np.uint16))


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
