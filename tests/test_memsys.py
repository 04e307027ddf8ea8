"""Memory system: regions, cache behavior against a replay oracle, and
trace semantics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsim.errors import CapacityError, RegionError
from pimsim.memsys import (Attribute, CacheConfig, MemorySystem, RegionKind,
                           Source, TraceRecord)


def make_mem(**kwargs):
    kwargs.setdefault("capacity", 1 << 20)
    kwargs.setdefault("cache", CacheConfig(capacity=1 << 12, line_bytes=64,
                                           ways=2))
    return MemorySystem(**kwargs)


class ReplayCache:
    """Independent model of a set-associative LRU write-back cache that
    predicts the DRAM-side trace of a cacheable access sequence."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets = [[] for _ in range(config.sets)]  # [(line, dirty)] LRU last
        self.dram = []

    def access(self, addr, op, nbytes):
        lb = self.config.line_bytes
        line = addr - addr % lb
        while line < addr + nbytes:
            idx = (line // lb) % self.config.sets
            ways = self.sets[idx]
            entry = next((e for e in ways if e[0] == line), None)
            if entry is not None:
                ways.remove(entry)
            else:
                if len(ways) >= self.config.ways:
                    victim, dirty = ways.pop(0)
                    if dirty:
                        self.dram.append(("W", victim, lb))
                self.dram.append(("R", line, lb))
                entry = (line, False)
            if op == "W":
                entry = (line, True)
            ways.append(entry)
            line += lb


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.sampled_from("RW")),
                min_size=1, max_size=200))
def test_cacheable_trace_matches_replay_oracle(ops):
    mem = make_mem()
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE,
                                 256 * 64, name="data")
    oracle = ReplayCache(mem.cache.config)
    for line_idx, op in ops:
        addr = region.base + line_idx * 64
        mem.access(addr, op, 8)
        oracle.access(addr, op, 8)
    got = [(r.op, r.addr, r.nbytes) for r in mem.trace]
    assert got == oracle.dram


def test_non_cacheable_accesses_pass_through_verbatim():
    mem = make_mem()
    region = mem.allocate_region(RegionKind.CONTIGUOUS_POOL,
                                 Attribute.NON_CACHEABLE, 4096)
    for i in range(10):
        src = mem.access(region.base + 3 * i, "R", 5, agent="a")
        assert src is Source.DRAM
    assert [(r.addr, r.nbytes, r.agent) for r in mem.trace] == \
        [(region.base + 3 * i, 5, "a") for i in range(10)]


def test_cache_hit_produces_no_trace_and_reports_cache_source():
    mem = make_mem()
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 4096)
    assert mem.access(region.base, "R", 8) is Source.DRAM
    n = len(mem.trace)
    assert mem.access(region.base, "R", 8) is Source.CACHE
    assert len(mem.trace) == n
    assert mem.cache.stats.hits == 1


def test_dirty_eviction_writes_back():
    cfg = CacheConfig(capacity=2 * 64, line_bytes=64, ways=2)  # one set
    mem = make_mem(cache=cfg)
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 4096)
    mem.access(region.base, "W", 8)
    mem.access(region.base + 64, "R", 8)
    mem.access(region.base + 128, "R", 8)  # evicts dirty line 0
    writes = [r for r in mem.trace if r.op == "W"]
    assert writes == [writes[0]]
    assert writes[0].addr == region.base
    assert mem.cache.stats.writebacks == 1


def test_line_straddling_access_touches_both_lines():
    mem = make_mem()
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 4096)
    mem.access(region.base + 60, "R", 8)  # crosses a 64 B boundary
    assert {r.addr - region.base for r in mem.trace} == {0, 64}


def test_region_allocation_and_bounds():
    mem = make_mem(contiguous_pool_cap=8192)
    a = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 100)
    b = mem.allocate_region(RegionKind.CONTIGUOUS_POOL,
                            Attribute.NON_CACHEABLE, 4096)
    assert b.base >= a.base + a.size
    assert mem.region_at(b.base + 10) is b
    with pytest.raises(RegionError):
        mem.region_at(mem.capacity - 1)
    with pytest.raises(RegionError):
        mem.access(a.base + 96, "R", 8)  # crosses region end
    with pytest.raises(CapacityError):
        mem.allocate_region(RegionKind.CONTIGUOUS_POOL,
                            Attribute.NON_CACHEABLE, 8192)


def test_capacity_exhaustion():
    mem = MemorySystem(capacity=1024)
    mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 512)
    with pytest.raises(CapacityError):
        mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 1024)


def test_drain_trace_has_delta_semantics():
    mem = make_mem()
    region = mem.allocate_region(RegionKind.GENERAL,
                                 Attribute.NON_CACHEABLE, 4096)
    mem.access(region.base, "R", 4)
    first = mem.drain_trace()
    assert len(first) == 1
    mem.access(region.base + 4, "R", 4)
    second = mem.drain_trace()
    assert [r.addr for r in second] == [region.base + 4]
    assert mem.drain_trace() == []


def test_reset_stats_keeps_cache_contents():
    mem = make_mem()
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 4096)
    mem.access(region.base, "R", 8)
    mem.reset_stats()
    assert mem.cache.stats.misses == 0
    assert mem.access(region.base, "R", 8) is Source.CACHE


def test_rogue_prefetcher_injects_next_line_reads():
    mem = make_mem(rogue_prefetcher=True, rogue_period=4)
    region = mem.allocate_region(RegionKind.GENERAL,
                                 Attribute.NON_CACHEABLE, 4096)
    for i in range(8):
        mem.access(region.base + 32 * i, "R", 32)
    injected = [r for r in mem.trace if r.agent == "prefetcher"]
    assert len(injected) == 2
    # injected read targets the sequentially next block
    assert injected[0].addr == region.base + 32 * 3 + 32


def test_trace_export_is_valid_ndjson():
    mem = make_mem()
    region = mem.allocate_region(RegionKind.GENERAL,
                                 Attribute.NON_CACHEABLE, 4096)
    mem.access(region.base, "R", 4, agent="x")
    text = mem.export_trace_ndjson()
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert rows == [{"tick": 0, "agent": "x", "op": "R",
                     "addr": region.base, "bytes": 4}]


def test_fixed_sequence_is_deterministic():
    def run():
        mem = make_mem(rogue_prefetcher=True, rogue_period=3)
        region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE,
                                     8192)
        rng = np.random.default_rng(5)
        for addr in rng.integers(0, 8000, size=300):
            mem.access(region.base + int(addr) % 8000, "R", 1)
        return mem.export_trace_ndjson()

    assert run() == run()


BATCH_REGION = 1024  # bytes in each region of the batch property


def _batches(nbytes):
    """Batches of offsets into a region of BATCH_REGION bytes, biased to
    its ends, where the rogue prefetcher's next block no longer fits."""
    last = BATCH_REGION - nbytes
    offset = st.one_of(st.integers(0, last),
                       st.sampled_from([0, last, last - nbytes, last - nbytes + 1]))
    return st.lists(st.tuples(st.booleans(),           # cacheable region
                              st.sampled_from("RW"),
                              st.sampled_from(["host", "copy"]),
                              st.lists(offset, max_size=12),
                              st.sampled_from(["", "drain", "clear"])),
                    max_size=12)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.integers(1, 7), st.sampled_from([4, 32, 64]), st.data())
def test_access_many_equals_a_sequence_of_access(rogue, period, nbytes, data):
    batches = data.draw(_batches(nbytes), label="batches")

    def run(batched):
        mem = make_mem(rogue_prefetcher=rogue, rogue_period=period)
        regions = [mem.allocate_region(RegionKind.GENERAL, attr, BATCH_REGION)
                   for attr in (Attribute.NON_CACHEABLE, Attribute.CACHEABLE)]
        seen = []  # every record, rebuilt from the trace's chunks

        def collect():
            seen.extend(TraceRecord(c.tick + i, c.agent, c.op, a, c.nbytes)
                        for c in mem.trace.chunks
                        for i, a in enumerate(c.addrs.tolist()))
        windows = []
        for cacheable, op, agent, offsets, then in batches:
            addrs = [regions[cacheable].base + o for o in offsets]
            mark = mem.mark()
            if batched:
                mem.access_many(addrs, op, nbytes, agent)
            else:
                for addr in addrs:
                    mem.access(addr, op, nbytes, agent)
            views = [mem.records_since(mark)]
            if then == "drain":
                views.append(mem.drain_trace())
            windows += [(view, list(view)) for view in views]
            if then == "clear":
                collect()
                mem.trace.clear()
        # a view keeps its records while the trace grows and is cleared
        assert all(list(view) == records for view, records in windows)
        windows = [records for _, records in windows]
        trace = list(mem.trace)
        # every start position, inside chunks and past the end
        tails = [list(mem.records_since((k, 0))) for k in range(len(trace) + 2)]
        assert tails == [trace[k:] for k in range(len(trace) + 2)]
        collect()
        return (trace, mem.export_trace_ndjson(), seen, windows, mem.hit_log,
                mem.cache.stats.as_dict(), list(mem.drain_trace()))

    assert run(batched=True) == run(batched=False)


def test_batch_outside_its_region_raises_before_any_record():
    mem = make_mem()
    a = mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE, 256)
    b = mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE, 256)
    c = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 256)
    for addrs in ([a.base, a.base + 64, b.base],        # into the next region
                  [a.base, a.base + 252],              # crosses the region end
                  [c.base, c.base + 64, c.base + 256],  # cacheable, past the end
                  [a.base, mem.capacity - 8]):         # unmapped
        with pytest.raises(RegionError):
            mem.access_many(addrs, "R", 8)
    with pytest.raises(RegionError):
        mem.access_many([a.base], "X", 8)
    assert len(mem.trace) == 0 and mem.trace.chunks == [] and mem.hit_log == []
    assert mem.cache.stats.as_dict() == {"hits": 0, "misses": 0,
                                         "evictions": 0, "writebacks": 0}
