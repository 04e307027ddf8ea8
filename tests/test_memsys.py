"""Memory system: regions, cache behavior against a replay oracle, and
trace semantics."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsim.errors import CapacityError, ConfigError, RegionError
from pimsim.memsys import (Attribute, CacheConfig, MemorySystem, RegionKind,
                           Source, TraceRecord)


def make_mem(**kwargs):
    kwargs.setdefault("capacity", 1 << 20)
    kwargs.setdefault("cache", CacheConfig(capacity=1 << 12, line_bytes=64,
                                           ways=2))
    return MemorySystem(**kwargs)


class ReplayCache:
    """Independent model of a set-associative LRU write-back cache and of
    the rogue prefetcher.  It predicts, request by request, the level that
    serves a cacheable request, its DRAM records, its hits with their ticks
    and the cache counters."""

    def __init__(self, config: CacheConfig, region_end: int, rogue_period=None):
        self.config = config
        self.region_end = region_end
        self.rogue_period = rogue_period  # None: no prefetcher
        self.sets = [[] for _ in range(config.sets)]  # [(line, dirty)] LRU last
        self.dram = []  # (tick, agent, op, addr, nbytes)
        self.hits = []  # (tick, agent, line)
        self.stats = {"hits": 0, "misses": 0, "evictions": 0, "writebacks": 0}
        self.tick = 0
        self.reads = 0

    def _record(self, log, *entry):
        log.append((self.tick, *entry))
        self.tick += 1

    def access(self, addr, op, nbytes, agent="host"):
        lb = self.config.line_bytes
        line = addr - addr % lb
        source = Source.CACHE
        while line < addr + nbytes:
            idx = (line // lb) % self.config.sets
            ways = self.sets[idx]
            entry = next((e for e in ways if e[0] == line), None)
            if entry is not None:
                ways.remove(entry)
                self.stats["hits"] += 1
                self._record(self.hits, agent, line)
            else:
                self.stats["misses"] += 1
                if len(ways) >= self.config.ways:
                    victim, dirty = ways.pop(0)
                    self.stats["evictions"] += 1
                    if dirty:
                        self.stats["writebacks"] += 1
                        self._record(self.dram, agent, "W", victim, lb)
                self._record(self.dram, agent, "R", line, lb)
                entry = (line, False)
                source = Source.DRAM
            if op == "W":
                entry = (line, True)
            ways.append(entry)
            line += lb
        if self.rogue_period and op == "R" and agent != "prefetcher":
            self.reads += 1
            if self.reads % self.rogue_period == 0 and addr + 2 * nbytes <= self.region_end:
                self.access(addr + nbytes, "R", nbytes, "prefetcher")
        return source


ORACLE_LINES = 40  # lines in the region of the oracle property


@settings(max_examples=150, deadline=None)
@given(st.integers(16, 128), st.integers(1, 4), st.integers(1, 8),
       st.one_of(st.none(), st.integers(1, 5)), st.data())
def test_cacheable_trace_matches_replay_oracle(line_bytes, ways, sets, rogue_period, data):
    config = CacheConfig(capacity=line_bytes * ways * sets, line_bytes=line_bytes, ways=ways)
    mem = make_mem(cache=config, rogue_prefetcher=rogue_period is not None,
                   rogue_period=rogue_period or 64)
    size = ORACLE_LINES * line_bytes
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, size,
                                 name="data")
    oracle = ReplayCache(config, region.base + size, rogue_period)

    # a request starts anywhere, or at the ends where the prefetcher's next
    # block just fits ("fits") or does not ("last", "over")
    requests = data.draw(st.lists(st.tuples(
        st.one_of(st.integers(0, size), st.sampled_from(["last", "fits", "over"])),
        st.integers(1, 3 * line_bytes), st.sampled_from("RW"),
        st.sampled_from(["host", "copy", "prefetcher"])), min_size=1, max_size=120),
        label="requests")
    for at, nbytes, op, agent in requests:
        last = size - nbytes
        ends = {"last": last, "fits": last - nbytes, "over": last - nbytes + 1}
        offset = ends[at] if isinstance(at, str) else min(at, last)
        mark, n_records, n_hits = mem.mark(), len(oracle.dram), len(oracle.hits)
        assert mem.access(region.base + offset, op, nbytes, agent) is \
            oracle.access(region.base + offset, op, nbytes, agent)
        assert list(mem.records_since(mark)) == oracle.dram[n_records:]
        assert mem.hits_since(mark) == oracle.hits[n_hits:]
        assert mem.cache.stats.as_dict() == oracle.stats


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


@pytest.mark.parametrize("attribute", list(Attribute))
def test_rogue_prefetcher_reads_the_next_block_only_when_it_fits(attribute):
    mem = make_mem(rogue_prefetcher=True, rogue_period=1)
    region = mem.allocate_region(RegionKind.GENERAL, attribute, 256)
    end = region.base + region.size
    for start in (end - 16, end - 15, end - 8):  # the next block fits only at end - 16
        mem.access(start, "R", 8)
    # one read of the block at end - 8: from DRAM, or a hit on its 64 B line
    prefetched = ([r.addr for r in mem.trace if r.agent == "prefetcher"]
                  + [h.line_addr for h in mem.hit_log if h.agent == "prefetcher"])
    assert prefetched == [end - 8 if attribute is Attribute.NON_CACHEABLE else end - 64]


def test_trace_export_is_valid_ndjson():
    mem = make_mem()
    region = mem.allocate_region(RegionKind.GENERAL,
                                 Attribute.NON_CACHEABLE, 4096)
    mem.access(region.base, "R", 4, agent="x")
    text = mem.export_trace_ndjson()
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert rows == [{"tick": 0, "agent": "x", "op": "R",
                     "addr": region.base, "bytes": 4}]


# sha256 of the trace export, hit log and counters of the fixed sequence
# below: any change to what the cacheable path records changes it
FIXED_SEQUENCE_SHA256 = "62b0c68e671c15cbb11ff1e4dadffb09e77c43e4450491d03c9203f9ed7238c2"


def test_fixed_sequence_is_deterministic():
    def run():
        mem = make_mem(rogue_prefetcher=True, rogue_period=3)
        region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE,
                                     8192)
        rng = np.random.default_rng(5)
        for addr, write, nbytes in zip(rng.integers(0, 8000, size=300),
                                       rng.random(300) < 0.4,
                                       rng.integers(1, 100, size=300)):
            mem.access(region.base + int(addr), "W" if write else "R", int(nbytes))
        assert mem.cache.stats.writebacks > 0
        text = (mem.export_trace_ndjson()
                + "".join(json.dumps(h._asdict()) + "\n" for h in mem.hit_log)
                + json.dumps(mem.cache.stats.as_dict()))
        return hashlib.sha256(text.encode()).hexdigest()

    assert run() == run() == FIXED_SEQUENCE_SHA256


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
                              st.sampled_from(["", "clear"])),
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
            view = mem.records_since(mark)
            windows.append((view, list(view)))
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
                mem.cache.stats.as_dict())

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


def test_request_below_one_byte_raises_before_any_record():
    mem = make_mem()
    regions = [mem.allocate_region(RegionKind.GENERAL, attr, 256)
               for attr in (Attribute.NON_CACHEABLE, Attribute.CACHEABLE)]
    for nbytes in (0, -8):
        for region in regions:
            with pytest.raises(RegionError):
                mem.access(region.base, "R", nbytes)
            with pytest.raises(RegionError):
                mem.access_many([region.base, region.base + 64], "W", nbytes)
        with pytest.raises(RegionError):
            mem.access_many([], "R", nbytes)
    assert len(mem.trace) == 0 and mem.hit_log == []
    assert mem.cache.stats.as_dict() == {"hits": 0, "misses": 0,
                                         "evictions": 0, "writebacks": 0}


@pytest.mark.parametrize("rogue", [False, True])
@pytest.mark.parametrize("period", [0, -3, 2.5])
def test_rogue_period_below_one_is_rejected(rogue, period):
    with pytest.raises(ConfigError):
        make_mem(rogue_prefetcher=rogue, rogue_period=period)


@pytest.mark.parametrize("kwargs", [
    {"ways": 0}, {"line_bytes": 0}, {"capacity": 0},
    {"capacity": 64, "line_bytes": 64, "ways": 2},  # zero sets
    {"capacity": -4096}, {"line_bytes": -64}, {"ways": -1},
    {"line_bytes": 64.0}, {"ways": True}])
def test_cache_geometry_the_model_cannot_run_is_rejected(kwargs):
    with pytest.raises(ConfigError):
        CacheConfig(**kwargs)


def test_smallest_cache_geometry_runs():
    mem = make_mem(cache=CacheConfig(capacity=1, line_bytes=1, ways=1))
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 64)
    assert mem.access(region.base, "W", 2) is Source.DRAM
    assert mem.access(region.base + 1, "R", 1) is Source.CACHE
    assert mem.cache.stats.as_dict() == {"hits": 1, "misses": 2,
                                         "evictions": 1, "writebacks": 1}
