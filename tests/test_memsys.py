"""Memory system: regions, cache behavior against a replay oracle, and
trace semantics."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsim.errors import CapacityError, ConfigError, RegionError
from pimsim.memsys import (TAIL_FLUSH, Attribute, CacheConfig, HitRecord,
                           MemorySystem, RegionKind, Source, TraceRecord)


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
    mem = make_mem(cache=config, rogue_period=rogue_period)
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
    mem = make_mem()
    a = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 100)
    b = mem.allocate_region(RegionKind.CONTIGUOUS_POOL,
                            Attribute.NON_CACHEABLE, 4096)
    assert b.base >= a.base + a.size and b.kind is RegionKind.CONTIGUOUS_POOL
    assert mem.region_at(b.base + 10) is b
    with pytest.raises(RegionError):
        mem.region_at(mem.capacity - 1)
    with pytest.raises(RegionError):
        mem.access(a.base + 96, "R", 8)  # crosses region end
    with pytest.raises(CapacityError):  # past the capacity, whatever the kind
        mem.allocate_region(RegionKind.CONTIGUOUS_POOL,
                            Attribute.NON_CACHEABLE, mem.capacity - b.base)


@pytest.mark.parametrize("kind, attribute, size, align", [
    (RegionKind.GENERAL, "non_cacheable", 64, None),
    ("contiguous_pool", Attribute.NON_CACHEABLE, 64, None),
    (RegionKind.GENERAL, Attribute.CACHEABLE, 100.5, None),
    (RegionKind.GENERAL, Attribute.CACHEABLE, True, None),
    (RegionKind.GENERAL, Attribute.CACHEABLE, 64, 0),
    (RegionKind.GENERAL, Attribute.CACHEABLE, 64, -64),
], ids=["string-attribute", "string-kind", "fractional-size", "bool-size",
        "zero-align", "negative-align"])
def test_malformed_region_is_rejected(kind, attribute, size, align):
    """A region the memory system cannot serve as asked is rejected before
    any allocation: a string attribute would be cached, and a string kind
    would label the region with no ``RegionKind``."""
    mem = make_mem()
    with pytest.raises(RegionError):
        mem.allocate_region(kind, attribute, size, align=align)
    assert mem.regions == []
    # NumPy integers are sizes and alignments
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE,
                                 np.int64(100), align=np.uint8(128))
    assert (region.base, region.size) == (0, 100)


def test_negative_capacity_is_rejected():
    with pytest.raises(ConfigError):
        MemorySystem(capacity=-5)


@pytest.mark.parametrize("attribute", list(Attribute))
@pytest.mark.parametrize("addr", [2.5, True, np.float64(64.0)],
                         ids=["fractional", "bool", "numpy-float"])
def test_address_that_is_no_integer_is_rejected(attribute, addr):
    mem = make_mem()
    mem.allocate_region(RegionKind.GENERAL, attribute, 256)
    with pytest.raises(RegionError):
        mem.access(addr, "R", 8)
    assert len(mem.trace) == 0 and list(mem.hit_log) == []
    assert mem.access(np.int64(64), "R", 8) is Source.DRAM
    mem.access(np.uint16(64), "R", 8)  # a hit, when cacheable
    assert [type(h.line_addr) for h in mem.hit_log] == [int] * len(mem.hit_log)


@pytest.mark.parametrize("attribute", list(Attribute))
@pytest.mark.parametrize("op", [np.array(["R", "W"]), np.array(["R"]),
                                np.array("W"), ["R"], b"R", None, "r", [True]],
                         ids=["array", "one-item-array", "0-d-array", "list",
                              "bytes", "none", "lower-case", "bool-list"])
def test_op_that_is_no_r_or_w_string_is_rejected(attribute, op):
    """Any op but the string "R" or "W" raises before any record; an array,
    whose comparison with "R" has no single truth value, and a write flag,
    which only ``access_many`` takes and only as a bool array, included."""
    mem = make_mem()
    mem.allocate_region(RegionKind.GENERAL, attribute, 256)
    with pytest.raises(RegionError, match="op must be"):
        mem.access(0, op, 8)
    assert len(mem.trace) == 0 and list(mem.hit_log) == []
    assert mem.cache.stats.as_dict() == {"hits": 0, "misses": 0,
                                         "evictions": 0, "writebacks": 0}
    assert mem.access(0, np.str_("W"), 8) is Source.DRAM
    assert [r.op for r in mem.trace][-1] in ("R", "W")


@pytest.mark.parametrize("attribute", list(Attribute))
def test_stream_of_fractional_addresses_is_rejected(attribute):
    mem = make_mem()
    mem.allocate_region(RegionKind.GENERAL, attribute, 256)
    with pytest.raises(RegionError):
        mem.access_many([2.5, 64.7], "R", 8)
    with pytest.raises(RegionError):
        mem.access_many(np.array([True, False]), "R", 8)
    for addrs in ([True, 64], [64, np.True_], ([0], [False])):  # NumPy casts these to 0 or 1
        with pytest.raises(RegionError):
            mem.access_many(addrs, "R", 8)
    assert len(mem.trace) == 0 and list(mem.hit_log) == []
    # an empty stream is float64 to NumPy, and stays valid
    mem.access_many([], "R", 8)
    mem.access_many(np.array([0, 64], dtype=np.uint32), "R", 8)
    assert [r.addr for r in mem.trace] == [0, 64]


def test_capacity_exhaustion():
    mem = MemorySystem(capacity=1024)
    mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 512)
    with pytest.raises(CapacityError):
        mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 1024)


def test_rogue_prefetcher_injects_next_line_reads():
    mem = make_mem(rogue_period=4)
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
    mem = make_mem(rogue_period=1)
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
        mem = make_mem(rogue_period=3)
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
BATCH_SIZES = (4, 32, 64)
# two adjacent non-cacheable regions, so a run of requests can cross from
# one into the next, and a cacheable one
BATCH_ATTRIBUTES = (Attribute.NON_CACHEABLE, Attribute.NON_CACHEABLE, Attribute.CACHEABLE)
REGIONS = range(len(BATCH_ATTRIBUTES))


def _offsets(nbytes):
    """Offsets into a region of BATCH_REGION bytes for requests of
    ``nbytes``, biased to its end, where the rogue prefetcher's next block
    no longer fits."""
    last = BATCH_REGION - nbytes
    return st.one_of(st.integers(0, last),
                     st.sampled_from([0, last, last - nbytes, last - nbytes + 1]))


@st.composite
def _batches(draw):
    """Batches of requests ``(region, op, size, offset)`` into the regions
    of BATCH_ATTRIBUTES.  A uniform batch shares one op and size, given to
    ``access_many`` as scalars, and one region or a region drawn per
    request.  A mixed one is a few segments of one op and size each, given
    per request, whose requests draw their regions: so its runs change op
    and size, and cross from region to region."""
    batches = []
    for _ in range(draw(st.integers(0, 12))):
        agent = draw(st.sampled_from(["host", "copy"]))
        uniform = draw(st.booleans())
        spread = not uniform or draw(st.booleans())  # a region per request
        requests = []
        for _ in range(1 if uniform else draw(st.integers(1, 4))):
            op, nbytes = draw(st.sampled_from("RW")), draw(st.sampled_from(BATCH_SIZES))
            region = draw(st.sampled_from(REGIONS))
            for _ in range(draw(st.integers(0, 12 if uniform else 6))):
                if spread:
                    region = draw(st.sampled_from(REGIONS))
                requests.append((region, op, nbytes, draw(_offsets(nbytes))))
        scalars = (op, nbytes) if uniform else None
        batches.append((agent, scalars, requests, draw(st.sampled_from(["", "clear"]))))
    return batches


@settings(max_examples=80, deadline=None)
@given(st.none() | st.integers(1, 7), _batches())
def test_access_many_equals_a_sequence_of_access(rogue_period, batches):
    """Each batch issued request by request through ``access``, and through
    ``access_many`` with its ops as strings or, for a mixed batch, as a bool
    write mask, gives the same trace, views, hits and counters."""

    def run(issue):
        mem = make_mem(rogue_period=rogue_period)
        regions = [mem.allocate_region(RegionKind.GENERAL, attr, BATCH_REGION)
                   for attr in BATCH_ATTRIBUTES]
        seen = []  # every record, read from the trace before each clear

        def collect():
            seen.extend(mem.trace)
        windows = []
        for agent, scalars, requests, then in batches:
            addrs = [regions[region].base + o for region, _, _, o in requests]
            ops = [op for _, op, _, _ in requests]
            sizes = [nbytes for _, _, nbytes, _ in requests]
            mark = mem.mark()
            if issue == "access":
                for addr, op, nbytes in zip(addrs, ops, sizes):
                    mem.access(addr, op, nbytes, agent)
            elif scalars:
                mem.access_many(addrs, *scalars, agent)
            elif issue == "mask":
                mem.access_many(addrs, np.array([op == "W" for op in ops], bool), sizes, agent)
            else:
                mem.access_many(addrs, ops, sizes, agent)
            view = mem.records_since(mark)
            windows.append((view, list(view)))
            if then == "clear":
                collect()
                mem.trace.clear()
        # a view keeps its records while the trace grows and is cleared
        assert all(list(view) == records for view, records in windows)
        windows = [records for _, records in windows]
        trace = list(mem.trace)
        # every start position, inside the trace and past its end, as records
        # and as columns, whose write flags are the records' "W" ops and whose
        # agent codes name the records' agents
        tails = [mem.records_since((k, 0)) for k in range(len(trace) + 2)]
        assert [list(t) for t in tails] == [trace[k:] for k in range(len(trace) + 2)]
        assert [[a.tolist(), w.tolist(), [t.agents[c] for c in codes.tolist()]]
                for t in tails for a, w, codes in [t.columns()]] == [
            [[r.addr for r in trace[k:]], [r.op == "W" for r in trace[k:]],
             [r.agent for r in trace[k:]]] for k in range(len(trace) + 2)]
        assert {t.columns()[1].dtype for t in tails} == {np.dtype(bool)}
        collect()
        return (trace, mem.export_trace_ndjson(), seen, windows, list(mem.hit_log),
                mem.cache.stats.as_dict())

    assert run("mask") == run("strings") == run("access")


# a cache of 4 sets of 2 lines: a run of line writes over the cacheable
# region of BATCH_ATTRIBUTES misses on every line and writes back dirty ones
FLUSH_CACHE = CacheConfig(capacity=256, line_bytes=32, ways=2)


@st.composite
def _flush_streams(draw):
    """Steps over the regions of BATCH_ATTRIBUTES: single accesses, the
    batches of ``_batches`` given to ``access_many``, trace clears, and one
    sweep of single line writes over the cacheable region, long enough to
    queue TAIL_FLUSH records or more."""
    single = st.one_of(st.tuples(st.just("access"), st.sampled_from(REGIONS),
                                 st.sampled_from("RW"), st.integers(1, 96),
                                 st.integers(0, BATCH_REGION), st.sampled_from(["host", "copy"])),
                       st.just(("clear",)))
    steps = []
    for agent, scalars, requests, then in draw(_batches()):
        steps += draw(st.lists(single, max_size=4))
        steps.append(("many", agent, scalars, requests))
        steps += [("clear",)] if then else []
    steps += draw(st.lists(single, max_size=4))
    lines = BATCH_REGION // FLUSH_CACHE.line_bytes
    cacheable = BATCH_ATTRIBUTES.index(Attribute.CACHEABLE)
    sweep = [("access", cacheable, "W", FLUSH_CACHE.line_bytes,
              i % lines * FLUSH_CACHE.line_bytes, "host")
             for i in range(draw(st.integers(5, 8)) * lines)]
    at = draw(st.integers(0, len(steps)))
    return steps[:at] + sweep + steps[at:]


@settings(max_examples=60, deadline=None)
@given(st.none() | st.integers(1, 7), _flush_streams())
def test_trace_reads_are_the_same_whenever_the_queue_is_flushed(rogue_period, steps):
    """Single records wait on the trace's tail until it is long or read.
    One stream run with a read after every request, and once with no read
    until the end, leaves the same trace, hits and counters; the records
    read request by request, with the hits, take every tick once."""

    def run(read_each):
        mem = make_mem(cache=FLUSH_CACHE, rogue_period=rogue_period)
        regions = [mem.allocate_region(RegionKind.GENERAL, attr, BATCH_REGION)
                   for attr in BATCH_ATTRIBUTES]
        queued, grow = [], mem.trace.grow

        def counting_grow(n):  # the records queued, past those in the columns
            queued.append(len(mem.trace) - mem.trace._len)
            return grow(n)
        mem.trace.grow = counting_grow
        seen = []  # the ticks of every record and hit, read request by request
        for step in steps:
            mark = mem.mark()
            if step[0] == "clear":
                mem.trace.clear()
                continue
            if step[0] == "access":
                _, region, op, nbytes, offset, agent = step
                mem.access(regions[region].base + min(offset, BATCH_REGION - nbytes),
                           op, nbytes, agent)
            else:
                _, agent, scalars, requests = step
                addrs = [regions[region].base + o for region, _, _, o in requests]
                if scalars:
                    mem.access_many(addrs, *scalars, agent)
                else:
                    mem.access_many(addrs, [r[1] for r in requests],
                                    [r[2] for r in requests], agent)
            if read_each:
                seen += [r.tick for r in mem.records_since(mark)]
                seen += [h.tick for h in mem.hits_since(mark)]
        trace = list(mem.trace)
        assert len(trace) == len(mem.trace)
        return (trace, mem.export_trace_ndjson(), list(mem.hit_log),
                mem.cache.stats.as_dict()), seen, max(queued, default=0)

    eager, seen, _ = run(read_each=True)
    lazy, _, most_queued = run(read_each=False)
    assert lazy == eager
    assert sorted(seen) == list(range(len(seen)))
    assert most_queued >= TAIL_FLUSH


def test_batch_outside_its_region_raises_before_any_record():
    """Each request of a stream must lie inside one region; the stream is
    checked whole, so an invalid last request leaves no record."""
    mem = make_mem()
    a = mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE, 256)
    b = mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE, 256)
    c = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 256)
    for addrs in ([a.base, a.base + 64, b.base + 252],  # crosses into the next region
                  [a.base, a.base + 252],              # crosses the region end
                  [c.base, c.base + 64, c.base + 256],  # cacheable, past the end
                  [a.base, mem.capacity - 8]):         # unmapped
        with pytest.raises(RegionError):
            mem.access_many(addrs, "R", 8)
    with pytest.raises(RegionError):
        mem.access_many([a.base], "X", 8)
    # a bool array is a write mask; bools in a list are no op
    with pytest.raises(RegionError, match="^op must be 'R' or 'W', got True$"):
        mem.access_many([a.base, c.base], [True, False], 8)
    # a whole size past int64 fits no region, and is told so, as one or per request
    for sizes in (2 ** 70, [8, 2 ** 70]):
        with pytest.raises(RegionError, match=f"must fit in an int64, got {2 ** 70}$"):
            mem.access_many([a.base, c.base], "R", sizes)
    # mixed streams over all three regions whose last request is invalid
    valid = [(a.base, "W", 8), (c.base, "R", 64), (b.base, "R", 16), (c.base + 64, "W", 8)]
    for last in [(b.base + 252, "R", 8), (c.base + 200, "W", 64),
                 (mem.capacity - 8, "R", 8), (a.base, "X", 8)]:
        addrs, ops, sizes = zip(*valid, last)
        with pytest.raises(RegionError):
            mem.access_many(addrs, ops, sizes)
    assert len(mem.trace) == 0 and list(mem.trace) == [] and list(mem.hit_log) == []
    assert mem.cache.stats.as_dict() == {"hits": 0, "misses": 0,
                                         "evictions": 0, "writebacks": 0}
    # a stream may go on from one region into the next
    mem.access_many([a.base, a.base + 64, b.base], "R", 8)
    assert [r.addr for r in mem.trace] == [a.base, a.base + 64, b.base]


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
        # a mixed stream whose last request is below one byte
        with pytest.raises(RegionError):
            mem.access_many([regions[0].base, regions[1].base, regions[0].base + 64],
                            ["W", "R", "R"], [8, 64, nbytes])
    assert len(mem.trace) == 0 and list(mem.hit_log) == []
    assert mem.cache.stats.as_dict() == {"hits": 0, "misses": 0,
                                         "evictions": 0, "writebacks": 0}


@pytest.mark.parametrize("sizes", [[8, 2.5], [True, True], 2.5, True,
                                   ["8", "8"], [8, None]])
def test_per_request_sizes_must_be_whole_bytes(sizes):
    """A size that is no whole number of bytes is rejected on either
    attribute, per request or for all, by ``access_many`` and by a scalar
    ``access``."""
    mem = make_mem()
    for attribute in (Attribute.NON_CACHEABLE, Attribute.CACHEABLE):
        region = mem.allocate_region(RegionKind.GENERAL, attribute, 256)
        with pytest.raises(RegionError):
            mem.access_many([region.base, region.base + 64], "R", sizes)
        if np.ndim(sizes) == 0:
            with pytest.raises(RegionError):
                mem.access(region.base, "R", sizes)
    # an empty stream has no size to reject; numpy integers are whole bytes
    mem.access_many([], "R", [])
    assert len(mem.trace) == 0 and list(mem.hit_log) == []
    mem.access_many([region.base], "R", np.array([8], dtype=np.uint8))
    assert mem.access(region.base, "R", np.int64(8)) is Source.CACHE
    assert region.base + 8 > 255 and mem.access(region.base + 8, "R", np.uint8(8)) is Source.CACHE


# invalid single requests into a non-cacheable region [0, 256) followed by a
# cacheable one [256, 512): each breaks one rule of the address, op or size
INVALID_REQUESTS = {
    "address-past-int64": (2 ** 70, "R", 8),
    "address-below-int64": (-2 ** 70, "R", 8),
    "uint64-address-past-int64": (np.uint64(2 ** 63), "R", 8),
    "negative-address": (-8, "R", 8),
    "bool-address": (True, "R", 8),
    "float-address": (2.5, "R", 8),
    "numpy-float-address": (np.float64(64.0), "R", 8),
    "string-address": ("0", "R", 8),
    "unmapped-address": ((1 << 20) - 8, "R", 8),
    "op-x": (0, "X", 8),
    "bytes-op": (0, b"R", 8),
    "numpy-bytes-op": (0, np.bytes_(b"R"), 8),
    "none-op": (0, None, 8),
    "bool-op": (0, True, 8),
    "numpy-bool-op": (0, np.True_, 8),
    "0-d-bool-array-op": (0, np.array(True), 8),
    "size-past-int64": (0, "R", 2 ** 70),
    "uint64-size-past-int64": (0, "R", np.uint64(2 ** 63)),
    "zero-size": (0, "R", 0),
    "negative-size": (0, "R", -8),
    "float-size": (0, "R", 8.0),
    "bool-size": (0, "R", True),
    "numpy-bool-size": (0, "R", np.True_),
    "crossing": (252, "R", 8),
    "cacheable-crossing": (506, "W", 8),
    "crossing-past-int64": (128, "R", 2 ** 63 - 64),
}


@pytest.mark.parametrize("addr, op, nbytes", INVALID_REQUESTS.values(),
                         ids=INVALID_REQUESTS.keys())
def test_access_and_access_many_reject_a_request_alike(addr, op, nbytes):
    """``access(a, o, n)`` and ``access_many([a], o, n)`` check a request by
    the same rules: an invalid one gets the same ``RegionError`` from both,
    and changes no record, hit or counter."""
    messages = []
    for issue in (lambda mem: mem.access(addr, op, nbytes),
                  lambda mem: mem.access_many([addr], op, nbytes)):
        mem = make_mem()
        for attribute in (Attribute.NON_CACHEABLE, Attribute.CACHEABLE):
            mem.allocate_region(RegionKind.GENERAL, attribute, 256)
        mem.access_many([0, 256, 256], "R", 64)  # a record, a fill and a hit
        before = (list(mem.trace), list(mem.hit_log), mem.cache.stats.as_dict())
        with pytest.raises(RegionError) as raised:
            issue(mem)
        messages.append(str(raised.value))
        assert (list(mem.trace), list(mem.hit_log), mem.cache.stats.as_dict()) == before
    assert messages[0] == messages[1]
    assert "np." not in messages[0]  # a NumPy value is named as Python holds it
    if isinstance(addr, np.uint64):  # an unsigned address never wraps to a negative one
        assert "-" not in messages[0]
        mem = make_mem()
        mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE, 256)
        with pytest.raises(RegionError, match=f"got {int(addr)}$"):
            mem.access_many(np.array([0, addr], np.uint64), "R", 8)


@pytest.mark.parametrize("rogue_period", [None, 3])
@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_numpy_integer_requests_equal_int_requests(rogue_period, dtype):
    """A NumPy integer address or size is the int it holds: the same
    sources, trace, hit log and counters as the same requests in ints."""
    requests = [(0, "R", 8), (256, "W", 96), (256, "R", 8), (320, "R", 64),
                (64, "W", 32), (448, "W", 8), (384, "R", 128), (260, "R", 4)]
    runs = []
    for as_numpy in (False, True):
        mem = make_mem(rogue_period=rogue_period)
        for attribute in (Attribute.NON_CACHEABLE, Attribute.CACHEABLE):
            mem.allocate_region(RegionKind.GENERAL, attribute, 256)
        sources = [mem.access(dtype(a) if as_numpy else a, op, dtype(n) if as_numpy else n)
                   for a, op, n in requests]
        runs.append((sources, list(mem.trace), list(mem.hit_log), mem.cache.stats.as_dict()))
    assert runs[0] == runs[1]
    assert [type(h.line_addr) for h in runs[1][2]] == [int] * len(runs[1][2]) != []
    assert [type(r.addr) for r in runs[1][1]] == [int] * len(runs[1][1])


@pytest.mark.parametrize("addr, nbytes, message", [
    (np.uint64(2 ** 63), 8, "addresses must fit in an int64, got 9223372036854775808"),
    (0, np.uint64(2 ** 63), "request sizes must fit in an int64, got 9223372036854775808"),
    (np.True_, 8, "addresses must be integers, got True"),
    (0, np.False_, "request sizes must be whole bytes >= 1, got False"),
], ids=["uint64-address", "uint64-size", "bool-address", "bool-size"])
def test_numpy_request_that_no_int64_holds_is_rejected(addr, nbytes, message):
    """A uint64 past int64 and a NumPy bool are rejected with the messages
    of ``_requests``; no record, hit or counter changes."""
    mem = make_mem()
    mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 256)
    with pytest.raises(RegionError) as raised:
        mem.access(addr, "R", nbytes)
    assert str(raised.value) == message
    assert len(mem.trace) == 0 and list(mem.hit_log) == []
    assert mem.cache.stats.as_dict() == {"hits": 0, "misses": 0,
                                         "evictions": 0, "writebacks": 0}


@pytest.mark.parametrize("ops, sizes, message", [
    pytest.param("R", [], "nbytes has 0 values for 2 requests", id="R-sizes0"),
    pytest.param(["R", "W", "R"], 8, "op has 3 values for 2 requests", id="ops1-8"),
    pytest.param(["R"], [8, 8], "op has 1 values for 2 requests", id="ops2-sizes2"),
    pytest.param(np.array([True, False, True]), 8, "op has 3 values for 2 requests",
                 id="long-write-mask"),
    pytest.param(np.array([[True]]), 8, "op has 1 values for 2 requests",
                 id="short-2-d-write-mask")])
def test_per_request_values_must_match_the_addresses(ops, sizes, message):
    """A per-request op or size list, or a write mask, has one entry per
    address; any other length is rejected before any record, not
    broadcast."""
    mem = make_mem()
    for attribute in (Attribute.NON_CACHEABLE, Attribute.CACHEABLE):
        region = mem.allocate_region(RegionKind.GENERAL, attribute, 256)
        with pytest.raises(RegionError, match=f"^{message}$"):
            mem.access_many([region.base, region.base + 64], ops, sizes)
    assert len(mem.trace) == 0 and list(mem.hit_log) == []
    assert mem.cache.stats.as_dict() == {"hits": 0, "misses": 0,
                                         "evictions": 0, "writebacks": 0}


def test_hit_log_reads_like_a_list_of_hit_records():
    mem = make_mem()
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 4096)
    mem.access(region.base, "W", 128, agent="a")  # two fills, ticks 0 and 1
    mem.access(region.base, "R", 128, agent="b")  # two hits
    mark = mem.mark()
    mem.access(region.base + 64, "W", 8, agent="c")  # one more hit
    expected = [HitRecord(2, "b", region.base), HitRecord(3, "b", region.base + 64),
                HitRecord(4, "c", region.base + 64)]
    assert [type(h) for h in mem.hit_log] == [HitRecord] * 3
    assert list(mem.hit_log) == expected and len(mem.hit_log) == 3
    assert mem.hits_since(mark) == list(mem.hit_log)[mark[1]:] == expected[2:]
    mem.hit_log.clear()
    assert len(mem.hit_log) == 0 and list(mem.hit_log) == []
    assert mem.mark() == (2, 0)
    # positions in the log count from the clear, as a list's would
    assert mem.hits_since(mark) == [] and mem.hits_since((0, 0)) == []
    mem.access(region.base, "R", 128, agent="d")  # hits at ticks 5 and 6
    mem.access(region.base, "R", 64, agent="e")  # hit at tick 7
    after = [HitRecord(5, "d", region.base), HitRecord(6, "d", region.base + 64),
             HitRecord(7, "e", region.base)]
    assert list(mem.hit_log) == after
    assert mem.hits_since(mark) == after[mark[1]:] == after[2:]
    assert mem.hits_since((0, 0)) == after and mem.hits_since((0, 3)) == []


def test_one_set_matches_the_replay_oracle_over_a_long_stream():
    """One 16-way set under 20,000 mixed requests over 24 lines: each hit
    takes its line out of the set's dict and puts it back last, so the set
    is rebuilt many times.  Its order, with the dirty bits, and every
    source, record, hit and counter stay those of the replay oracle."""
    config = CacheConfig(capacity=16 * 64, line_bytes=64, ways=16)  # one set
    mem = make_mem(cache=config)
    region = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 24 * 64)
    oracle = ReplayCache(config, region_end=None)
    rng = np.random.default_rng(30)
    lines, ops, sizes, agents = (rng.integers(0, 24, 20_000), rng.choice(["R", "W"], 20_000),
                                 rng.integers(1, 129, 20_000), rng.choice(["a", "b"], 20_000))
    for line, op, nbytes, agent in zip(lines.tolist(), ops.tolist(), sizes.tolist(),
                                       agents.tolist()):
        addr = region.base + min(line * 64 + nbytes % 64, region.size - nbytes)
        assert mem.access(addr, op, nbytes, agent) is oracle.access(addr, op, nbytes, agent)
    assert mem.cache.stats.as_dict() == oracle.stats
    assert oracle.stats["hits"] > 10_000 and oracle.stats["writebacks"] > 1_000
    assert list(mem.cache.sets[0].items()) == oracle.sets[0]
    assert list(mem.trace) == oracle.dram and list(mem.hit_log) == oracle.hits


def test_snapshots_do_not_change_after_more_accesses_or_a_clear():
    mem = make_mem(cache=CacheConfig(capacity=2 * 64, line_bytes=64, ways=2))  # one set
    pool = mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE, 4096)
    data = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 4096)
    mem.access(data.base, "W", 64)
    mem.access(pool.base, "R", 8)
    mark = mem.mark()
    mem.access(data.base, "R", 64)  # hit
    mem.access(data.base + 64, "R", 64)  # fill
    mem.access_many([pool.base, pool.base + 8], "W", 8)
    view, hits = mem.records_since(mark), mem.hits_since(mark)
    records, hit_records = list(view), list(hits)
    assert len(records) == 3 and hit_records == [HitRecord(2, "host", data.base)]
    mem.access(data.base + 128, "R", 64)  # evicts the dirty line: write-back, fill
    mem.access(data.base + 64, "R", 64)  # hit
    assert list(view) == records and hits == hit_records
    mem.trace.clear()
    mem.hit_log.clear()
    assert list(view) == records and len(view) == 3 and hits == hit_records


def test_agent_names_survive_their_codes():
    """The trace stores agent codes; its records, columns and NDJSON export
    name the agents, also for a view taken before a clear and for an agent
    first seen after it."""
    mem = make_mem(cache=CacheConfig(capacity=2 * 64, line_bytes=64, ways=2))  # one set
    pool = mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE, 4096)
    data = mem.allocate_region(RegionKind.GENERAL, Attribute.CACHEABLE, 4096)
    mem.access(pool.base, "R", 8)  # a tail of one agent
    mem.access_many([pool.base + 8, pool.base + 16], "W", 8, "copy")
    mem.access(pool.base, "W", 8, "copy")  # a tail of several agents
    mem.access(data.base, "R", 64, "probe")
    before = mem.records_since((0, 0))
    names = ["host", "copy", "copy", "copy", "probe"]
    assert [r.agent for r in before] == names
    export = mem.export_trace_ndjson(before)
    mem.trace.clear()
    mem.access(pool.base + 24, "R", 8, "late")  # first seen after the clear
    mem.access_many(np.array([pool.base + 32]), "R", 8)
    after = mem.records_since((0, 0))
    assert [r.agent for r in before] == names
    assert mem.export_trace_ndjson(before) == export == "".join(
        json.dumps({"tick": r.tick, "agent": agent, "op": r.op, "addr": r.addr,
                    "bytes": r.nbytes}, sort_keys=True) + "\n"
        for r, agent in zip(before, names))
    assert list(after) == [TraceRecord(5, "late", "R", pool.base + 24, 8),
                           TraceRecord(6, "host", "R", pool.base + 32, 8)]
    assert [json.loads(line)["agent"] for line in
            mem.export_trace_ndjson().splitlines()] == ["late", "host"]
    for view, agents in ((before, names), (after, ["late", "host"])):
        codes = view.columns()[2]
        assert [view.agents[c] for c in codes.tolist()] == agents
        assert [view.agent_code(a) for a in agents] == codes.tolist()
    assert after.agent_code("prefetcher") == -1


@st.composite
def _region_layouts(draw):
    """Regions of both attributes, each aligned so that most leave a gap
    before the next, and a stream of steps over them: each step a valid
    request into one region, then, for some, a request into the gap after
    it or one that crosses its end."""
    regions = [(draw(st.sampled_from(list(Attribute))), draw(st.integers(1, 700)),
                draw(st.sampled_from([None, 16, 256]))) for _ in range(draw(st.integers(2, 5)))]
    steps = draw(st.lists(st.tuples(
        st.integers(0, len(regions) - 1), st.integers(1, 130), st.sampled_from("RW"),
        st.sampled_from(["host", "copy"]), st.integers(0, 10_000),
        st.sampled_from(["", "", "gap", "cross"])), min_size=1, max_size=60))
    return regions, steps


@settings(max_examples=100, deadline=None)
@given(_region_layouts())
def test_region_memo_matches_the_replay_oracle(layout):
    """``access`` remembers the last region it resolved.  Interleaved over
    regions with gaps between them, it must give the records, hits and
    counters of the replay oracle, which knows nothing of regions but the
    test's own list, and reject a gap or a crossing request just after an
    access to its neighbour, before any record."""
    config = CacheConfig(capacity=64 * 2 * 4, line_bytes=64, ways=2)
    mem = make_mem(cache=config)
    regions = [mem.allocate_region(RegionKind.GENERAL, attribute, size, align=align)
               for attribute, size, align in layout[0]]
    oracle = ReplayCache(config, region_end=None)
    for i, nbytes, op, agent, at, then in layout[1]:
        region = regions[i]
        end = region.base + region.size
        nbytes = min(nbytes, region.size)
        addr = region.base + at % (region.size - nbytes + 1)
        mark, n_records, n_hits = mem.mark(), len(oracle.dram), len(oracle.hits)
        if region.attribute is Attribute.NON_CACHEABLE:
            oracle._record(oracle.dram, agent, op, addr, nbytes)
            expected = Source.DRAM
        else:
            expected = oracle.access(addr, op, nbytes, agent)
        assert mem.access(addr, op, nbytes, agent) is expected
        assert list(mem.records_since(mark)) == oracle.dram[n_records:]
        assert mem.hits_since(mark) == oracle.hits[n_hits:]
        assert mem.cache.stats.as_dict() == oracle.stats
        next_base = regions[i + 1].base if i + 1 < len(regions) else mem.capacity
        if then == "gap" and next_base > end:
            addr, nbytes = end + at % (next_base - end), 1
        elif then == "cross":
            addr, nbytes = max(region.base, end - 1 - at % 63), 64
        else:
            continue
        mark = mem.mark()
        with pytest.raises(RegionError):
            mem.access(addr, op, nbytes, agent)
        assert mem.mark() == mark and mem.cache.stats.as_dict() == oracle.stats
    assert list(mem.trace) == oracle.dram and list(mem.hit_log) == oracle.hits


@pytest.mark.parametrize("default_cache", [False, True])
@pytest.mark.parametrize("period", [0, -3, 2.5])
def test_rogue_period_below_one_is_rejected(default_cache, period):
    """A period below one or not whole is rejected, whatever the cache;
    None means no prefetcher."""
    with pytest.raises(ConfigError):
        if default_cache:
            make_mem(cache=None, rogue_period=period)
        else:
            make_mem(rogue_period=period)


@pytest.mark.parametrize("period", [True, "4", np.int64(0)],
                         ids=["bool", "string", "numpy-zero"])
def test_rogue_period_that_is_no_integer_is_rejected(period):
    with pytest.raises(ConfigError):
        make_mem(rogue_period=period)


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
