"""Cacheable / non-cacheable regions, the host cache, and the memory
controller boundary.

The command trace records exactly the requests that reach DRAM: every
access to a non-cacheable region, cache line fills, and dirty-line
write-backs.  Cache hits never appear in the trace, which is precisely
what makes cacheable placement of PIM weights hazardous: reads absorbed
by the cache cannot trigger PIM execution.

The trace is columnar: a batch of non-cacheable requests is stored as one
chunk of consecutive ticks with an address array.  ``TraceRecord``s are
built only when the trace is iterated.  The trace is the only record of
what reached DRAM: the PIM engine decodes its MAC triggers from the chunks
appended to it.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left, bisect_right
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, RegionError

ALLOC_ALIGN = 64  # default region alignment in bytes


class Attribute(enum.Enum):
    CACHEABLE = "cacheable"
    NON_CACHEABLE = "non_cacheable"


class RegionKind(enum.Enum):
    GENERAL = "general"
    CONTIGUOUS_POOL = "contiguous_pool"


class Source(enum.Enum):
    CACHE = "cache"
    DRAM = "dram"


@dataclass(frozen=True)
class MemoryRegion:
    name: str
    base: int
    size: int
    attribute: Attribute
    kind: RegionKind

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    @property
    def is_non_cacheable(self) -> bool:
        return self.attribute is Attribute.NON_CACHEABLE


class TraceRecord(NamedTuple):
    tick: int
    agent: str
    op: str  # "R" or "W"
    addr: int
    nbytes: int


class TraceChunk(NamedTuple):
    """Requests of one agent and op at consecutive ticks from ``tick``."""

    tick: int
    agent: str
    op: str
    addrs: np.ndarray  # int64, one address per request
    nbytes: int


class TraceView:
    """Records ``start`` up to ``stop`` of a trace, built as they are
    iterated.  The view holds only the chunks it covers, so it does not
    change, or keep the rest of the trace alive, when the trace grows or
    is cleared."""

    def __init__(self, chunks: list[TraceChunk], ends: list[int], start: int, stop: int):
        start = min(start, stop)
        first = bisect_right(ends, start)
        last = bisect_left(ends, stop) + 1 if start < stop else first
        self._chunks, self._ends = chunks[first:last], ends[first:last]
        self._base = ends[first - 1] if first else 0  # position of the first chunk
        self._start, self._stop = start, stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self):
        pos = self._base
        for c, end in zip(self._chunks, self._ends):
            lo = max(self._start - pos, 0)
            for tick, addr in enumerate(c.addrs[lo:self._stop - pos].tolist(), c.tick + lo):
                yield TraceRecord(tick, c.agent, c.op, addr, c.nbytes)
            pos = end

    def __eq__(self, other):
        if isinstance(other, (TraceView, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


class CommandTrace:
    """The DRAM command trace, as chunks with a cumulative-end index."""

    def __init__(self):
        self.clear()

    def clear(self):
        """Drop every record.  Not to be called inside a GEMV job: the
        engine finds the job's reads by their position in ``chunks``."""
        self.chunks: list[TraceChunk] = []
        self._ends: list[int] = []  # records up to the end of each chunk
        self._len = 0

    def append(self, chunk: TraceChunk):
        self._len += len(chunk.addrs)
        self.chunks.append(chunk)
        self._ends.append(self._len)

    def __len__(self) -> int:
        return self._len

    def view(self, start: int = 0) -> TraceView:
        """Records from position ``start`` to the current end."""
        return TraceView(self.chunks, self._ends, start, self._len)

    def __iter__(self):
        return iter(self.view())


class HitRecord(NamedTuple):
    tick: int
    agent: str
    line_addr: int


@dataclass
class CacheConfig:
    capacity: int = 8 * 1024 * 1024
    line_bytes: int = 64
    ways: int = 16

    @property
    def sets(self) -> int:
        return self.capacity // (self.line_bytes * self.ways)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "writebacks": self.writebacks}


class _Cache:
    """Set-associative LRU cache, write-back / write-allocate."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets = defaultdict(OrderedDict)  # set index -> set, made on first use
        self.stats = CacheStats()
        self._line_bytes, self._n_sets = config.line_bytes, config.sets

    def line_of(self, addr: int) -> int:
        return addr - (addr % self._line_bytes)

    def _set_of(self, line_addr: int) -> OrderedDict:
        return self.sets[(line_addr // self._line_bytes) % self._n_sets]

    def lookup(self, line_addr: int) -> bool:
        s = self._set_of(line_addr)
        if line_addr in s:
            s.move_to_end(line_addr)
            return True
        return False

    def fill(self, line_addr: int) -> int | None:
        """Insert a line; returns the address of an evicted dirty line, if any."""
        s = self._set_of(line_addr)
        victim = None
        if len(s) >= self.config.ways:
            evicted, dirty = s.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                victim = evicted
        s[line_addr] = False
        return victim

    def mark_dirty(self, line_addr: int):
        s = self._set_of(line_addr)
        s[line_addr] = True
        s.move_to_end(line_addr)


def _check_op(op: str):
    if op not in ("R", "W"):
        raise RegionError(f"op must be 'R' or 'W', got {op!r}")


class MemorySystem:
    """Single-address-space memory system shared by all logical agents.

    Accesses are serialized into one total order; determinism for a fixed
    access sequence is guaranteed.  An optional "rogue prefetcher" mode
    injects one extra sequential read every ``rogue_period`` reads, of the
    next block when it lies in the same region, to model a prefetcher
    that disrupts PIM command synchronization.
    """

    def __init__(self, capacity: int, cache: CacheConfig | None = None,
                 contiguous_pool_cap: int | None = None,
                 rogue_prefetcher: bool = False, rogue_period: int = 64):
        self.capacity = capacity
        self.cache = _Cache(cache or CacheConfig())
        self.contiguous_pool_cap = contiguous_pool_cap
        self.rogue_prefetcher = rogue_prefetcher
        self.rogue_period = rogue_period
        self.regions: list[MemoryRegion] = []
        self._bases: list[int] = []  # region bases, ascending
        self.trace = CommandTrace()
        self.hit_log: list[HitRecord] = []
        self._next_base = 0
        self._pool_used = 0
        self._tick = 0
        self._drain_mark = 0
        self._reads_seen = 0

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def allocate_region(self, kind: RegionKind, attribute: Attribute,
                        size: int, name: str | None = None,
                        align: int | None = None) -> MemoryRegion:
        if size <= 0:
            raise RegionError(f"region size must be positive, got {size}")
        align = align or ALLOC_ALIGN
        base = -(-self._next_base // align) * align
        if base + size > self.capacity:
            raise CapacityError(
                f"region of {size} bytes does not fit "
                f"(base {base:#x}, capacity {self.capacity:#x})")
        if kind is RegionKind.CONTIGUOUS_POOL and self.contiguous_pool_cap is not None:
            if self._pool_used + size > self.contiguous_pool_cap:
                raise CapacityError(
                    f"contiguous pool exhausted: requested {size} bytes, "
                    f"{self.contiguous_pool_cap - self._pool_used} remaining")
        region = MemoryRegion(name or f"region{len(self.regions)}",
                              base, size, attribute, kind)
        self.regions.append(region)
        self._bases.append(base)
        self._next_base = base + size
        if kind is RegionKind.CONTIGUOUS_POOL:
            self._pool_used += size
        return region

    def region_at(self, addr: int) -> MemoryRegion:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and self.regions[i].contains(addr):
            return self.regions[i]
        raise RegionError(f"unmapped address {addr:#x}")

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def _emit(self, agent: str, op: str, addrs: np.ndarray, nbytes: int):
        self.trace.append(TraceChunk(self._tick, agent, op, addrs, nbytes))
        self._tick += len(addrs)

    def _region_of(self, op: str, lo: int, hi: int, nbytes: int) -> MemoryRegion:
        """The region holding requests from ``lo`` to ``hi`` inclusive."""
        _check_op(op)
        region = self.region_at(lo)
        if hi + nbytes > region.base + region.size:
            raise RegionError(f"access [{hi:#x}, +{nbytes}) crosses region end")
        return region

    def access(self, addr: int, op: str, nbytes: int, agent: str = "host") -> Source:
        """Issue one request; returns which level serviced it.

        Non-cacheable requests always reach DRAM as-is.  Cacheable
        requests are served per line: a miss fills the line (one
        line-granularity DRAM read, plus a write-back when evicting a
        dirty victim); a hit produces no DRAM traffic.
        """
        region = self._region_of(op, addr, addr, nbytes)
        if region.is_non_cacheable:
            self._dram_batch(region, np.array([addr], dtype=np.int64), op, nbytes, agent)
            return Source.DRAM
        source = self._cached_access(addr, op, nbytes, agent)
        if (self._rogue_positions(op, agent, 1)
                and addr + 2 * nbytes <= region.base + region.size):
            self.access(addr + nbytes, "R", nbytes, agent="prefetcher")
        return source

    def access_many(self, addrs, op: str, nbytes: int, agent: str = "host"):
        """Issue ``access(a, op, nbytes, agent)`` for each ``a`` in order,
        with the same trace, ticks and cache state.  The batch must lie in
        one region and is validated before any request is issued; in a
        non-cacheable region it reaches DRAM as one chunk."""
        addrs = np.array(addrs, dtype=np.int64).reshape(-1)
        if not addrs.size:
            _check_op(op)
            return
        region = self._region_of(op, int(addrs.min()), int(addrs.max()), nbytes)
        if region.is_non_cacheable:
            self._dram_batch(region, addrs, op, nbytes, agent)
        else:
            for addr in addrs.tolist():
                self.access(addr, op, nbytes, agent)

    def _dram_batch(self, region: MemoryRegion, addrs: np.ndarray, op: str,
                    nbytes: int, agent: str):
        """Non-cacheable requests: one chunk, split where the rogue
        prefetcher injects a read."""
        start = 0
        for j in self._rogue_positions(op, agent, len(addrs)):
            nxt = int(addrs[j]) + nbytes
            if nxt + nbytes <= region.base + region.size:
                self._emit(agent, op, addrs[start:j + 1], nbytes)
                start = j + 1
                self.access(nxt, "R", nbytes, agent="prefetcher")
        if start < len(addrs):
            self._emit(agent, op, addrs[start:], nbytes)

    def _rogue_positions(self, op: str, agent: str, n: int) -> range:
        """Positions in a batch of ``n`` requests after which the rogue
        prefetcher injects a read: every ``rogue_period``-th read of an
        agent other than the prefetcher itself."""
        if op != "R" or not self.rogue_prefetcher or agent == "prefetcher":
            return range(0)
        seen = self._reads_seen
        self._reads_seen += n
        return range(-(seen + 1) % self.rogue_period, n, self.rogue_period)

    def _cached_access(self, addr: int, op: str, nbytes: int, agent: str) -> Source:
        line_bytes = self.cache.config.line_bytes
        line = self.cache.line_of(addr)
        end = addr + nbytes
        filled = False
        while line < end:
            if self.cache.lookup(line):
                self.cache.stats.hits += 1
                self.hit_log.append(HitRecord(self._tick, agent, line))
                self._tick += 1
            else:
                self.cache.stats.misses += 1
                victim = self.cache.fill(line)
                if victim is not None:
                    self.cache.stats.writebacks += 1
                    self._emit(agent, "W", np.array([victim], dtype=np.int64),
                               line_bytes)
                self._emit(agent, "R", np.array([line], dtype=np.int64), line_bytes)
                filled = True
            if op == "W":
                self.cache.mark_dirty(line)
            line += line_bytes
        return Source.DRAM if filled else Source.CACHE

    # ------------------------------------------------------------------
    # Trace bookkeeping
    # ------------------------------------------------------------------
    def mark(self) -> tuple[int, int]:
        return len(self.trace), len(self.hit_log)

    def records_since(self, mark: tuple[int, int]) -> TraceView:
        return self.trace.view(mark[0])

    def hits_since(self, mark: tuple[int, int]) -> list[HitRecord]:
        return self.hit_log[mark[1]:]

    def drain_trace(self) -> TraceView:
        """Snapshot of records accumulated since the previous drain."""
        snapshot = self.trace.view(self._drain_mark)
        self._drain_mark = len(self.trace)
        return snapshot

    def reset_stats(self):
        """Zero the cache counters; regions and cache contents are kept."""
        self.cache.stats = CacheStats()

    def export_trace_ndjson(self, records=None) -> str:
        """Line-delimited JSON export of trace records."""
        records = self.trace if records is None else records
        lines = [json.dumps({"tick": r.tick, "agent": r.agent, "op": r.op,
                             "addr": r.addr, "bytes": r.nbytes},
                            sort_keys=True) for r in records]
        return "\n".join(lines) + ("\n" if lines else "")
