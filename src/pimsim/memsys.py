"""Cacheable / non-cacheable regions, the host cache, and the memory
controller boundary.

The command trace records exactly the requests that reach DRAM: every
access to a non-cacheable region, cache line fills, and dirty-line
write-backs.  Cache hits never appear in the trace, which is precisely
what makes cacheable placement of PIM weights hazardous: reads absorbed
by the cache cannot trigger PIM execution.

The trace is columnar: a run of non-cacheable requests of one agent, op and
size is stored as one chunk of consecutive ticks with an address array.
``TraceRecord``s are built only when the trace is iterated.  The trace is
the only record of what reached DRAM: the PIM engine decodes its MAC
triggers from the records appended to it, by their position in the trace;
where one chunk ends and the next begins means nothing to it.
"""

from __future__ import annotations

import enum
import json
import numbers
from bisect import bisect_left, bisect_right
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConfigError, RegionError

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

    def _parts(self):
        """Each chunk, the index of its first record in the view, and the
        addresses of its records in the view."""
        pos = self._base
        for c, end in zip(self._chunks, self._ends):
            lo = max(self._start - pos, 0)
            yield c, lo, c.addrs[lo:self._stop - pos]
            pos = end

    def __iter__(self):
        for c, lo, addrs in self._parts():
            for tick, addr in enumerate(addrs.tolist(), c.tick + lo):
                yield TraceRecord(tick, c.agent, c.op, addr, c.nbytes)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The records as three arrays: address, op and agent."""
        parts = list(self._parts())
        sizes = [len(addrs) for _, _, addrs in parts]
        ops = np.array([c.op for c, _, _ in parts], dtype=str)
        agents = np.array([c.agent for c, _, _ in parts], dtype=str)
        return (np.concatenate([np.zeros(0, dtype=np.int64)]
                               + [addrs for _, _, addrs in parts]),
                np.repeat(ops, sizes), np.repeat(agents, sizes))

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
        engine finds the job's records by their position in the trace."""
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


def _check_positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class CacheConfig:
    capacity: int = 8 * 1024 * 1024
    line_bytes: int = 64
    ways: int = 16

    def __post_init__(self):
        for name in ("capacity", "line_bytes", "ways"):
            _check_positive_int(f"cache {name}", getattr(self, name))
        if self.sets < 1:
            raise ConfigError(
                f"cache capacity {self.capacity} is below one set of "
                f"{self.ways} ways x {self.line_bytes} B lines")

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
    """Set-associative LRU cache, write-back / write-allocate.  Its one
    call, ``access``, owns the LRU order, dirty bits and ``stats``."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets = defaultdict(OrderedDict)  # index -> {line: dirty}, LRU first
        self.stats = CacheStats()
        self._line_bytes, self._n_sets = config.line_bytes, config.sets
        self._ways = config.ways

    def access(self, line: int, write: bool) -> tuple[bool, int | None]:
        """Touch the line at address ``line``; returns whether it hit, and
        the address of the dirty line that its fill evicted, if any."""
        s, stats = self.sets[line // self._line_bytes % self._n_sets], self.stats
        if line in s:
            stats.hits += 1
            s.move_to_end(line)
            if write:
                s[line] = True
            return True, None
        stats.misses += 1
        victim = None
        if len(s) >= self._ways:
            evicted, dirty = s.popitem(last=False)
            stats.evictions += 1
            if dirty:
                stats.writebacks += 1
                victim = evicted
        s[line] = write
        return False, victim


def _check_request(op: str, nbytes: int):
    if op not in ("R", "W"):
        raise RegionError(f"op must be 'R' or 'W', got {op!r}")
    whole = type(nbytes) is int or (isinstance(nbytes, numbers.Integral)
                                    and not isinstance(nbytes, bool))
    if not whole or nbytes < 1:
        raise RegionError(f"request sizes must be whole bytes >= 1, got {nbytes!r}")


class MemorySystem:
    """Single-address-space memory system shared by all logical agents.

    Accesses are serialized into one total order; determinism for a fixed
    access sequence is guaranteed.  A cacheable request is served line by
    line by ``_Cache.access``; this class logs the hits and emits the
    fills and write-backs.  An optional "rogue prefetcher" mode injects one
    extra sequential read every ``rogue_period`` reads, of the next block
    when it lies in the same region, to model a prefetcher that disrupts
    PIM command synchronization.
    """

    def __init__(self, capacity: int, cache: CacheConfig | None = None,
                 contiguous_pool_cap: int | None = None,
                 rogue_prefetcher: bool = False, rogue_period: int = 64):
        _check_positive_int("rogue_period", rogue_period)
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

    def access(self, addr: int, op: str, nbytes: int, agent: str = "host") -> Source:
        """Issue one request; returns which level serviced it.

        Non-cacheable requests always reach DRAM as-is.  Cacheable
        requests are served per line: a miss fills the line (one
        line-granularity DRAM read, after a write-back when evicting a
        dirty victim); a hit produces no DRAM traffic.
        """
        _check_request(op, nbytes)
        region = self.region_at(addr)
        end = region.base + region.size
        if addr + nbytes > end:
            raise RegionError(f"access [{addr:#x}, +{nbytes}) crosses region end")
        if region.is_non_cacheable:
            self._dram_batch(np.array([addr], dtype=np.int64), (end,), op, nbytes, agent)
            return Source.DRAM
        line_bytes, source = self.cache.config.line_bytes, Source.CACHE
        for line in range(addr - addr % line_bytes, addr + nbytes, line_bytes):
            hit, victim = self.cache.access(line, op == "W")
            if hit:
                self.hit_log.append(HitRecord(self._tick, agent, line))
                self._tick += 1
                continue
            if victim is not None:
                self._emit(agent, "W", np.array([victim], dtype=np.int64), line_bytes)
            self._emit(agent, "R", np.array([line], dtype=np.int64), line_bytes)
            source = Source.DRAM
        if self.rogue_prefetcher and self._rogue_positions((addr,), (end,), op, nbytes, agent):
            self.access(addr + nbytes, "R", nbytes, agent="prefetcher")
        return source

    def access_many(self, addrs, op, nbytes, agent: str = "host"):
        """Issue ``access(a, o, n, agent)`` for each request ``(a, o, n)`` in
        order, with the same trace, ticks and cache state.  ``op`` and
        ``nbytes`` give one value per request, or one for all.  The whole
        stream is validated before any request is issued; each run of
        consecutive non-cacheable requests of one op and size reaches DRAM
        as one chunk."""
        addrs = np.array(addrs, dtype=np.int64).reshape(-1)
        ends, runs = self._runs(addrs, op, nbytes)
        for lo, hi, op, size, non_cacheable in runs:
            if non_cacheable:
                self._dram_batch(addrs[lo:hi], ends[lo:hi], op, size, agent)
            else:
                for addr in addrs[lo:hi].tolist():
                    self.access(addr, op, size, agent)

    def _runs(self, addrs: np.ndarray, op, nbytes):
        """Validate a stream of requests and split it into runs of one op,
        size and attribute.  Returns the end of each request's region and
        the runs, as ``(lo, hi, op, size, non-cacheable)``."""
        if np.ndim(op) == np.ndim(nbytes) == 0:
            _check_request(op, nbytes)
            if not addrs.size:
                return addrs, []
            region = self.region_at(int(addrs.min()))
            end = region.base + region.size
            if addrs.max() + nbytes <= end:  # inside one region: one run
                return (np.full(addrs.shape, end),
                        [(0, addrs.size, op, nbytes, region.is_non_cacheable)])
        ops, sizes = np.asarray(op), np.asarray(nbytes)
        writes = ops == "W"
        invalid = ops[~(writes | (ops == "R"))]
        # a numeric array's least size stands for all; any other is passed whole
        least = ((sizes.min() if np.issubdtype(sizes.dtype, np.number) else sizes)
                 if sizes.size else 1)
        _check_request(invalid.item(0) if invalid.size else "R", least)
        if not addrs.size:
            return addrs, []
        # each request's region; index -1, below every region, has an end
        # below every address and is no region
        region = np.searchsorted(self._bases, addrs, side="right") - 1
        ends = np.array([r.base + r.size for r in self.regions]
                        + [np.iinfo(np.int64).min])[region]
        outside = addrs + sizes > ends
        if outside.any():
            j = int(outside.argmax())
            self.region_at(int(addrs[j]))  # raises if the address is unmapped
            size = sizes[j] if sizes.ndim else sizes
            raise RegionError(f"access [{addrs[j]:#x}, +{size}) crosses region end")
        # each request coded as the integer 4 * size + 2 * write + non-cacheable
        code = (sizes * 2 + writes) * 2 + np.array(
            [r.is_non_cacheable for r in self.regions] + [False])[region]
        starts = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist()]
        return ends, [(lo, hi, "W" if c & 2 else "R", c >> 2, c & 1)
                      for lo, hi, c in zip(starts, starts[1:] + [addrs.size],
                                           code[starts].tolist())]

    def _dram_batch(self, addrs: np.ndarray, ends, op: str, nbytes: int, agent: str):
        """Non-cacheable requests, each in a region ending at ``ends[j]``: one
        chunk, split where the rogue prefetcher injects a read."""
        start = 0
        for j in self._rogue_positions(addrs, ends, op, nbytes, agent):
            self._emit(agent, op, addrs[start:j + 1], nbytes)
            start = j + 1
            self.access(int(addrs[j]) + nbytes, "R", nbytes, agent="prefetcher")
        if start < len(addrs):
            self._emit(agent, op, addrs[start:], nbytes)

    def _rogue_positions(self, addrs, ends, op: str, nbytes: int, agent: str) -> list[int]:
        """Positions in a batch of requests at ``addrs`` after which the rogue
        prefetcher reads the next block: every ``rogue_period``-th read of an
        agent other than the prefetcher itself, when that block fits in the
        request's region, which ends at ``ends[j]``."""
        if op != "R" or not self.rogue_prefetcher or agent == "prefetcher":
            return []
        seen = self._reads_seen
        self._reads_seen += len(addrs)
        period = self.rogue_period
        return [j for j in range(-(seen + 1) % period, len(addrs), period)
                if addrs[j] + 2 * nbytes <= ends[j]]

    # ------------------------------------------------------------------
    # Trace bookkeeping
    # ------------------------------------------------------------------
    def mark(self) -> tuple[int, int]:
        return len(self.trace), len(self.hit_log)

    def records_since(self, mark: tuple[int, int]) -> TraceView:
        return self.trace.view(mark[0])

    def hits_since(self, mark: tuple[int, int]) -> list[HitRecord]:
        return self.hit_log[mark[1]:]

    def export_trace_ndjson(self, records=None) -> str:
        """Line-delimited JSON export of trace records."""
        records = self.trace if records is None else records
        lines = [json.dumps({"tick": r.tick, "agent": r.agent, "op": r.op,
                             "addr": r.addr, "bytes": r.nbytes},
                            sort_keys=True) for r in records]
        return "\n".join(lines) + ("\n" if lines else "")
