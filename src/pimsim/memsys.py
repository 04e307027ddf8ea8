"""Cacheable / non-cacheable regions, the host cache, and the memory
controller boundary.

The command trace records exactly the requests that reach DRAM: every
access to a non-cacheable region, cache line fills, and dirty-line
write-backs.  Cache hits never appear in the trace, which is precisely
what makes cacheable placement of PIM weights hazardous: reads absorbed
by the cache cannot trigger PIM execution.

The trace is columnar: five arrays hold the tick, address, write flag,
agent code and size of every record, and ``TraceRecord``s, which name the
agent and the op, "R" or "W", are built only when the trace is iterated.
The codes index the trace's name table, which only grows, also across a
clear.  Records are written only past the end, and the arrays are
reallocated to grow or to clear, so a ``TraceView`` is a slice of each that
never changes.  ``access_many`` takes "R"/"W" ops or a bool write mask,
validates a stream once, splits it where the region attribute changes,
and stores each stretch of non-cacheable requests at once, whatever ops
and sizes it mixes, cut only where the rogue prefetcher injects a read.
A single record (a fill, a write-back or one non-cacheable ``access``) is
queued as five entries on the trace's flat tail list, which is written into
the columns before any read of them and at the end of the ``access`` that
makes it ``TAIL_FLUSH`` records long; a tail of one agent maps to its code
in one step.  The trace is the only record of what reached DRAM: the PIM
engine decodes its MAC triggers from the records appended to it, by their
position in the trace.

``access`` serves a cacheable request in one LRU loop, the only code that
changes the cache's LRU order, dirty bits and counters.  Each cache set is a
plain ``{line: dirty}`` dict whose insertion order is the LRU order: a hit
pops its line and inserts it again, a miss evicts the dict's first line.
Cache hits are stored as three entries each, tick, agent and line, on one
flat list; ``hit_log`` and ``hits_since`` read it by stride as
``HitRecord``s, built only when read.  The loop makes no container per line.
``access`` remembers the last region it resolved and searches the regions
only for an address outside it.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConfigError, RegionError, check_int, is_int

ALLOC_ALIGN = 64  # default region alignment in bytes
# queued trace records past which ``access`` writes them into the columns,
# so that a long run of single accesses leaves no long tail to a later read
TAIL_FLUSH = 256
_FIELDS = 5  # tail entries per queued record: tick, address, write flag, agent, size
_INT64 = np.iinfo(np.int64)  # the range of every address and request size
_NO_END = _INT64.min  # the end of no region, below every address


class Attribute(enum.Enum):
    CACHEABLE = "cacheable"
    NON_CACHEABLE = "non_cacheable"


class RegionKind(enum.Enum):
    """A label on a region, as its name is: no allocation rule reads it."""
    GENERAL = "general"
    CONTIGUOUS_POOL = "contiguous_pool"


class Source(enum.Enum):
    CACHE = "cache"
    DRAM = "dram"


# a lookup of an enum member costs about 0.1 µs on Python 3.11, as much as
# a hit's LRU update, so ``access`` reads its results from module globals
_CACHE, _DRAM = Source.CACHE, Source.DRAM
_WRITES, _OPS = {"R": False, "W": True}, "RW"  # an op's write flag, and a flag's op


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


class TraceView:
    """Records ``start`` up to ``stop`` of a trace's columns, built as they
    are iterated.  A trace writes only past its end and reallocates its
    columns to grow or to clear, and its agent name table only grows, so a
    view's records never change."""

    def __init__(self, columns: tuple[np.ndarray, ...], start: int, stop: int,
                 agents: list[str]):
        self._columns = tuple(c[start:stop] for c in columns)
        self.agents = agents  # the trace's name table: agents[code] names an agent

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        ticks, addrs, writes, codes, sizes = (c.tolist() for c in self._columns)
        return map(TraceRecord, ticks, map(self.agents.__getitem__, codes),
                   map(_OPS.__getitem__, writes), addrs, sizes)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The records as three arrays: address, write flag (bool, True for
        "W") and agent code, which ``agents`` maps to the agent's name."""
        return self._columns[1:4]

    def agent_code(self, agent: str) -> int:
        """``agent``'s code in :meth:`columns`, or -1 if no record of the
        trace has named it."""
        return self.agents.index(agent) if agent in self.agents else -1


def _new_columns(n: int) -> tuple[np.ndarray, ...]:
    """Room for ``n`` records: tick, address, write flag, agent code and size."""
    return (np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n, bool),
            np.empty(n, np.int32), np.empty(n, np.int64))


class CommandTrace:
    """The DRAM command trace, as five columns: tick, address, write flag,
    agent code and size.  The memory system writes batches of records into
    them, and queues each single record as five entries, the same fields
    with the agent's name, on a flat tail list, which is written into the
    columns before any read of them.
    ``agents[code]`` names the agent of a code; names are only appended,
    also across ``clear()``, so a code never changes its name."""

    def __init__(self):
        # records queued after those in the columns, ``_FIELDS`` entries each;
        # cleared only in place, because ``MemorySystem.access`` extends it
        self._tail: list = []
        self.agents: list[str] = []
        self._codes: dict[str, int] = {}
        self.clear()

    def code(self, agent: str) -> int:
        """The code of ``agent``, added to the name table if it is new."""
        code = self._codes.get(agent)
        if code is None:
            code = self._codes[agent] = len(self.agents)
            self.agents.append(agent)
        return code

    def clear(self):
        """Drop every record.  Not to be called inside a GEMV job: the
        engine finds the job's records by their position in the trace."""
        self._columns = _new_columns(16)
        self._len = 0
        self._tail.clear()

    def grow(self, n: int) -> tuple[int, tuple[np.ndarray, ...]]:
        """Write the queued records, then take ``n`` more; returns the
        position of the first and the columns to write them into, new ones
        if the old were full."""
        columns, used, tail = self._columns, self._len, self._tail
        start = used + len(tail) // _FIELDS
        if start + n > len(columns[0]):
            self._columns = _new_columns(max(2 * len(columns[0]), start + n))
            for new, old in zip(self._columns, columns):
                new[:used] = old[:used]
        if tail:
            agents = tail[3::_FIELDS]
            # a tail of one agent, such as a prefill's fills, maps in one step
            if agents.count(agents[0]) == len(agents):
                codes = self.code(agents[0])
            else:
                for agent in set(agents):
                    self.code(agent)
                codes = list(map(self._codes.__getitem__, agents))
            for j, column in enumerate(self._columns):
                column[used:start] = codes if j == 3 else tail[j::_FIELDS]
        tail.clear()
        self._len = start + n
        return start, self._columns

    def __len__(self) -> int:
        return self._len + len(self._tail) // _FIELDS

    def view(self, start: int = 0) -> TraceView:
        """Records from position ``start`` to the current end."""
        self.grow(0)
        return TraceView(self._columns, start, self._len, self.agents)

    def __iter__(self):
        return iter(self.view())


class HitRecord(NamedTuple):
    tick: int
    agent: str
    line_addr: int


def _hit_records(hits: list):
    """The ``HitRecord``s of a flat hit list: tick, agent, line per hit."""
    return map(HitRecord, hits[0::3], hits[1::3], hits[2::3])


class HitLog:
    """The cache hits: their count, and ``HitRecord``s by iteration.  The
    memory system extends one flat list with three entries per hit, tick,
    agent and line; a ``HitRecord`` is built only when read."""

    def __init__(self, hits: list):
        self._hits = hits

    def __len__(self) -> int:
        return len(self._hits) // 3

    def __iter__(self):
        return _hit_records(self._hits)

    def clear(self):
        """Drop every hit."""
        self._hits.clear()


@dataclass
class CacheConfig:
    capacity: int = 8 * 1024 * 1024
    line_bytes: int = 64
    ways: int = 16

    def __post_init__(self):
        for name in ("capacity", "line_bytes", "ways"):
            setattr(self, name, check_int(f"cache {name}", getattr(self, name)))
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


class _Cache(NamedTuple):
    """Set-associative LRU cache, write-back / write-allocate:
    ``MemorySystem.access`` alone changes its LRU order, dirty bits and
    ``stats``."""
    config: CacheConfig
    sets: defaultdict  # index -> {line: dirty} dict, LRU first
    stats: CacheStats


def _requests(addrs, op, nbytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The requests ``(addrs[j], op[j], nbytes[j])`` as 1-D arrays of int64
    addresses, bool write flags and int64 sizes, ``op`` (or a bool array of
    the flags, 1-D or more) and ``nbytes`` one for all or one per
    address; ``RegionError`` unless each address and size is an int64
    integer (NumPy's count, no bool), each size >= 1, each op "R" or "W"."""
    columns = []
    for name, values in (("addrs", addrs), ("op", op), ("nbytes", nbytes)):
        many = isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim
        # a list is read one level deep: NumPy would cast a bool among integers to 0 or 1
        values = (values.reshape(-1) if isinstance(values, np.ndarray) and many else np.fromiter(
            (v.item() if isinstance(v, np.generic) else v for v in (values if many else [values])),
            object))
        if columns and many and values.size != columns[0].size:
            raise RegionError(f"{name} has {values.size} values for {columns[0].size} requests")
        columns.append(values)
    ops = columns[1]  # a bool array holds the write flags; a bool read as an object is no op
    for o in [] if ops.dtype == bool else ops.tolist():
        if not isinstance(o, str) or o not in ("R", "W"):
            raise RegionError(f"op must be 'R' or 'W', got {o!r}")
    columns[1] = ops if ops.dtype == bool else ops == "W"
    for i, name, rule, least in ((0, "addresses", "integers", _INT64.min),
                                 (2, "request sizes", "whole bytes >= 1", 1)):
        values = columns[i]  # an integer array is checked whole
        whole = values.dtype.kind in "iu" and (not values.size or (
            np.can_cast(values.dtype, np.int64) or values.max() <= _INT64.max)
            and (least == _INT64.min or values.min() >= least))
        for v in [] if whole else values.tolist():
            if not is_int(v) or _INT64.min <= v < least:
                raise RegionError(f"{name} must be {rule}, got {v!r}")
            if not _INT64.min <= v <= _INT64.max:
                raise RegionError(f"{name} must fit in an int64, got {v!r}")
        columns[i] = values.astype(np.int64, copy=False)
    return tuple(c if c.size == columns[0].size else c.repeat(columns[0].size) for c in columns)


class MemorySystem:
    """Single-address-space memory system shared by all logical agents.

    Accesses are serialized into one total order; determinism for a fixed
    access sequence is guaranteed.  ``access`` serves a cacheable request
    line by line in one LRU loop, which logs the hits and queues the fills
    and write-backs on the trace.  A ``rogue_period`` (None: none) adds a
    "rogue prefetcher": one extra sequential read every ``rogue_period``
    reads, of the next block when it lies in the same region, to model a
    prefetcher that disrupts PIM command synchronization.
    """

    def __init__(self, capacity: int, cache: CacheConfig | None = None,
                 rogue_period: int | None = None):
        self.capacity = check_int("capacity", capacity)
        self.rogue_period = (None if rogue_period is None
                             else check_int("rogue_period", rogue_period))
        config = cache or CacheConfig()
        self.cache = _Cache(config, defaultdict(dict), CacheStats())
        self.regions: list[MemoryRegion] = []
        self._bases = np.array([], np.int64)  # region bases, ascending
        # each region's end and attribute, for ``access_many``, and after them
        # those of index -1, below every region: an end below every address
        self._ends = np.array([_NO_END])
        self._non_cacheable = np.array([False])
        self.trace = CommandTrace()
        self._hits: list = []  # tick, agent, line: three entries per hit
        self.hit_log = HitLog(self._hits)
        # what the LRU loop of ``access`` reads, in one tuple
        self._lru = (self.cache.sets, self.cache.stats, self._hits, self.trace._tail,
                     config.line_bytes, config.sets, config.ways)
        # (base, end, non-cacheable) of the region that ``access`` resolved
        # last; regions are only appended, so it never goes stale
        self._last_region = (0, 0, False)
        self._next_base = 0
        self._tick = 0
        self._reads_seen = 0

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def allocate_region(self, kind: RegionKind, attribute: Attribute,
                        size: int, name: str | None = None,
                        align: int | None = None) -> MemoryRegion:
        if not isinstance(kind, RegionKind) or not isinstance(attribute, Attribute):
            raise RegionError(f"region kind {kind!r} and attribute {attribute!r} "
                              "must be a RegionKind and an Attribute")
        size = check_int("region size", size, error=RegionError)
        align = check_int("region align", ALLOC_ALIGN if align is None else align,
                          error=RegionError)
        base = -(-self._next_base // align) * align
        if base + size > self.capacity:
            raise CapacityError(
                f"region of {size} bytes does not fit "
                f"(base {base:#x}, capacity {self.capacity:#x})")
        region = MemoryRegion(name or f"region{len(self.regions)}",
                              base, size, attribute, kind)
        self.regions.append(region)
        self._bases = np.array([r.base for r in self.regions], np.int64)
        self._ends = np.array([*(r.base + r.size for r in self.regions), _NO_END])
        self._non_cacheable = np.array([*(r.is_non_cacheable for r in self.regions), False])
        self._next_base = base + size
        return region

    def region_at(self, addr: int) -> MemoryRegion:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and self.regions[i].contains(addr):
            return self.regions[i]
        raise RegionError(f"unmapped address {addr:#x}")

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def access(self, addr: int, op: str, nbytes: int, agent: str = "host") -> Source:
        """Issue one request; returns which level serviced it.

        Non-cacheable requests always reach DRAM as-is.  Cacheable
        requests are served per line: a miss fills the line (one
        line-granularity DRAM read, after a write-back when evicting a
        dirty victim); a hit produces no DRAM traffic.
        """
        try:  # ``_requests`` checks any other request, and converts it: a hit logs Python ints
            write = _WRITES.get(op)
            if write is None or type(nbytes) is not int or nbytes < 1 or type(addr) is not int:
                (addr,), (write,), (nbytes,) = (c.tolist() for c in _requests([addr], [op], [nbytes]))
        except TypeError:  # an unhashable op, such as an array, is no str: this raises
            _requests([addr], [op], [nbytes])
        base, end, non_cacheable = self._last_region
        if not base <= addr < end or addr + nbytes > end:
            i = bisect_right(self._bases, addr) - 1
            if i < 0 or addr + nbytes > self._ends[i]:
                _requests([addr], [op], [nbytes])  # the test above lets an int past int64 by
                self.region_at(addr)  # raises if the address is unmapped
                raise RegionError(f"access [{addr:#x}, +{nbytes}) crosses region end")
            r = self.regions[i]
            base, end, non_cacheable = self._last_region = r.base, r.base + r.size, r.is_non_cacheable
        sets, stats, hits, tail, line_bytes, n_sets, ways = self._lru
        tick = self._tick
        if non_cacheable:
            tail += tick, addr, write, agent, nbytes
            tick += 1
            source = _DRAM
        else:
            source = _CACHE
            line, stop = addr - addr % line_bytes, addr + nbytes
            while line < stop:
                s = sets[line // line_bytes % n_sets]
                dirty = s.pop(line, None)  # a hit's line goes back in last
                if dirty is None:
                    stats.misses += 1
                    if len(s) >= ways:
                        evicted = next(iter(s))
                        stats.evictions += 1
                        if s.pop(evicted):
                            stats.writebacks += 1
                            tail += tick, evicted, True, agent, line_bytes
                            tick += 1
                    tail += tick, line, False, agent, line_bytes
                    source = _DRAM
                else:
                    stats.hits += 1
                    hits += tick, agent, line
                s[line] = dirty or write
                tick += 1
                line += line_bytes
        self._tick = tick
        if source is _DRAM and len(tail) >= _FIELDS * TAIL_FLUSH:
            self.trace.grow(0)
        if self.rogue_period is not None and self._rogue_positions(
                (addr,), (end,), (write,), (nbytes,), agent):
            self.access(addr + nbytes, "R", nbytes, agent="prefetcher")
        return source

    def access_many(self, addrs, op, nbytes, agent: str = "host"):
        """Issue ``access(a, o, n, agent)`` for each request ``(a, o, n)`` in
        order, with the same trace, ticks and cache state.  ``op`` (also a bool
        write mask) and ``nbytes`` give one value per request, or one for all.
        The whole stream is validated before any request is issued and split
        where the region attribute changes; a non-cacheable stretch is one store."""
        addrs, writes, sizes = _requests(addrs, op, nbytes)
        if not addrs.size:
            return
        # each request's region: index -1 is below every region
        region = np.searchsorted(self._bases, addrs, side="right") - 1
        ends = self._ends[region]
        outside = (addrs >= ends) | (sizes > ends - addrs)  # addrs + sizes may pass int64
        if outside.any():  # ``access`` raises for the first request that no region holds, of any op
            self.access(addrs[outside.argmax()], "R", sizes[outside.argmax()])
        non_cacheable = self._non_cacheable[region]
        starts = [0, *(np.flatnonzero(non_cacheable[1:] != non_cacheable[:-1]) + 1).tolist()]
        for lo, hi in zip(starts, starts[1:] + [addrs.size]):
            if non_cacheable[lo]:
                self._dram_batch(addrs[lo:hi], ends[lo:hi], writes[lo:hi], sizes[lo:hi], agent)
            else:
                ops = map(_OPS.__getitem__, writes[lo:hi].tolist())
                for request in zip(addrs[lo:hi].tolist(), ops, sizes[lo:hi].tolist()):
                    self.access(*request, agent)

    def _dram_batch(self, addrs: np.ndarray, ends, writes, sizes, agent: str):
        """Non-cacheable requests, each in a region ending at ``ends[j]``:
        one store, cut where the rogue prefetcher injects a read."""
        cuts = [j + 1 for j in self._rogue_positions(addrs, ends, writes, sizes, agent)]
        code = self.trace.code(agent)
        for lo, hi in zip([0, *cuts], [*cuts, len(addrs)]):
            if lo:  # the prefetcher reads the block after request lo - 1
                self.access(int(addrs[lo - 1] + sizes[lo - 1]), "R", int(sizes[lo - 1]),
                            agent="prefetcher")
            i, columns = self.trace.grow(hi - lo)
            for column, values in zip(columns, (np.arange(self._tick, self._tick + hi - lo),
                                                addrs[lo:hi], writes[lo:hi], code,
                                                sizes[lo:hi])):
                column[i:i + hi - lo] = values
            self._tick += hi - lo

    def _rogue_positions(self, addrs, ends, writes, sizes, agent: str) -> list[int]:
        """Positions in a batch of requests after which the rogue prefetcher
        reads the next block: every ``rogue_period``-th read of an agent
        other than the prefetcher itself, counted over the batch's reads,
        when that block fits in the request's region, which ends at
        ``ends[j]``."""
        if self.rogue_period is None or agent == "prefetcher":
            return []
        reads = np.flatnonzero(~np.asarray(writes))
        seen, period = self._reads_seen, self.rogue_period
        self._reads_seen += len(reads)
        return [j for j in reads[-(seen + 1) % period::period].tolist()
                if addrs[j] + 2 * sizes[j] <= ends[j]]

    # ------------------------------------------------------------------
    # Trace bookkeeping
    # ------------------------------------------------------------------
    def mark(self) -> tuple[int, int]:
        return len(self.trace), len(self.hit_log)

    def records_since(self, mark: tuple[int, int]) -> TraceView:
        return self.trace.view(mark[0])

    def hits_since(self, mark: tuple[int, int]) -> list[HitRecord]:
        return list(_hit_records(self._hits[3 * mark[1]:]))

    def export_trace_ndjson(self, records=None) -> str:
        """Line-delimited JSON export of trace records."""
        records = self.trace if records is None else records
        lines = [json.dumps({"tick": r.tick, "agent": r.agent, "op": r.op,
                             "addr": r.addr, "bytes": r.nbytes},
                            sort_keys=True) for r in records]
        return "\n".join(lines) + ("\n" if lines else "")
