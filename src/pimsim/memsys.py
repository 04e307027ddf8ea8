"""Cacheable / non-cacheable regions, the host cache, and the memory
controller boundary.

The command trace records exactly the requests that reach DRAM: every
access to a non-cacheable region, cache line fills, and dirty-line
write-backs.  Cache hits never appear in the trace, which is precisely
what makes cacheable placement of PIM weights hazardous: reads absorbed
by the cache cannot trigger PIM execution.
"""

from __future__ import annotations

import enum
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
        self.sets = [OrderedDict() for _ in range(config.sets)]
        self.stats = CacheStats()

    def line_of(self, addr: int) -> int:
        return addr - (addr % self.config.line_bytes)

    def lookup(self, line_addr: int) -> bool:
        idx = (line_addr // self.config.line_bytes) % self.config.sets
        s = self.sets[idx]
        if line_addr in s:
            s.move_to_end(line_addr)
            return True
        return False

    def fill(self, line_addr: int) -> int | None:
        """Insert a line; returns the address of an evicted dirty line, if any."""
        idx = (line_addr // self.config.line_bytes) % self.config.sets
        s = self.sets[idx]
        victim = None
        if len(s) >= self.config.ways:
            evicted, dirty = s.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                victim = evicted
        s[line_addr] = False
        return victim

    def mark_dirty(self, line_addr: int):
        idx = (line_addr // self.config.line_bytes) % self.config.sets
        self.sets[idx][line_addr] = True
        self.sets[idx].move_to_end(line_addr)


class MemorySystem:
    """Single-address-space memory system shared by all logical agents.

    Accesses are serialized into one total order; determinism for a fixed
    access sequence is guaranteed.  An optional "rogue prefetcher" mode
    injects one extra sequential read every ``rogue_period`` reads to
    model a prefetcher that disrupts PIM command synchronization.
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
        self.trace: list[TraceRecord] = []
        self.hit_log: list[HitRecord] = []
        self.dram_listeners: list[Callable[[TraceRecord], None]] = []
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
        self._next_base = base + size
        if kind is RegionKind.CONTIGUOUS_POOL:
            self._pool_used += size
        return region

    def region_at(self, addr: int) -> MemoryRegion:
        for region in self.regions:
            if region.contains(addr):
                return region
        raise RegionError(f"unmapped address {addr:#x}")

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def _emit(self, agent: str, op: str, addr: int, nbytes: int):
        record = TraceRecord(self._tick, agent, op, addr, nbytes)
        self._tick += 1
        self.trace.append(record)
        for listener in self.dram_listeners:
            listener(record)

    def access(self, addr: int, op: str, nbytes: int, agent: str = "host") -> Source:
        """Issue one request; returns which level serviced it.

        Non-cacheable requests always reach DRAM as-is.  Cacheable
        requests are served per line: a miss fills the line (one
        line-granularity DRAM read, plus a write-back when evicting a
        dirty victim); a hit produces no DRAM traffic.
        """
        if op not in ("R", "W"):
            raise RegionError(f"op must be 'R' or 'W', got {op!r}")
        region = self.region_at(addr)
        if addr + nbytes > region.base + region.size:
            raise RegionError(f"access [{addr:#x}, +{nbytes}) crosses region end")
        if region.is_non_cacheable:
            self._emit(agent, op, addr, nbytes)
            source = Source.DRAM
        else:
            source = self._cached_access(addr, op, nbytes, agent)
        if op == "R" and self.rogue_prefetcher and agent != "prefetcher":
            self._reads_seen += 1
            if self._reads_seen % self.rogue_period == 0:
                nxt = addr + nbytes
                if region.contains(nxt):
                    self.access(nxt, "R", nbytes, agent="prefetcher")
        return source

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
                    self._emit(agent, "W", victim, line_bytes)
                self._emit(agent, "R", line, line_bytes)
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

    def records_since(self, mark: tuple[int, int]) -> list[TraceRecord]:
        return self.trace[mark[0]:]

    def hits_since(self, mark: tuple[int, int]) -> list[HitRecord]:
        return self.hit_log[mark[1]:]

    def drain_trace(self) -> list[TraceRecord]:
        """Snapshot of records accumulated since the previous drain."""
        snapshot = self.trace[self._drain_mark:]
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
