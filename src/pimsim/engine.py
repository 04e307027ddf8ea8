"""Functional model of per-bank PIM blocks executing GEMV through the
DRAM command protocol.

The host drives GEMV with ordinary DRAM requests: inputs are staged into
the 8-entry input register file with a burst write, weight reads trigger
one MAC per read, five dummy reads drain the SIMD pipeline, and a final
burst write moves the output register file back to memory.  A job issues
its whole command stream through one memory-system call and then decodes
its MACs once, from the records that the DRAM command trace gained since
the job began.  So any read absorbed by the host cache silently skips its
MAC - the memory-attribute hazard this simulator exists to demonstrate.

MAC rule, record by record: a staging write to the input buffer loads the
next staged tile into the input RF; an output write to the output buffer
snapshots and clears the accumulators; and the j-th read of a slab burst
after either consumes input element j, while j is below the RF size.  The
fetched burst supplies one weight per lane (one column of an output tile,
16 rows for 32-byte bursts of 2-byte elements), and in multi-bank mode
every active bank applies the same (row, column) command in lockstep.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import bf16
from .errors import ConfigError, StagingError
from .layout import (RF_ENTRIES, PimImage, burst_address_of_tile,
                     burst_of_address)
from .memsys import Attribute, MemorySystem, RegionKind, TraceView

PIPELINE_DRAIN_READS = 5


@dataclass
class GemvJob:
    """One GEMV: a placed weight image times an input vector."""

    image: PimImage
    input_bits: np.ndarray  # uint16 elements, length in_dim
    arithmetic: str = "bf16"  # "bf16" or "exact"

    def __post_init__(self):
        self.input_bits = np.ascontiguousarray(self.input_bits, dtype=np.uint16)
        p = self.image.placement
        if self.input_bits.size != p.in_dim:
            raise ConfigError(f"input length {self.input_bits.size} != K {p.in_dim}")
        if self.arithmetic not in ("bf16", "exact"):
            raise ConfigError(f"unknown arithmetic mode {self.arithmetic!r}")

    @property
    def placement(self):
        return self.image.placement

    @property
    def expected_mac_reads(self) -> int:
        """One MAC read per burst of the slab: ``slots * k_pad``."""
        return self.placement.slots * self.placement.k_pad

    @property
    def expected_total_commands(self) -> dict:
        """Per the command protocol: per out tile, NumInputTile x (1 input
        Write8 + 128 MAC reads) + 5 dummy reads + 1 output Write8."""
        p = self.placement
        return {"input_writes": p.slots * (p.k_pad // p.input_tile_elements),
                "mac_reads": self.expected_mac_reads,
                "dummy_reads": p.slots * PIPELINE_DRAIN_READS,
                "output_writes": p.slots}


@dataclass
class GemvResult:
    output: np.ndarray            # float values, length out_dim
    output_bits: np.ndarray       # element-precision readback, length m_pad
    records: TraceView            # DRAM commands during the job
    hits: list                    # cache hits during the job
    triggered_mac_reads: int
    prefetcher_triggers: int


@dataclass
class IntegrityReport:
    expected_reads: int
    observed_reads: int
    status: str  # "ok", "pim-blocked", or "desynchronized"
    absorbing_lines: tuple = ()
    surplus_reads: int = 0

    @property
    def deficit(self) -> int:
        return self.expected_reads - self.observed_reads + self.surplus_reads

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class PimGemvEngine:
    """Engine for one memory system; executes one GEMV job at a time.

    ``corrupt_mac_order`` is a test hook that reverses the order of the
    input elements each staged tile applies; it must make every nontrivial
    job fail oracle comparison.
    """

    def __init__(self, mem: MemorySystem, corrupt_mac_order: bool = False):
        self.mem = mem
        self.corrupt_mac_order = corrupt_mac_order
        staging = mem.allocate_region(RegionKind.GENERAL, Attribute.NON_CACHEABLE,
                                      1024, name="pim_staging")
        self.in_buf_addr = staging.base
        self.out_buf_addr = staging.base + 256
        self.dummy_addr = staging.base + 512
        self._job = None

    # ------------------------------------------------------------------
    # DRAM-side trigger path
    # ------------------------------------------------------------------
    def _on_dram(self) -> list[np.ndarray]:
        """MAC decode of every record traced since the last decode, by the
        rule in the module docstring.  Returns the accumulators that each
        output write snapshots, in trace order."""
        trace, p = self.mem.trace, self._job.placement
        addrs, ops, agents = trace.view(self._decoded).columns()
        self._decoded = len(trace)
        writes = ops == "W"
        staging = writes & (addrs == self.in_buf_addr)
        bounds = np.flatnonzero(staging | (writes & (addrs == self.out_buf_addr)))
        bursts = np.where(writes, -1, burst_of_address(p, addrs))
        triggers = np.flatnonzero(bursts >= 0)
        self._trigger_count += len(triggers)
        self._prefetch_triggers += int((agents[triggers] == "prefetcher").sum())
        # triggers per window between boundaries; the RF pointer restarts at
        # each boundary and saturates past its last element
        rf = len(self._x)
        window = np.searchsorted(bounds, triggers)
        first = np.searchsorted(window, np.arange(len(bounds) + 2))
        used = np.arange(len(triggers)) - first[window] < rf
        slab = self._job.image.data.reshape(-1, p.active_banks, p.row_tile)
        reads, lo = bursts[triggers[used]], 0
        snapshots = []
        for n, boundary in zip(np.minimum(np.diff(first), rf).tolist(),
                               [*staging[bounds].tolist(), None]):
            if n:
                # (n, active banks, lanes): each read's burst in every active bank
                w = bf16.decode(slab.take(reads[lo:lo + n], axis=0))
                x = self._x[:n][::-1] if self.corrupt_mac_order else self._x[:n]
                self._acc += np.einsum("nab,n->ab", w.astype(self._acc.dtype), x)
                lo += n
            if boundary:  # a staging write
                if not self._staged:
                    raise StagingError("a staging write with no tile staged "
                                       "through pim_write_input")
                self._x = self._staged.popleft()
            elif boundary is not None:  # an output write
                snapshots.append(self._acc.copy())
                self._acc[:] = 0
        return snapshots

    # ------------------------------------------------------------------
    # Staging primitives
    # ------------------------------------------------------------------
    def pim_write_input(self, values_bits: np.ndarray):
        """Write8: stage up to one 128-element input tile into the input RF.

        Unused lanes of a partial final tile are zero-filled.  The tile is
        queued for the write's record, which the next decode finds.
        """
        if self._job is None:
            raise ConfigError("no active job")
        tile_elems = self._job.placement.input_tile_elements
        if values_bits.size > tile_elems:
            raise StagingError(f"input tile of {values_bits.size} elements "
                               f"exceeds RF capacity {tile_elems}")
        staged = np.zeros(tile_elems, dtype=np.uint16)
        staged[:values_bits.size] = values_bits
        self._staged.append(bf16.decode(staged).astype(self._acc.dtype))
        self.mem.access(self.in_buf_addr, "W",
                        RF_ENTRIES * self._job.placement.geometry.burst_bytes)
        self._staged_bits = staged

    def pim_read_output(self) -> tuple[np.ndarray, np.ndarray]:
        """Write8 of the output RF after the MAC decode: returns ``(values,
        bits)``, the accumulator lanes of every active bank and their bits
        rounded to element precision.  The next decode starts after this
        output write, so the accumulators are not cleared: step by step,
        readbacks accumulate until the next bind."""
        if self._job is None:
            raise ConfigError("no active job")
        self._on_dram()
        flat = self._acc.reshape(-1)
        self.mem.access(self.out_buf_addr, "W",
                        RF_ENTRIES * self._job.placement.geometry.burst_bytes)
        self._decoded = len(self.mem.trace)
        bits = bf16.encode(flat.astype(np.float32))
        self._readout = (self._acc.astype(np.float64),
                         bits.reshape(self._acc.shape))
        return flat.copy(), bits

    def state_dump(self) -> str:
        """JSON dump of every active bank's input RF (the staged input tile),
        output RF and accumulators (the last readback), for debugging."""
        blocks = []
        if self._job is not None:
            input_rf = self._staged_bits.reshape(RF_ENTRIES, -1).tolist()
            for bank_acc, bank_bits in zip(*self._readout):
                output_rf = np.zeros((RF_ENTRIES, bank_bits.size), dtype=np.uint16)
                output_rf[0] = bank_bits
                blocks.append({"input_rf": input_rf,
                               "output_rf": output_rf.tolist(),
                               "acc": bank_acc.tolist()})
        return json.dumps({"blocks": blocks}, sort_keys=True)

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def _bind(self, job: GemvJob):
        p = job.placement
        self._job = job
        # records traced before the job trigger nothing
        self._decoded = len(self.mem.trace)
        self._trigger_count = 0
        self._prefetch_triggers = 0
        acc_dtype = np.float64 if job.arithmetic == "exact" else np.float32
        self._acc = np.zeros((p.active_banks, p.row_tile), dtype=acc_dtype)
        # the tile in the input RF (zeros after the bind), and the tiles
        # staged whose writes the decode has not reached yet
        self._x = np.zeros(p.input_tile_elements, dtype=acc_dtype)
        self._staged = deque()
        self._staged_bits = np.zeros(p.input_tile_elements, dtype=np.uint16)
        self._readout = (np.zeros(self._acc.shape),
                         np.zeros(self._acc.shape, dtype=np.uint16))

    def execute(self, job: GemvJob) -> GemvResult:
        """Run the full GEMV command protocol for ``job``: one stream of
        requests, then one MAC decode."""
        p = job.placement
        geo = p.geometry
        self._bind(job)
        mark = self.mem.mark()
        x_padded = np.zeros(p.k_pad, dtype=np.uint16)
        x_padded[:p.in_dim] = job.input_bits
        x_tiles = x_padded.reshape(-1, p.input_tile_elements)
        self._staged.extend([*bf16.decode(x_tiles).astype(self._acc.dtype)] * p.slots)
        self._staged_bits = x_tiles[-1]
        # per output tile: each input tile's staging write and weight reads,
        # then the drain reads and the output write
        n_in, tile = x_tiles.shape
        stream = np.empty((p.slots, n_in * (1 + tile) + PIPELINE_DRAIN_READS + 1),
                          dtype=np.int64)
        body = stream[:, :n_in * (1 + tile)].reshape(p.slots, n_in, 1 + tile)
        body[:, :, 0] = self.in_buf_addr
        body[:, :, 1:] = burst_address_of_tile(
            p, np.arange(p.slots) * p.active_banks).reshape(p.slots, n_in, tile)
        stream[:, -1 - PIPELINE_DRAIN_READS:-1] = self.dummy_addr
        stream[:, -1] = self.out_buf_addr
        stream = stream.ravel()
        writes = (stream == self.in_buf_addr) | (stream == self.out_buf_addr)
        # a staging write and an output write each move one RF of 8 bursts
        self.mem.access_many(stream, np.where(writes, "W", "R"),
                             np.where(writes, RF_ENTRIES * geo.burst_bytes,
                                      geo.burst_bytes))
        snapshots = np.array(self._on_dram()).reshape(p.slots, -1)
        bits = bf16.encode(snapshots.astype(np.float32))
        self._readout = (snapshots[-1].astype(np.float64).reshape(self._acc.shape),
                         bits[-1].reshape(self._acc.shape))
        return GemvResult(
            output=snapshots.reshape(-1)[:p.out_dim].astype(np.float64),
            output_bits=bits.reshape(-1),
            records=self.mem.records_since(mark),
            hits=self.mem.hits_since(mark),
            triggered_mac_reads=self._trigger_count,
            prefetcher_triggers=self._prefetch_triggers,
        )

    def verify_trigger_integrity(self, job: GemvJob,
                                 result: GemvResult) -> IntegrityReport:
        """Compare triggered MAC reads against the protocol formula.

        A deficit means reads were absorbed before reaching the memory
        controller ("PIM blocked"); a surplus means spurious requests
        desynchronized the command stream.
        """
        expected = job.expected_mac_reads
        observed = result.triggered_mac_reads
        surplus = result.prefetcher_triggers
        if observed - surplus < expected:
            base = job.image.base_addr
            end = base + job.image.span_bytes
            lines = sorted({h.line_addr
                            for h in result.hits
                            if base <= h.line_addr < end})
            return IntegrityReport(expected, observed, "pim-blocked",
                                   absorbing_lines=tuple(lines),
                                   surplus_reads=surplus)
        if surplus > 0 or observed > expected:
            return IntegrityReport(expected, observed, "desynchronized",
                                   surplus_reads=surplus)
        return IntegrityReport(expected, observed, "ok")
