"""Functional model of per-bank PIM blocks executing GEMV through the
DRAM command protocol.

The host drives GEMV with ordinary DRAM requests: inputs are staged into
the 8-entry input register file with a burst write, weight reads trigger
one MAC per read, five dummy reads drain the SIMD pipeline, and a final
burst write moves the output register file back to memory.  The engine
reads its MAC triggers from the memory system's DRAM command trace, so any
read absorbed by the host cache silently skips its MAC - the
memory-attribute hazard this simulator exists to demonstrate.

MAC micro-order: the j-th triggering read since the last input staging
consumes input element j; the fetched burst supplies one weight per lane
(one column of an output tile, 16 rows for 32-byte bursts of 2-byte
elements), and in multi-bank mode every active bank applies the same (row,
column) command in lockstep.
"""

from __future__ import annotations

import json
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
    def input_tile_elements(self) -> int:
        return self.placement.input_tile_elements

    @property
    def num_input_tiles(self) -> int:
        return self.placement.k_pad // self.input_tile_elements

    @property
    def num_out_tiles(self) -> int:
        return self.placement.slots

    @property
    def expected_mac_reads(self) -> int:
        return self.num_out_tiles * self.num_input_tiles * self.input_tile_elements

    @property
    def expected_total_commands(self) -> dict:
        """Per the command protocol: per out tile, NumInputTile x (1 input
        Write8 + 128 MAC reads) + 5 dummy reads + 1 output Write8."""
        o, i = self.num_out_tiles, self.num_input_tiles
        return {"input_writes": o * i,
                "mac_reads": o * i * self.input_tile_elements,
                "dummy_reads": o * PIPELINE_DRAIN_READS,
                "output_writes": o}


@dataclass
class GemvResult:
    output: np.ndarray            # float values, length out_dim
    output_bits: np.ndarray       # element-precision readback, length m_pad
    records: TraceView            # DRAM commands during the job
    hits: list                    # cache hits during the job
    expected_mac_reads: int
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

    ``corrupt_mac_order`` is a test hook that reverses the input-element
    order inside each MAC flush; it must make every nontrivial job fail
    oracle comparison.
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
    def _on_dram(self):
        """MAC flush: decode the reads traced since the previous flush; each
        one that reads a burst of the weight slab triggers a MAC: read j
        uses input element j (arrival order)."""
        chunks = self.mem.trace.chunks
        reads = [c for c in chunks[self._traced:] if c.op == "R"]
        self._traced = len(chunks)
        if not reads:
            return
        addrs = np.concatenate([c.addrs for c in reads])
        prefetched = np.repeat([c.agent == "prefetcher" for c in reads],
                               [len(c.addrs) for c in reads])
        inside = (addrs >= self._span[0]) & (addrs < self._span[1])
        addrs, prefetched = addrs[inside], prefetched[inside]
        p = self._job.placement
        bursts = burst_of_address(p, addrs)
        triggered = bursts >= 0
        bursts = bursts[triggered]
        self._trigger_count += len(bursts)
        self._prefetch_triggers += int(prefetched[triggered].sum())
        n = min(len(bursts), len(self._x))
        bursts = bursts[:n]  # RF pointer saturates past the staged tile
        x = self._x[:n]
        if self.corrupt_mac_order:
            x = x[::-1]
        slots, cols = np.divmod(bursts, p.k_pad)
        # (n, active banks, lanes): each read's burst in every active bank
        w = bf16.decode(self._job.image.data[slots, :, :, cols])
        self._acc += np.einsum("nab,n->ab", w.astype(self._acc.dtype), x)

    # ------------------------------------------------------------------
    # Staging primitives
    # ------------------------------------------------------------------
    def pim_write_input(self, values_bits: np.ndarray):
        """Write8: stage up to one 128-element input tile into the input RF.

        Unused lanes of a partial final tile are zero-filled.
        """
        if self._job is None:
            raise ConfigError("no active job")
        tile_elems = self._job.input_tile_elements
        if values_bits.size > tile_elems:
            raise StagingError(f"input tile of {values_bits.size} elements "
                               f"exceeds RF capacity {tile_elems}")
        self._on_dram()
        staged = np.zeros(tile_elems, dtype=np.uint16)
        staged[:values_bits.size] = values_bits
        self.mem.access(self.in_buf_addr, "W",
                        tile_elems * self._job.placement.geometry.element_bytes)
        self._staged_bits = staged
        if self._job.arithmetic == "exact":
            self._x = bf16.decode(staged).astype(np.float64)
        else:
            self._x = bf16.decode(staged).astype(np.float32)

    def pim_read_output(self) -> np.ndarray:
        """Write8 of the output RF: returns the accumulator lanes of every
        active bank, rounded to element precision in BF16 mode."""
        if self._job is None:
            raise ConfigError("no active job")
        self._on_dram()
        flat = self._acc.reshape(-1)
        self.mem.access(self.out_buf_addr, "W",
                        RF_ENTRIES * self._job.placement.geometry.burst_bytes)
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
        # reads traced before the job trigger nothing
        self._traced = len(self.mem.trace.chunks)
        self._trigger_count = 0
        self._prefetch_triggers = 0
        acc_dtype = np.float64 if job.arithmetic == "exact" else np.float32
        self._acc = np.zeros((p.active_banks, p.row_tile), dtype=acc_dtype)
        self._staged_bits = np.zeros(job.input_tile_elements, dtype=np.uint16)
        self._readout = (np.zeros(self._acc.shape),
                         np.zeros(self._acc.shape, dtype=np.uint16))
        self._x = np.zeros(job.input_tile_elements, dtype=acc_dtype)
        self._span = (job.image.base_addr,
                      job.image.base_addr + job.image.span_bytes)

    def execute(self, job: GemvJob) -> GemvResult:
        """Run the full GEMV command protocol for ``job``."""
        p = job.placement
        geo = p.geometry
        self._bind(job)
        mark = self.mem.mark()
        x_padded = np.zeros(p.k_pad, dtype=np.uint16)
        x_padded[:p.in_dim] = job.input_bits
        x_tiles = x_padded.reshape(job.num_input_tiles, -1)
        out_bits = np.zeros((job.num_out_tiles, p.active_banks * p.row_tile),
                            dtype=np.uint16)
        out_vals = np.zeros(out_bits.shape)
        for o in range(job.num_out_tiles):
            self._acc[:] = 0
            addrs = burst_address_of_tile(p, o * p.active_banks)
            for x_tile, reads in zip(x_tiles, addrs.reshape(x_tiles.shape)):
                self.pim_write_input(x_tile)
                self.mem.access_many(reads, "R", geo.burst_bytes)
            self.mem.access_many([self.dummy_addr] * PIPELINE_DRAIN_READS,
                                 "R", geo.burst_bytes)
            out_vals[o], out_bits[o] = self.pim_read_output()
        return GemvResult(
            output=out_vals.reshape(-1)[:p.out_dim].copy(),
            output_bits=out_bits.reshape(-1),
            records=self.mem.records_since(mark),
            hits=self.mem.hits_since(mark),
            expected_mac_reads=job.expected_mac_reads,
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
