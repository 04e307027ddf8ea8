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

MAC rule, record by record: the i-th staging write of a job to the input
buffer loads the job's input tile ``i % n_in`` (of ``n_in`` tiles) into the
input RF, which holds zeros before the first; an output write to the
output buffer snapshots and clears the accumulators; and the j-th read of
a slab burst after either consumes input element j, while j is below the
RF size.  The fetched burst supplies one weight per lane (one column of an
output tile, 16 rows for 32-byte bursts of 2-byte elements), and in
multi-bank mode every active bank applies the same (row, column) command
in lockstep.

The arithmetic is per window, the MACs between two such writes: a partial
sum starts at zero and adds ``w[j] * x[j]`` in RF order, in the
accumulators' precision (float32 for bf16, float64 for exact), and the
accumulators then add it.  The paper does not say whether the device adds
each product straight into the accumulators instead, which rounds
differently once a tile spans several windows; pimsim keeps this rule.
Consecutive windows, of one output tile or of several, are flushed
together: one take, one decode and one einsum give their partial sums
(tests hold them to the rule's bits), and a replay in trace order adds
each to the accumulators and takes each output write's snapshot.  A flush
holds at most ``FLUSH_BYTES`` of decoded weights, and at least one window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bf16
from .errors import ConfigError
from .layout import RF_ENTRIES, PimImage, burst_of_address
from .memsys import Attribute, MemorySystem, RegionKind, TraceView

PIPELINE_DRAIN_READS = 5
# Decoded weight bytes of one MAC flush, at least one window: 8 windows on 4
# banks of 16 lanes, one window on 64 banks, where flushes of 2 to 64 windows
# made a 1024x2048 job's MAC decode 20-40% slower.
FLUSH_BYTES = 256 * 1024


def _flush(acc: np.ndarray, snapshots: list, slab: np.ndarray, reads: np.ndarray,
           tiles: np.ndarray, events: list, reverse: bool):
    """Replay ``events`` in trace order, then empty it: a window, (first
    trigger, MACs, input tile), adds its MACs to ``acc``, and an output
    write, ``None``, appends a copy of ``acc`` to ``snapshots`` and clears
    it.  The windows' partial sums come from one take, one decode and one
    einsum; a window of fewer MACs than the RF holds is padded with zero
    weights and zero inputs."""
    windows = [e for e in events if e is not None]
    if windows:
        k, rf, n_in = len(windows), tiles.shape[1], len(tiles) - 1
        lo, _, t = windows[0]
        ts = [(t + i) % n_in for i in range(k)]
        if windows == [(lo + i * rf, rf, ts[i]) for i in range(k)]:
            # back to back, as the protocol issues them: a slice of the reads
            bits = slab.take(reads[lo:lo + k * rf], axis=0).reshape(k, rf, *slab.shape[1:])
            x = tiles[ts]
            if reverse:
                x = x[:, ::-1]
        else:
            bits = np.zeros((k, rf, *slab.shape[1:]), dtype=np.uint16)
            x = np.zeros((k, rf), dtype=tiles.dtype)
            for i, (lo, n, t) in enumerate(windows):
                bits[i, :n] = slab.take(reads[lo:lo + n], axis=0)
                x[i, :n] = tiles[t, :n][::-1] if reverse else tiles[t, :n]
        # (windows, MACs, active banks, lanes) as float32, which einsum takes
        # to float64 in exact mode
        parts = iter(np.einsum("wnab,wn->wab", bf16.decode(bits), x))
    for event in events:
        if event is None:
            snapshots.append(acc.copy())
            acc[:] = 0
        else:
            acc += next(parts)
    events.clear()


@dataclass
class GemvJob:
    """One GEMV: a placed weight image times an input vector."""

    image: PimImage
    input_bits: np.ndarray  # element bit patterns, length in_dim
    arithmetic: str = "bf16"  # "bf16" or "exact"

    def __post_init__(self):
        self.input_bits = bf16.check_bits(self.input_bits)
        if self.input_bits.ndim != 1:
            raise ConfigError("input must be a 1-D array of bit patterns")
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

    # ------------------------------------------------------------------
    # DRAM-side trigger path
    # ------------------------------------------------------------------
    def _on_dram(self, job: GemvJob, records: TraceView,
                 x_tiles: np.ndarray) -> tuple[list[np.ndarray], int, int]:
        """MAC decode of a job's records, by the rule in the module
        docstring.  Returns the accumulators that each output write
        snapshots, in trace order, the triggered reads, and how many of
        those the prefetcher issued."""
        p = job.placement
        addrs, writes, codes = records.columns()
        staging = writes & (addrs == self.in_buf_addr)
        bounds = np.flatnonzero(staging | (writes & (addrs == self.out_buf_addr)))
        bursts = np.where(writes, -1, burst_of_address(p, addrs))
        triggers = np.flatnonzero(bursts >= 0)
        reads = bursts[triggers]
        # the triggers of each window between boundaries, from the first
        # trigger past its opening boundary; the RF pointer restarts at each
        # boundary and saturates past its last element
        n_in, rf = x_tiles.shape
        starts = [0, *np.searchsorted(triggers, bounds).tolist()]
        slab = job.image.data.reshape(-1, p.active_banks, p.row_tile)
        acc_dtype = np.float64 if job.arithmetic == "exact" else np.float32
        # input tile n_in, the RF before the first staging write, is zeros
        tiles = np.zeros((n_in + 1, rf), dtype=acc_dtype)
        tiles[:n_in] = bf16.decode(x_tiles)
        acc = np.zeros((p.active_banks, p.row_tile), dtype=acc_dtype)
        # windows per flush: FLUSH_BYTES of float32 weights, at least one
        batch = max(1, FLUSH_BYTES // (4 * rf * slab[0].size))
        # since the last flush: each window, (first trigger, MACs, tile), and
        # each output write, None, in trace order
        tile, stagings, events, windows, snapshots = n_in, 0, [], 0, []
        for lo, hi, boundary in zip(starts, [*starts[1:], len(triggers)],
                                    [*staging[bounds].tolist(), None]):
            if hi > lo:
                events.append((lo, min(hi - lo, rf), tile))
                windows += 1
                if windows == batch:
                    _flush(acc, snapshots, slab, reads, tiles, events,
                           self.corrupt_mac_order)
                    windows = 0
            if boundary:  # a staging write
                tile = stagings % n_in
                stagings += 1
            elif boundary is not None:  # an output write
                events.append(None)
        _flush(acc, snapshots, slab, reads, tiles, events, self.corrupt_mac_order)
        prefetched = int(np.count_nonzero(codes[triggers] == records.agent_code("prefetcher")))
        return snapshots, len(triggers), prefetched

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def execute(self, job: GemvJob) -> GemvResult:
        """Run the full GEMV command protocol for ``job``: one stream of
        requests, then one MAC decode of the records it traced."""
        p = job.placement
        geo = p.geometry
        mark = self.mem.mark()
        x_padded = np.zeros(p.k_pad, dtype=np.uint16)
        x_padded[:p.in_dim] = job.input_bits
        x_tiles = x_padded.reshape(-1, p.input_tile_elements)
        # per output tile: each input tile's staging write and weight reads,
        # then the drain reads and the output write
        n_in, tile = x_tiles.shape
        stream = np.empty((p.slots, n_in * (1 + tile) + PIPELINE_DRAIN_READS + 1),
                          dtype=np.int64)
        body = stream[:, :n_in * (1 + tile)].reshape(p.slots, n_in, 1 + tile)
        body[:, :, 0] = self.in_buf_addr
        body[:, :, 1:] = p.slot_bursts.reshape(p.slots, n_in, tile)
        stream[:, -1 - PIPELINE_DRAIN_READS:-1] = self.dummy_addr
        stream[:, -1] = self.out_buf_addr
        stream = stream.ravel()
        writes = (stream == self.in_buf_addr) | (stream == self.out_buf_addr)
        # a staging write and an output write each move one RF of 8 bursts
        self.mem.access_many(stream, writes, np.where(writes, RF_ENTRIES * geo.burst_bytes,
                                                      geo.burst_bytes))
        records = self.mem.records_since(mark)
        snapshots, triggers, prefetched = self._on_dram(job, records, x_tiles)
        snapshots = np.array(snapshots).reshape(p.slots, -1)
        bits = bf16.encode(snapshots.astype(np.float32))
        return GemvResult(
            output=snapshots.reshape(-1)[:p.out_dim].astype(np.float64),
            output_bits=bits.reshape(-1),
            records=records,
            hits=self.mem.hits_since(mark),
            triggered_mac_reads=triggers,
            prefetcher_triggers=prefetched,
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
