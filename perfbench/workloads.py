"""The benchmark's workloads, their inputs and their oracles.

Each workload is a closed loop with one caller: the runner takes the next
operation from :meth:`Workload.operations` only after the previous one has
returned.  Building an operation (drawing its inputs) is not timed; calling
``Op.run`` is; ``Op.check`` compares the result with an oracle kept here,
outside the package.  It returns whether the result passed and a function
giving the bytes of simulated output that go into the workload's digest;
the runner calls that function only for the operations the digest covers.

Why each workload exists is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from pimsim import bf16, cli, cost, engine, layout, memsys, presets, runtime
from pimsim.dram import AddressMap, DramGeometry
from pimsim.model import ModelSpec
from pimsim.scenario import Scenario

# The GEMV battery's geometry: the desk preset's 16 banks with 4096 rows.
BATTERY_GEO = DramGeometry(channels=1, ranks_per_channel=1, banks_per_rank=16,
                           rows_per_bank=4096, columns_per_row=32)
ACTIVE_BANKS = 4
BF16_REL_TOL = 2.0 ** -7


Digest = Callable[[], bytes]


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, Digest]]


class Workload:
    """One closed-loop workload.

    ``__init__`` draws the inputs from the seed and is not timed;
    :meth:`setup` builds the long-lived state and runs a warm-up, and is
    timed as ``setup_s``; :meth:`operations` yields operations forever.
    """

    name = ""
    unit = ""              # what one operation is
    setup_repeats = 5      # setups per run; setup_s is their median
    digest_ops = 0         # leading operations covered by the digest
    mix_ops = 1            # operations over which the mix of operations repeats
    trace_ops_per_s = 0.0  # traced-run operations per second of --seconds

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.counters: Counter = Counter()

    def setup(self):
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError

    def _warm_up(self, ops):
        for op in ops:
            ok, _ = op.check(op.run())
            if not ok:
                raise RuntimeError(f"{self.name}: warm-up {op.kind} failed its check")

    def _count_job(self, job, result):
        self.counters["engine_jobs"] += 1
        self.counters["mac_reads"] += result.triggered_mac_reads
        self.counters["mac_expected"] += job.expected_mac_reads


def _trace_bytes(mem, records=None) -> bytes:
    return mem.export_trace_ndjson(records).encode()


def _add_cache_delta(counters: Counter, before: dict, after: dict):
    for key, value in after.items():
        counters["cache_" + key] += value - before.get(key, 0)


# ----------------------------------------------------------------------
# gemv_battery
# ----------------------------------------------------------------------

class GemvBattery(Workload):
    """The job stream of the 1,000-job acceptance battery, unbounded."""

    name = "gemv_battery"
    unit = "GEMV job"
    setup_repeats = 15     # a set-up is one job, so take more of them
    digest_ops = 50
    trace_ops_per_s = 8.0

    def setup(self):
        self.amap = AddressMap(BATTERY_GEO)
        # the largest job the stream can draw, on inputs of its own
        self._warm_up([self._job(0, np.random.default_rng(0), 512, 1024)])

    def operations(self):
        # Same draws in the same order as the acceptance battery, so that
        # seed 2024 gives its jobs: M, K, then weights and input.
        rng = np.random.default_rng(self.seed)
        for i in itertools.count():
            m = int(rng.integers(1, 513))
            k = int(rng.integers(1, 1025))
            yield self._job(i, rng, m, k)

    def _job(self, i: int, rng, m: int, k: int) -> Op:
        exact = i % 2 == 0
        if exact:
            w = rng.integers(-4, 5, size=(m, k)).astype(np.float64)
            x = rng.integers(-4, 5, size=k).astype(np.float64)
        else:
            w = rng.standard_normal((m, k))
            x = rng.standard_normal(k)
        w_bits = bf16.encode(w.astype(np.float32))
        x_bits = bf16.encode(x.astype(np.float32))
        arithmetic = "exact" if exact else "bf16"
        amap = self.amap

        def run():
            p = layout.PimPlacement(amap, m, k, banks_per_channel=ACTIVE_BANKS,
                                    channels_used=1)
            image = layout.convert_to_pim_aware(layout.WeightMatrix(m, k, w_bits), p)
            mem = memsys.MemorySystem(capacity=BATTERY_GEO.total_capacity + (1 << 16))
            mem.allocate_region(memsys.RegionKind.CONTIGUOUS_POOL,
                                memsys.Attribute.NON_CACHEABLE,
                                image.base_addr + image.span_bytes, align=1)
            eng = engine.PimGemvEngine(mem)
            job = engine.GemvJob(image, x_bits, arithmetic=arithmetic)
            result = eng.execute(job)
            return mem, job, result, eng.verify_trigger_integrity(job, result)

        def check(out):
            mem, job, result, report = out
            if exact:
                ok = np.array_equal(result.output, w @ x)
            else:
                oracle = (bf16.decode(bf16.encode(w)).astype(np.float64)
                          @ bf16.decode(x_bits).astype(np.float64))
                scale = max(np.abs(oracle).max(), 1.0)
                ok = np.abs(result.output - oracle).max() / scale <= BF16_REL_TOL
            self._count_job(job, result)
            self.counters["dram_cmds"] += len(mem.trace)
            _add_cache_delta(self.counters, {}, mem.cache.stats.as_dict())
            return (bool(ok) and report.ok,
                    lambda: result.output_bits.tobytes() + _trace_bytes(mem))

        return Op("gemv", run, check)


# ----------------------------------------------------------------------
# phase_switch
# ----------------------------------------------------------------------

PHASE_MODEL = ModelSpec(hidden=128, intermediate=512, layers=2,
                        kv_ratio=Fraction(1, 4))
# Larger than one FF matrix (128 KiB), smaller than the model's weights
# (928 KiB) and than the two S-DDB buffers together.
PHASE_CACHE = memsys.CacheConfig(capacity=192 * 1024)
PROBE_SHAPE = (128, 128)
# Each block of four requests uses every sl and every out_len once, in a
# seeded pairing and order, so the work in a run hardly depends on the seed.
SL_CHOICES = (2, 3, 4, 5)
OUT_LEN_CHOICES = (1, 2, 3, 4)
WARM_UP_SL, WARM_UP_OUT_LEN = 4, 2


class LruReplay:
    """Independent model of the host cache: set-associative LRU,
    write-back, write-allocate; counts as ``CacheStats`` does."""

    def __init__(self, config):
        self.line = config.line_bytes
        self.ways = config.ways
        self.sets = [[] for _ in range(config.sets)]  # [line, dirty], LRU first
        self.stats = {"hits": 0, "misses": 0, "evictions": 0, "writebacks": 0}

    def access(self, addr: int, op: str) -> bool:
        """One access of a single line; returns whether it hit."""
        line = addr - addr % self.line
        ways = self.sets[(line // self.line) % len(self.sets)]
        for i, entry in enumerate(ways):
            if entry[0] == line:
                ways.append(ways.pop(i))
                entry[1] = entry[1] or op == "W"
                self.stats["hits"] += 1
                return True
        self.stats["misses"] += 1
        if len(ways) >= self.ways:
            _, dirty = ways.pop(0)
            self.stats["evictions"] += 1
            self.stats["writebacks"] += dirty
        ways.append([line, op == "W"])
        return False


class PhaseSwitch(Workload):
    """Functional prefill -> decode switch on one long-lived memory system."""

    name = "phase_switch"
    unit = "matrix operation"
    setup_repeats = 9
    trace_ops_per_s = 6.0

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        rng = np.random.default_rng(seed)
        self.weights = [rng.integers(-4, 5, size=(m.out_dim, m.in_dim)).astype(np.float64)
                        for m in PHASE_MODEL.all_matrices()]
        self.probe_w = rng.integers(-4, 5, size=PROBE_SHAPE).astype(np.float64)
        self.rng = rng
        per_request = 2 * len(self.weights) + 1
        self.digest_ops = per_request  # the first request after the warm-up
        self.mix_ops = len(SL_CHOICES) * per_request

    def setup(self):
        amap = AddressMap(BATTERY_GEO)
        placements = layout.model_placements(PHASE_MODEL, amap,
                                             banks_per_channel=ACTIVE_BANKS,
                                             channels_used=1)
        self.images = [layout.convert_to_pim_aware(
            layout.WeightMatrix(p.out_dim, p.in_dim, bf16.encode(w.astype(np.float32))), p)
            for (_, p), w in zip(placements, self.weights)]
        last = placements[-1][1]
        probe_p = layout.PimPlacement(amap, *PROBE_SHAPE,
                                      banks_per_channel=ACTIVE_BANKS, channels_used=1,
                                      base_row=last.base_row + last.rows_needed)
        self.probe = layout.convert_to_pim_aware(
            layout.WeightMatrix(*PROBE_SHAPE, bf16.encode(self.probe_w.astype(np.float32))),
            probe_p)
        mem = memsys.MemorySystem(capacity=BATTERY_GEO.total_capacity + (1 << 20),
                                  cache=PHASE_CACHE)
        weights_end = self.images[-1].base_addr + self.images[-1].span_bytes
        mem.allocate_region(memsys.RegionKind.CONTIGUOUS_POOL,
                            memsys.Attribute.NON_CACHEABLE, weights_end,
                            name="pim_weights", align=1)
        mem.allocate_region(memsys.RegionKind.GENERAL, memsys.Attribute.CACHEABLE,
                            self.probe.base_addr + self.probe.span_bytes - weights_end,
                            name="probe_weights", align=1)
        self.engine = engine.PimGemvEngine(mem)
        ff = PHASE_MODEL.ff_bytes
        buffers = mem.allocate_region(memsys.RegionKind.GENERAL,
                                      memsys.Attribute.CACHEABLE, 2 * ff,
                                      name="ddb_buffers")
        self.buffers = (buffers.base, buffers.base + ff)
        self.mem = mem
        self.replay = LruReplay(PHASE_CACHE)
        # The probe's weight reads in protocol order, for the replay.
        self.probe_reads = [a for o in range(probe_p.slots)
                            for a in layout.burst_address_of_tile(
                                probe_p, o * probe_p.active_banks).tolist()]
        # The cache is warm after this first request.
        self._warm_up(self._request(np.random.default_rng(self.seed + 1),
                                    WARM_UP_SL, WARM_UP_OUT_LEN))

    def operations(self):
        rng = self.rng
        while True:
            for sl, out_len in zip(rng.permutation(SL_CHOICES),
                                   rng.permutation(OUT_LEN_CHOICES)):
                yield from self._request(rng, int(sl), int(out_len))

    def _request(self, rng, sl: int, out_len: int):
        for i, (image, w) in enumerate(zip(self.images, self.weights)):
            x = rng.integers(-4, 5, size=(w.shape[1], sl)).astype(np.float64)
            yield self._prefill(image, w, x, self.buffers[i % 2], sl)
        for image, w in zip(self.images, self.weights):
            xs = [rng.integers(-4, 5, size=w.shape[1]).astype(np.float64)
                  for _ in range(out_len)]
            yield self._decode(image, w, xs)
        yield self._probe(rng.integers(-4, 5, size=PROBE_SHAPE[1]).astype(np.float64))
        # Bound memory to one request's trace; the marks stay consistent.
        self.mem.trace.clear()
        self.mem.hit_log.clear()

    def _op(self, kind: str, run, check_values) -> Op:
        """Wraps a check with the counters and digest every op shares."""
        mem = self.mem
        mark = mem.mark()
        stats = mem.cache.stats.as_dict()

        def check(out):
            ok, data = check_values(out)
            after = mem.cache.stats.as_dict()
            _add_cache_delta(self.counters, stats, after)
            self.counters["dram_cmds"] += len(mem.trace) - mark[0]
            ok = ok and after == self.replay.stats
            return ok, lambda: (data() + json.dumps(after, sort_keys=True).encode()
                                + _trace_bytes(mem, mem.records_since(mark)))

        return Op(kind, run, check)

    def _prefill(self, image, w, x, buf: int, sl: int) -> Op:
        """Copy out of the PIM image, stage in a cacheable buffer, host GEMM."""
        mem = self.mem
        out_dim, in_dim = w.shape
        line = PHASE_CACHE.line_bytes
        lines = range(buf, buf + out_dim * in_dim * 2, line)

        def run():
            dst = np.zeros(out_dim * in_dim, dtype=np.uint16)
            copied = layout.smc_copy(image, range(out_dim), range(in_dim), dst, mem=mem)
            for addr in lines:
                mem.access(addr, "W", line)
            for _ in range(sl):
                for addr in lines:
                    mem.access(addr, "R", line)
            host_w = bf16.decode(dst.reshape(in_dim, out_dim).T).astype(np.float64)
            return copied, host_w @ x

        def check(out):
            copied, y = out
            for addr in lines:
                self.replay.access(addr, "W")
            for _ in range(sl):
                for addr in lines:
                    self.replay.access(addr, "R")
            self.counters["smc_bytes"] += copied
            ok = copied == out_dim * in_dim * 2 and np.array_equal(y, w @ x)
            return ok, y.tobytes

        return self._op("prefill", run, check)

    def _decode(self, image, w, xs) -> Op:
        """out_len exact GEMVs on the non-cacheable PIM image."""
        eng = self.engine
        jobs = [engine.GemvJob(image, bf16.encode(x.astype(np.float32)),
                               arithmetic="exact") for x in xs]

        def run():
            out = []
            for job in jobs:
                result = eng.execute(job)
                out.append((result, eng.verify_trigger_integrity(job, result)))
            return out

        def check(out):
            ok = True
            for job, x, (result, report) in zip(jobs, xs, out):
                self._count_job(job, result)
                ok = (ok and np.array_equal(result.output, w @ x) and report.ok
                      and result.triggered_mac_reads == job.expected_mac_reads)
            return ok, lambda: b"".join(r.output_bits.tobytes() for r, _ in out)

        return self._op("decode", run, check)

    def _probe(self, x) -> Op:
        """The attribute hazard: a GEMV on cacheable weights, run twice."""
        eng = self.engine
        job = engine.GemvJob(self.probe, bf16.encode(x.astype(np.float32)),
                             arithmetic="exact")

        def run():
            first = eng.execute(job)
            second = eng.execute(job)
            return first, second, eng.verify_trigger_integrity(job, second)

        def check(out):
            first, second, report = out
            for result in (first, second):
                self._count_job(job, result)
            for addr in self.probe_reads:
                self.replay.access(addr, "R")
            warm_hits = sum(self.replay.access(addr, "R") for addr in self.probe_reads)
            ok = report.status == "pim-blocked" and report.deficit == warm_hits
            return ok, f"{report.status} {report.deficit}".encode

        return self._op("probe", run, check)


# ----------------------------------------------------------------------
# sweep_3b
# ----------------------------------------------------------------------

SWEEP_MODEL = "llama3.2-3b"
SWEEP_IN_LENS = range(16, 1025, 16)   # 8 drawn per seed
SWEEP_OUT_LENS = range(1, 257)        # 4 drawn per seed


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


class Sweep3B(Workload):
    """``pimsim run`` over a 6 x 8 x 4 grid of the 3B model, repeated."""

    name = "sweep_3b"
    unit = "grid point"
    setup_repeats = 10
    digest_ops = mix_ops = 6 * 8 * 4
    trace_ops_per_s = 30.0

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        rng = np.random.default_rng(seed)
        in_lens = sorted(int(v) for v in rng.choice(SWEEP_IN_LENS, 8, replace=False))
        out_lens = sorted(int(v) for v in rng.choice(SWEEP_OUT_LENS, 4, replace=False))
        grid = [(s.value, i, o) for s in Scenario for i in in_lens for o in out_lens]
        os.makedirs(scratch, exist_ok=True)
        self.configs = []
        for n, (scenario, in_len, out_len) in enumerate(grid):
            path = os.path.join(scratch, f"point{n:03d}.json")
            with open(path, "w") as fh:
                json.dump({"model": SWEEP_MODEL, "scenario": scenario,
                           "in_len": in_len, "out_len": out_len,
                           "compute_pim_bytes": True}, fh)
            self.configs.append(path)
        self.order = [int(n) for n in rng.permutation(len(grid))]
        self.reports: dict[int, str] = {}

    def setup(self):
        # one point of each scenario; the grid holds the scenarios in order
        per_scenario = len(self.configs) // len(Scenario)
        self._warm_up(self._point(n, record=False)
                      for n in range(0, len(self.configs), per_scenario))

    def operations(self):
        for n in itertools.cycle(self.order):
            yield self._point(n)

    def _point(self, n: int, record: bool = True) -> Op:
        argv = ["run", "--config", self.configs[n]]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cli.main(argv)
            return status, out.getvalue()

        def check(out):
            status, text = out
            json.loads(text, parse_constant=_reject_constant)
            # every pass over the grid must repeat the first byte for byte
            first = self.reports.setdefault(n, text) if record else text
            return status == 0 and text == first, text.encode

        return Op("point", run, check)


WORKLOADS = {w.name: w for w in (GemvBattery, PhaseSwitch, Sweep3B)}


# ----------------------------------------------------------------------
# modeled clock
# ----------------------------------------------------------------------

# Full-model copies measured on the phone: (model, copy agents, seconds).
MEASURED_COPIES = (("llama3.2-1b", 2, 0.89), ("llama3.2-3b", 2, 2.54),
                   ("llama3.2-1b", 4, 0.6))


def modeled_clock() -> dict[str, tuple[float, str]]:
    """The modeled-clock metrics and their units: S-DDB on the 3B model at
    in_len 128, and the copy model's error against the measured copies."""
    hw = presets.hardware_preset("s24plus")
    model = presets.model_preset(SWEEP_MODEL)
    pim = presets.pim_weight_bytes(model)
    ddb = runtime.run_prefill(Scenario.S_DDB, model, hw, 128, pim_bytes=pim)
    facil = runtime.run_prefill(Scenario.FACIL_O, model, hw, 128, pim_bytes=pim)
    decode = runtime.run_decode(Scenario.S_DDB, model, hw, 1, pim_bytes=pim)
    copy_err = max(
        abs(cost.smc_time(presets.pim_weight_bytes(presets.model_preset(name)),
                          agents, hw) - seconds) / seconds
        for name, agents, seconds in MEASURED_COPIES)
    return {"model.ttft_s": (ddb.ttft, "s"),
            "model.decode_tps": (decode.tps, "1/s"),
            "model.ddb_gap_pct": (100.0 * (ddb.ttft - facil.ttft) / facil.ttft, "%"),
            "model.copy_err_pct": (100.0 * copy_err, "%")}
