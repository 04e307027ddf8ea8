"""pimsim benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload gemv_battery --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload runs as a closed loop for ``--seconds`` and
the end-to-end metrics are reported.  With ``--trace 1`` a fixed number of
operations (proportional to ``--seconds``) runs twice from a fresh set-up,
first untraced, then with every layer boundary wrapped in a span; the
per-layer metrics and the tracing overhead are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it,
starting with ``report``, holds every metric with its unit, sample count and
clock, the digest of simulated output, and the environment.  The exit code
is 0 only if every operation passed its check.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SHOWN_FAILURES = 3
# Fewest operations a p90 is taken over: ten samples lie beyond it.
MIN_SAMPLES = 100
# The host reference is timed every REF_EVERY_S of the run; an operation's
# host slowdown is the median of the REF_NEIGHBOURS blocks on either side.
REF_EVERY_S = 0.25
REF_NEIGHBOURS = 8
# A reference block's time on the 2-core Xeon host when it was quiet; host
# times are scaled to it, so it sets only the scale of the scaled metrics.
REF_NOMINAL_S = 7.5e-4
# The workloads slow down on a busy host as the reference's slowdown to
# this power, the same for every workload (README.md).
SLOWDOWN_EXPONENT = 0.75


class HostReference:
    """A fixed piece of interpreter, object-chasing and numpy work that does
    not use pimsim, timed apart from the operations to measure how fast the
    shared host runs at that moment.

    Its host slowdown tracks the workloads' (README.md).  Each timing first
    writes a private buffer larger than a core's L2, so the kernel starts
    from the same cache state whatever the operation before it left there.
    """

    REPS = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.buffer = np.zeros(1 << 19)               # 4 MiB
        self.index = rng.integers(0, self.buffer.size, 1 << 15)
        order = rng.permutation(30_000).tolist()
        self.heap = [(i, i * 7) for i in order]
        self.chase = rng.integers(0, len(self.heap), 4000).tolist()

    def kernel(self) -> float:
        self.buffer[::8] += 1.0   # one write per cache line
        t0 = time.perf_counter()
        seen = {}
        out = []
        for i in range(1200):
            key = (i * 2654435761) & 1023
            seen[key] = seen.get(key, 0) + 1
            out.append((i, key, "R"))
        total = 0
        for i in self.chase:
            total += self.heap[i][1]
        total += int(self.buffer[self.index].sum())
        return time.perf_counter() - t0

    def block(self) -> float:
        """Median time of REPS kernels."""
        return statistics.median(self.kernel() for _ in range(self.REPS))


class Pass:
    """Closed-loop execution of one workload's operations."""

    def __init__(self, workload, tracer=None, reference=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.latencies: list[float] = []
        # (seconds, operations timed before it) of each timed set-up, and
        # of each host reference block
        self.setups: list[tuple[float, int]] = []
        self.references: list[tuple[float, int]] = []
        self.counters_before = dict(workload.counters)
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def step(self, op):
        """Run, time and check one operation; a raise counts as a failure."""
        index = self.attempted
        self.attempted += 1
        try:
            if self.tracer is None:
                t0 = time.perf_counter()
                out = op.run()
                self.latencies.append(time.perf_counter() - t0)
            else:
                self.tracer.current_op = index
                with self.tracer.span("op." + op.kind):
                    out = op.run()
            ok, data = op.check(out)
        except Exception:  # noqa: BLE001 - one failed operation must not end the run
            ok = False
            if self.failed < SHOWN_FAILURES:
                traceback.print_exc()
        if not ok:
            self.failed += 1
            if self.failed <= SHOWN_FAILURES:
                print(f"{self.workload.name}: operation {index} ({op.kind}) failed "
                      "its check", file=sys.stderr)
        if index < self.workload.digest_ops:
            self.digest.update(data() if ok else b"failed")

    def run_for(self, seconds: float, make=None, setups: int = 0):
        """The closed loop for ``seconds``.  Until ``self.setups`` holds
        ``setups`` entries, a fresh set-up from ``make`` is timed at each
        ``seconds / setups`` of the run, so that set-ups sample the host's
        speed across the run as the operations do; their workloads are
        discarded.  A set-up waits for the start of a mix, when the running
        workload has let go of the previous mix's state, so it adds little
        to peak memory.  With a reference, a block of it is timed between
        operations every REF_EVERY_S."""
        ops = self.workload.operations()
        start = last_reference = time.perf_counter()
        self.take_reference()
        while True:
            now = time.perf_counter()
            elapsed = now - start
            if elapsed >= seconds and self.attempted >= self.min_ops():
                self.take_reference()
                return
            if now - last_reference >= REF_EVERY_S:
                self.take_reference()
                last_reference = now
            op = next(ops)
            if (len(self.setups) < setups
                    and elapsed >= len(self.setups) * seconds / setups
                    and self.attempted % self.workload.mix_ops == 0):
                self.setups.append((timed_setup(make)[1], len(self.latencies)))
            self.step(op)

    def take_reference(self):
        if self.reference is not None:
            self.references.append((self.reference.block(), len(self.latencies)))

    def run_count(self, count: int):
        ops = self.workload.operations()
        for _ in range(count):
            self.step(next(ops))

    def min_ops(self) -> int:
        # enough for the digest, two mixes and a p90
        return max(self.workload.digest_ops, 2 * self.workload.mix_ops,
                   MIN_SAMPLES)


def timed_setup(make, tracer=None):
    workload = make()
    t0 = time.perf_counter()
    if tracer is None:
        workload.setup()
    else:
        with tracer.span("setup"):
            workload.setup()
    return workload, time.perf_counter() - t0


def slowdowns(references: list[tuple[float, int]], positions) -> list[float]:
    """Host slowdown at each position (operations timed before it): the
    median reference time over the REF_NEIGHBOURS blocks on either side of
    the nearest block, over REF_NOMINAL_S, to SLOWDOWN_EXPONENT."""
    times = [t for t, _ in references]
    at = [i for _, i in references]
    out = []
    for pos in positions:
        j = min(bisect.bisect_left(at, pos), len(at) - 1)
        near = times[max(0, j - REF_NEIGHBOURS):j + REF_NEIGHBOURS + 1]
        out.append((statistics.median(near) / REF_NOMINAL_S) ** SLOWDOWN_EXPONENT)
    return out


def metric(value, unit: str, samples: int, clock: str = "host") -> dict:
    return {"value": value, "unit": unit, "samples": samples, "clock": clock}


def end_to_end(workload, p: Pass) -> dict:
    """Operation metrics over whole groups of ``mix_ops`` operations, the
    period over which the workload's mix of operations repeats.  Host times
    are divided by the host slowdown around them; ``raw.*`` are the same
    metrics unscaled."""
    n = len(p.latencies) // workload.mix_ops * workload.mix_ops
    if n < MIN_SAMPLES:
        raise RuntimeError(f"{n} operations are too few for a p90")
    raw = p.latencies[:n]
    factors = slowdowns(p.references, range(n))
    setup_factors = slowdowns(p.references, [i for _, i in p.setups])
    cmds = workload.counters["dram_cmds"] - p.counters_before.get("dram_cmds", 0)
    out = {}
    for prefix, lat, setups in (
            ("", [t / f for t, f in zip(raw, factors)],
             [t / f for (t, _), f in zip(p.setups, setup_factors)]),
            ("raw.", raw, [t for t, _ in p.setups])):
        lat_ms = [1e3 * t for t in lat]
        busy = sum(lat)
        out[prefix + "ops_per_s"] = metric(n / busy, "1/s", n)
        out[prefix + "op_p50_ms"] = metric(float(np.percentile(lat_ms, 50.0)), "ms", n)
        out[prefix + "op_p90_ms"] = metric(float(np.percentile(lat_ms, 90.0)), "ms", n)
        if cmds:  # only workloads that reach the memory system
            out[prefix + "sim_cmds_per_s"] = metric(
                cmds / p.attempted * n / busy, "1/s", n)
        out[prefix + "setup_s"] = metric(statistics.median(setups), "s", len(setups))
    out["host_slowdown"] = metric(statistics.median(factors), "1", len(p.references))
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    out["failed_frac"] = metric(p.failed / p.attempted, "1", p.attempted)
    return out


def per_layer(workload, summary: dict, traced_s: float, untraced_s: float,
              spans: int) -> dict:
    c = workload.counters

    def self_s(name):
        return metric(summary.get(name, {}).get("self_s", 0.0), "s",
                      summary.get(name, {}).get("calls", 0))

    def calls(name):
        return metric(summary.get(name, {}).get("calls", 0), "count", 1)

    def count(key, unit="count"):
        return metric(c[key], unit, 1)

    lookups = c["cache_hits"] + c["cache_misses"]
    out = {
        "memsys.init_s": self_s("memsys.init"),
        "memsys.access_s": self_s("memsys.access"),
        "memsys.accesses": calls("memsys.access"),
        "memsys.dram_cmds": count("dram_cmds"),
        "memsys.cache_hits": count("cache_hits"),
        "memsys.cache_misses": count("cache_misses"),
        "memsys.evictions": count("cache_evictions"),
        "memsys.writebacks": count("cache_writebacks"),
        "memsys.hit_ratio": metric(c["cache_hits"] / lookups if lookups else 0.0,
                                   "ratio", lookups),
        "engine.execute_s": self_s("engine.execute"),
        "engine.trigger_s": self_s("engine.trigger"),
        "engine.verify_s": self_s("engine.verify"),
        "engine.jobs": calls("engine.execute"),
        "engine.mac_reads": count("mac_reads"),
        "engine.trigger_ratio": metric(
            c["mac_reads"] / c["mac_expected"] if c["mac_expected"] else 0.0,
            "ratio", c["engine_jobs"]),
        "layout.convert_s": self_s("layout.convert"),
        "layout.smc_s": self_s("layout.smc"),
        "layout.smc_bytes": count("smc_bytes", "B"),
        "layout.placement_s": self_s("layout.placement"),
        "presets.pim_weight_bytes_s": self_s("presets.pim_weight_bytes"),
        "runtime.prefill_s": self_s("runtime.prefill"),
        "runtime.prefill_calls": calls("runtime.prefill"),
        "runtime.decode_calls": calls("runtime.decode"),
        "runtime.layer_plan_calls": calls("runtime.layer_plan"),
        "runtime.ddb_schedule_s": self_s("runtime.ddb_schedule"),
        "cost.calls": calls("cost"),
        "cli.main_s": self_s("cli.main"),
        "dram.decode_address_calls": calls("dram.decode_address"),
        "dram.encode_coord_calls": calls("dram.encode_coord"),
        "trace.spans": metric(spans, "count", 1),
        "trace.overhead_s": metric(traced_s - untraced_s, "s", 1),
    }
    return out


def environment(args) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine() or "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(ROOT), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_table(name: str, metrics: dict):
    print(f"{'clock':6} {'metric':28} {'value':>16} {'unit':6} samples")
    for key, m in metrics.items():
        print(f"{m['clock']:6} {key:28} {m['value']:16.6g} {m['unit']:6} {m['samples']}")
    print(f"(model.* metrics are modeled time, validated only by the copy "
          f"calibration in model.copy_err_pct; every other metric of "
          f"{name} is host time or a count)")


def run(args, benchmarked: dict, workloads) -> int:
    cls = workloads.WORKLOADS[args.workload]
    scratch = OUT_DIR / f"{args.workload}-{os.getpid()}"
    make = lambda: cls(args.seed, str(scratch))  # noqa: E731
    wanted = benchmarked["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            from tracing import Tracer
            plain, passes, metrics = traced(cls, make, args, Tracer())
            attempted = plain.attempted + passes.attempted
            failed = plain.failed + passes.failed
            digest = passes.digest.hexdigest()
            if plain.digest.hexdigest() != digest:
                print("tracing changed the simulated output", file=sys.stderr)
                failed += 1
            workload = passes.workload
        else:
            reference = HostReference()
            workload, seconds = timed_setup(make)
            pass_ = Pass(workload, reference=reference)
            pass_.setups.append((seconds, 0))
            pass_.run_for(args.seconds, make, cls.setup_repeats)
            metrics = end_to_end(workload, pass_)
            attempted, failed = pass_.attempted, pass_.failed
            digest = pass_.digest.hexdigest()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics.update({name: metric(value, unit, 1, "model")
                    for name, (value, unit) in workloads.modeled_clock().items()})

    print(f"pimsim benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}; one operation is one "
          f"{workload.unit}")
    print_table(args.workload, metrics)
    print(f"digest {digest} (first {workload.digest_ops} operations)")
    report = {"workload": args.workload, "digest": digest,
              "digest_ops": workload.digest_ops, "attempted": attempted,
              "failed": failed, "env": environment(args), "metrics": metrics}
    print("report " + json.dumps(report, sort_keys=True))
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": metrics[m["name"]]["unit"]}
                    for m in wanted}}))
    return 0 if correct else 1


def traced(cls, make, args, tracer):
    """Untraced, then traced, pass over the same operations from fresh set-ups."""
    count = max(cls.digest_ops, round(cls.trace_ops_per_s * args.seconds))
    t0 = time.perf_counter()
    plain, _ = timed_setup(make)
    first = Pass(plain)
    first.run_count(count)
    untraced_s = time.perf_counter() - t0
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload, _ = timed_setup(make, tracer)
        second = Pass(workload, tracer)
        second.run_count(count)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    return first, second, per_layer(workload, tracer.summary(), traced_s,
                                    untraced_s, len(tracer.start))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "pimsim" / "__init__.py").is_file():
        print(f"error: no pimsim package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    benchmarked = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    return run(args, benchmarked, workloads)


if __name__ == "__main__":
    sys.exit(main())
