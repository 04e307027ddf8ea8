"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pimsim import memsys  # noqa: E402


def test_self_times_over_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    assert tracing.self_times(parents, starts, ends).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_self_times_sum_to_the_root():
    tracer = tracing.Tracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)])
    with tracer.span("root"):
        outer()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 3
    assert summary["outer"]["total_s"] >= summary["inner"]["total_s"] > 0
    total = sum(s["self_s"] for s in summary.values())
    assert total == pytest.approx(summary["root"]["total_s"])


def test_install_wraps_every_binding_and_uninstall_restores():
    import pimsim.cli
    import pimsim.runtime
    original = pimsim.runtime.run_prefill
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pimsim.cli.run_prefill is pimsim.runtime.run_prefill is not original
    finally:
        tracer.uninstall()
    assert pimsim.cli.run_prefill is pimsim.runtime.run_prefill is original


def test_end_to_end_refuses_too_few_samples_for_a_p90(tmp_path):
    workload = workloads.Sweep3B(1, str(tmp_path))
    workload.mix_ops = 1
    p = run.Pass(workload)
    p.setups.append((1.0, 0))
    p.references.append((run.REF_NOMINAL_S, 0))
    p.attempted = run.MIN_SAMPLES - 1
    p.latencies = [1e-3] * (run.MIN_SAMPLES - 1)
    with pytest.raises(RuntimeError):
        run.end_to_end(workload, p)
    p.latencies.append(1e-3)
    p.attempted += 1
    metrics = run.end_to_end(workload, p)
    assert metrics["op_p90_ms"]["samples"] == run.MIN_SAMPLES


def test_slowdowns_take_the_median_of_nearby_blocks():
    nominal = run.REF_NOMINAL_S
    n = run.REF_NEIGHBOURS
    # a block every 10 operations: 3n at the nominal time, then 3n at twice it
    refs = [(nominal if j < 3 * n else 2 * nominal, 10 * j) for j in range(6 * n)]
    factors = run.slowdowns(refs, [0, 10 * n, 10 * (5 * n), 10 * 6 * n + 5])
    assert factors == pytest.approx([1.0, 1.0, 2.0 ** run.SLOWDOWN_EXPONENT,
                                     2.0 ** run.SLOWDOWN_EXPONENT])


def test_host_reference_is_positive_and_steady_in_one_process():
    reference = run.HostReference()
    blocks = [reference.block() for _ in range(5)]
    assert min(blocks) > 0
    assert max(blocks) < 5 * min(blocks)


def test_lru_replay_matches_the_cache_model():
    config = memsys.CacheConfig(capacity=4096, line_bytes=64, ways=4)
    mem = memsys.MemorySystem(capacity=1 << 16, cache=config)
    mem.allocate_region(memsys.RegionKind.GENERAL, memsys.Attribute.CACHEABLE,
                        1 << 15)
    replay = workloads.LruReplay(config)
    rng = np.random.default_rng(3)
    for _ in range(3000):
        addr = int(rng.integers(0, 1 << 9)) * 64
        op = "W" if rng.random() < 0.3 else "R"
        hit = mem.access(addr, op, 64) is memsys.Source.CACHE
        assert replay.access(addr, op) == hit
    assert replay.stats == mem.cache.stats.as_dict()


def test_battery_at_seed_2024_is_the_acceptance_job_stream():
    spec = importlib.util.spec_from_file_location(
        "acceptance", ROOT / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    rng = np.random.default_rng(2024)
    expected = []
    for i in range(6):
        m, k, _ = acceptance._battery_job(rng)
        if i % 2 == 0:
            rng.integers(-4, 5, size=(m, k))
            rng.integers(-4, 5, size=k)
        else:
            rng.standard_normal((m, k))
            rng.standard_normal(k)
        expected.append((m, k))
    battery = workloads.GemvBattery(2024, "")
    battery.amap = workloads.AddressMap(workloads.BATTERY_GEO)
    ops = battery.operations()
    got = []
    for _ in range(6):
        _, job, _, _ = next(ops).run()
        got.append((job.placement.out_dim, job.placement.in_dim))
    assert got == expected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    count = 4
    plain = run.Pass(run.timed_setup(lambda: cls(5, str(tmp_path / "a")))[0])
    plain.run_count(count)
    tracer.install()
    try:
        workload, _ = run.timed_setup(lambda: cls(5, str(tmp_path / "b")), tracer)
        traced = run.Pass(workload, tracer)
        traced.run_count(count)
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    layer = run.per_layer(workload, tracer.summary(), 2.0, 1.0, len(tracer.start))
    if name == "sweep_3b":
        assert layer["engine.jobs"]["value"] == 0
        assert layer["runtime.prefill_calls"]["value"] == 3 * (count + 6)
    else:
        assert layer["engine.jobs"]["value"] > 0
        assert layer["runtime.prefill_calls"]["value"] == 0
        assert layer["memsys.accesses"]["value"] > 0
    assert layer["dram.decode_address_calls"]["value"] == 0


def test_phase_switch_request_evicts_and_blocks_the_probe(tmp_path):
    workload = workloads.PhaseSwitch(7, str(tmp_path))
    workload.setup()
    p = run.Pass(workload)
    p.run_count(workload.digest_ops)
    assert p.failed == 0
    assert workload.counters["cache_evictions"] > 0
    assert workload.counters["cache_writebacks"] > 0
    assert workload.counters["mac_reads"] < workload.counters["mac_expected"]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_3b",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
