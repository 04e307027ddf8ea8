"""End-to-end acceptance checks.

Each test prints exactly one summary line of the form
``acceptance N (<topic>): PASS`` (a raised assertion marks failure).
"""

import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pimsim import bf16
from pimsim.cli import main as cli_main
from pimsim.cost import (HardwareSpec, capacity_report, decode_token_time,
                         rearrangement_overhead_table, smc_time)
from pimsim.dram import AddressMap, DramGeometry
from pimsim.engine import GemvJob, PimGemvEngine
from pimsim.layout import (PimPlacement, WeightMatrix, burst_address_of_tile,
                           convert_to_pim_aware, pim_coord_of_element,
                           unswizzle)
from pimsim.memsys import Attribute, CacheConfig, MemorySystem, RegionKind
from pimsim.presets import hardware_preset, model_preset, pim_weight_bytes
from pimsim.runtime import end_to_end_grid, run_decode, run_prefill
from pimsim.scenario import Scenario

HW = hardware_preset("s24plus")
GB = 1e9

BATTERY_GEO = DramGeometry(channels=1, ranks_per_channel=1, banks_per_rank=16,
                           rows_per_bank=4096, columns_per_row=32)
BATTERY_AMAP = AddressMap(BATTERY_GEO)


def _passed(number, topic):
    print(f"acceptance {number} ({topic}): PASS")


# ----------------------------------------------------------------------
# 1. overhead table
# ----------------------------------------------------------------------

def test_acceptance_1_overhead_table():
    start = time.time()
    expected = [
        ("1-4", 1, 3, 4, 400, 3, 300),
        ("8", 2, 3, 5, 250, 3, 150),
        ("16", 4, 3, 7, 175, 4, 100),
        ("32", 8, 3, 11, 138, 8, 100),
        ("64", 16, 3, 19, 119, 16, 100),
        ("128", 32, 3, 35, 109, 32, 100),
        ("192", 48, 3, 51, 106, 48, 100),
    ]
    rows = rearrangement_overhead_table()
    got = [(r.sl_label, r.gemm_t, r.online_t, r.sum_t, r.sum_pct,
            r.max_t, r.max_pct) for r in rows]
    want = [(label, Fraction(g), Fraction(o), Fraction(s), sp,
             Fraction(mx), mp) for label, g, o, s, sp, mx, mp in expected]
    assert got == want
    assert all(r.dram_t == Fraction(1) for r in rows)
    assert time.time() - start < 1.0
    _passed(1, "analytical overhead table, 7 rows bit-exact")


# ----------------------------------------------------------------------
# 2. capacity savings
# ----------------------------------------------------------------------

def test_acceptance_2_capacity_savings():
    cases = [
        ("llama3.2-1b", 2.47e9, 2.47e9 + 80e6, 47.8, 48.5),
        ("llama3.2-3b", 6.4e9, 6.4e9, 49.4, 49.7),
    ]
    for name, host, pim, ddb_want, owr_want in cases:
        model = model_preset(name)
        ddb = capacity_report(model, Scenario.S_DDB, int(pim),
                              host_bytes=int(host))
        owr = capacity_report(model, Scenario.S_OWR, int(pim),
                              host_bytes=int(host))
        assert abs(ddb["savings_vs_wd_pct"] - ddb_want) <= 0.5, name
        assert abs(owr["savings_vs_wd_pct"] - owr_want) <= 0.5, name
    _passed(2, "capacity savings within 0.5 pp on both model scales")


def test_capacity_savings_from_the_computed_pim_image():
    """The savings of ``test_acceptance_2``, from the model's own host bytes
    and its computed phone-geometry PIM image instead of rounded figures."""
    for name, ddb_want, owr_want in [("llama3.2-1b", 47.8, 48.5),
                                     ("llama3.2-3b", 49.4, 49.7)]:
        model = model_preset(name)
        pim = pim_weight_bytes(model)
        ddb = capacity_report(model, Scenario.S_DDB, pim)
        owr = capacity_report(model, Scenario.S_OWR, pim)
        assert abs(ddb["savings_vs_wd_pct"] - ddb_want) <= 0.5, name
        assert abs(owr["savings_vs_wd_pct"] - owr_want) <= 0.5, name


# ----------------------------------------------------------------------
# 3. GEMV oracle battery
# ----------------------------------------------------------------------

def _battery_job(rng):
    M = int(rng.integers(1, 513))
    K = int(rng.integers(1, 1025))
    p = PimPlacement(BATTERY_AMAP, M, K, banks_per_channel=4, channels_used=1)
    return M, K, p


def test_acceptance_3_gemv_battery():
    start = time.time()
    rng = np.random.default_rng(2024)
    n_jobs = 1000
    worst_rel = 0.0
    for i in range(n_jobs):
        M, K, p = _battery_job(rng)
        mem = MemorySystem(capacity=BATTERY_GEO.total_capacity + (1 << 16))
        exact_mode = i % 2 == 0
        if exact_mode:
            w = rng.integers(-4, 5, size=(M, K)).astype(np.float64)
            x = rng.integers(-4, 5, size=K).astype(np.float64)
        else:
            w = rng.standard_normal((M, K))
            x = rng.standard_normal(K)
        image = convert_to_pim_aware(
            WeightMatrix(M, K, bf16.encode(w.astype(np.float32))), p)
        mem.allocate_region(RegionKind.CONTIGUOUS_POOL,
                            Attribute.NON_CACHEABLE,
                            image.base_addr + image.span_bytes, align=1)
        engine = PimGemvEngine(mem)
        xbits = bf16.encode(x.astype(np.float32))
        if exact_mode:
            result = engine.execute(GemvJob(image, xbits, arithmetic="exact"))
            assert np.array_equal(result.output, w @ x), (i, M, K)
        else:
            result = engine.execute(GemvJob(image, xbits, arithmetic="bf16"))
            oracle = (bf16.decode(bf16.encode(w)).astype(np.float64)
                      @ bf16.decode(xbits).astype(np.float64))
            scale = max(np.abs(oracle).max(), 1.0)
            rel = np.abs(result.output - oracle).max() / scale
            assert rel <= 2.0 ** -7, (i, M, K, rel)
            worst_rel = max(worst_rel, rel)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _passed(3, f"{n_jobs} GEMV jobs vs oracle, worst bf16 rel err "
               f"{worst_rel:.2e}, {elapsed:.1f} s")


# ----------------------------------------------------------------------
# 4. layout round trip + placement invariants
# ----------------------------------------------------------------------

def test_acceptance_4_layout_round_trip():
    rng = np.random.default_rng(7)
    for i in range(500):
        M = int(rng.integers(1, 400))
        K = int(rng.integers(1, 600))
        banks = int(rng.choice([1, 2, 4, 8, 16]))
        p = PimPlacement(BATTERY_AMAP, M, K, banks_per_channel=banks,
                         channels_used=1)
        w = WeightMatrix(M, K, rng.integers(0, 1 << 16, size=(M, K),
                                            dtype=np.uint16))
        image = convert_to_pim_aware(w, p)
        assert np.array_equal(unswizzle(image).data, w.data), (i, M, K)
        # row locality: one (channel, bank) per matrix row
        m = int(rng.integers(0, M))
        ks = [0, K - 1, int(rng.integers(0, K))]
        coords = [pim_coord_of_element(p, m, k) for k in ks]
        assert len({(c.channel, c.bank) for c in coords}) == 1
        # burst-column-major: within a tile, bursts walk input columns
        addrs = burst_address_of_tile(p, 0)
        decoded_cols = [(a >> 9) & 31 for a in addrs[:32].tolist()]
        assert decoded_cols == list(range(min(32, p.k_pad)))[:len(decoded_cols)]
    _passed(4, "500 host->PIM->SMC->host round trips with placement "
               "invariants")


# ----------------------------------------------------------------------
# 5. attribute inconsistency
# ----------------------------------------------------------------------

class _LruOracle:
    """Independent LRU model used to predict warm hits of the second run."""

    def __init__(self, config):
        self.config = config
        self.sets = [[] for _ in range(config.sets)]

    def read(self, addr):
        lb = self.config.line_bytes
        line = addr - addr % lb
        idx = (line // lb) % self.config.sets
        ways = self.sets[idx]
        hit = line in ways
        if hit:
            ways.remove(line)
        elif len(ways) >= self.config.ways:
            ways.pop(0)
        ways.append(line)
        return hit


def _protocol_weight_reads(job):
    p = job.placement
    for o in range(p.slots):
        for a in burst_address_of_tile(p, o * p.active_banks).tolist():
            yield a


def test_acceptance_5_attribute_inconsistency():
    rng = np.random.default_rng(11)
    M, K = 128, 384
    w = rng.integers(-3, 4, size=(M, K)).astype(np.float64)
    x = rng.integers(-3, 4, size=K).astype(np.float64)
    xbits = bf16.encode(x.astype(np.float32))
    cache = CacheConfig(capacity=1 << 21)

    def build(attr):
        p = PimPlacement(BATTERY_AMAP, M, K, banks_per_channel=4,
                         channels_used=1)
        image = convert_to_pim_aware(
            WeightMatrix(M, K, bf16.encode(w.astype(np.float32))), p)
        mem = MemorySystem(capacity=BATTERY_GEO.total_capacity + (1 << 16),
                           cache=cache)
        mem.allocate_region(RegionKind.CONTIGUOUS_POOL, attr,
                            image.base_addr + image.span_bytes, align=1)
        return PimGemvEngine(mem), image

    # cacheable placement: second run is blocked by warm lines
    engine, image = build(Attribute.CACHEABLE)
    job = GemvJob(image, xbits, arithmetic="exact")
    engine.execute(job)
    result2 = engine.execute(job)
    report = engine.verify_trigger_integrity(job, result2)
    assert report.status == "pim-blocked"
    oracle = _LruOracle(cache)
    for addr in _protocol_weight_reads(job):  # run 1
        oracle.read(addr)
    warm_hits = sum(oracle.read(addr)  # run 2
                    for addr in _protocol_weight_reads(job))
    assert report.deficit == warm_hits > 0

    # non-cacheable placement: both runs show the exact formula count
    engine, image = build(Attribute.NON_CACHEABLE)
    job = GemvJob(image, xbits, arithmetic="exact")
    for _ in range(2):
        result = engine.execute(job)
        report = engine.verify_trigger_integrity(job, result)
        assert report.ok
        assert result.triggered_mac_reads == job.expected_mac_reads
        assert np.array_equal(result.output, w @ x)
    _passed(5, f"cacheable run blocked with deficit == {warm_hits} warm "
               "hits; non-cacheable runs at formula count")


# ----------------------------------------------------------------------
# 6. SMC calibration
# ----------------------------------------------------------------------

def test_acceptance_6_smc_calibration():
    pim_1b = pim_weight_bytes(model_preset("llama3.2-1b"))
    pim_3b = pim_weight_bytes(model_preset("llama3.2-3b"))
    cases = [(pim_1b, 2, 0.89), (pim_3b, 2, 2.54), (pim_1b, 4, 0.6)]
    for nbytes, agents, want in cases:
        got = smc_time(nbytes, agents, HW)
        assert abs(got - want) / want <= 0.20, (agents, got, want)
    _passed(6, "full-model copy latencies within 20% at 2 and 4 agents")


# ----------------------------------------------------------------------
# 7. DDB hiding
# ----------------------------------------------------------------------

def test_acceptance_7_ddb_hiding():
    model = model_preset("llama3.2-1b")
    gaps = {}
    for sl in (64, 96, 128, 160, 192):
        facil = run_prefill(Scenario.FACIL_O, model, HW, sl).ttft
        ddb = run_prefill(Scenario.S_DDB, model, HW, sl).ttft
        gaps[sl] = (ddb - facil) / facil
    for sl in (128, 160, 192):
        assert gaps[sl] <= 0.01, (sl, gaps[sl])
    for sl in (64, 96):
        assert 0.0 < gaps[sl] <= 0.25, (sl, gaps[sl])
    for sl in (64, 128, 192):
        facil = run_prefill(Scenario.FACIL_O, model, HW, sl)
        owr = run_prefill(Scenario.S_OWR, model, HW, sl)
        assert owr.ttft == facil.ttft + owr.breakdown["smc_seconds"]
    _passed(7, "DDB gap <= 1% at 128-192, in (0, 25%] at 64-96; "
               "OWR == compute + copy exactly")


# ----------------------------------------------------------------------
# 8. decode speedup bounds
# ----------------------------------------------------------------------

def test_acceptance_8_decode_speedup():
    model = model_preset("llama3.2-1b")
    pim = pim_weight_bytes(model)
    variants = [HW, replace(HW, pim_bw_multiplier=4.0),
                replace(HW, host_overhead_per_token=0.002)]
    for hw in variants:
        for pim_bytes in (None, pim):
            ratio = (decode_token_time(model, hw, use_pim=False)
                     / decode_token_time(model, hw, use_pim=True,
                                         pim_bytes=pim_bytes))
            assert ratio <= hw.pim_bw_multiplier + 1e-12
    lens = [64, 96, 128, 160, 192]
    speedups = [r["speedup_vs_c_gemm"] for r in end_to_end_grid(
        model, HW, [Scenario.S_OWR], lens, lens, pim_bytes=pim)]
    grid = [speedups[n:n + len(lens)] for n in range(0, len(speedups),
                                                      len(lens))]
    peak = max(max(row) for row in grid)
    assert 2.5 <= peak <= 8.0, peak
    for row in grid:
        assert row == sorted(row)
    _passed(8, f"decode speedup bounded by the PIM multiplier; end-to-end "
               f"peak {peak:.2f} in [2.5, 8], monotone in out_len")


# ----------------------------------------------------------------------
# 9. NC-GEMM degradation
# ----------------------------------------------------------------------

def test_acceptance_9_nc_gemm_degradation():
    model = model_preset("llama3.2-1b")
    prev = None
    for sl in (48, 96, 192):
        t = run_prefill(Scenario.NC_GEMM, model, HW, sl).ttft
        if prev is not None:
            assert t / prev >= 1.8, (sl, t / prev)
        prev = t
    c = run_prefill(Scenario.C_GEMM, model, HW, 192).ttft
    factor = prev / c
    assert factor >= 10.0, factor
    _passed(9, f"NC-GEMM TTFT scales >= 1.8x per doubling and is "
               f"{factor:.0f}x the cacheable baseline at 192")


# ----------------------------------------------------------------------
# 10. determinism
# ----------------------------------------------------------------------

def test_acceptance_10_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": "llama3.2-1b", "scenario": "s_ddb", "in_len": 128,
        "out_len": 32, "compute_pim_bytes": True, "timeline": True}))
    reports = []
    for _ in range(3):
        assert cli_main(["run", "--config", str(cfg)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    _passed(10, "byte-identical reports across three repeats")
