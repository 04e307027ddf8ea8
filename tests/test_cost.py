"""Cost model: overhead table, calibrated latencies, capacity reports."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimsim.cost import (ONLINE_T, HardwareSpec, analytical_gemm_t,
                         capacity_report, decode_token_time, gemm_time,
                         rearrangement_overhead_table, smc_time)
from pimsim.errors import ConfigError, GeometryError
from pimsim.model import ModelSpec
from pimsim.presets import (MODELS, hardware_preset, model_preset,
                            pim_weight_bytes)
from pimsim.scenario import Scenario, Schedule

HW = hardware_preset("s24plus")


def test_overhead_table_rows():
    # independently derived: gemm = max(1, SL/4) t, online = 3 t,
    # percents rounded half-up
    expected = {
        "1-4": (Fraction(1), Fraction(4), 400, Fraction(3), 300),
        "8": (Fraction(2), Fraction(5), 250, Fraction(3), 150),
        "16": (Fraction(4), Fraction(7), 175, Fraction(4), 100),
        "32": (Fraction(8), Fraction(11), 138, Fraction(8), 100),
        "64": (Fraction(16), Fraction(19), 119, Fraction(16), 100),
        "128": (Fraction(32), Fraction(35), 109, Fraction(32), 100),
        "192": (Fraction(48), Fraction(51), 106, Fraction(48), 100),
    }
    rows = rearrangement_overhead_table()
    assert [r.sl_label for r in rows] == list(expected)
    for row in rows:
        gemm, total, sum_pct, peak, max_pct = expected[row.sl_label]
        assert (row.gemm_t, row.sum_t, row.sum_pct) == (gemm, total, sum_pct)
        assert (row.max_t, row.max_pct) == (peak, max_pct)
        assert row.online_t == Fraction(3)
        assert row.dram_t == Fraction(1)


def test_analytical_gemm_is_exact_rational():
    assert analytical_gemm_t(2) == Fraction(1)
    assert analytical_gemm_t(30) == Fraction(30, 4)
    assert ONLINE_T == Fraction(3)


def test_calibrated_gemm_roofline():
    # bandwidth-bound at tiny SL, compute-bound at large SL
    nbytes, params = 2_000_000, 1_000_000
    bw_bound = gemm_time(nbytes, params, 1, HW)
    assert bw_bound == pytest.approx(nbytes / (HW.dram_bw_gbps * 1e9))
    big = gemm_time(nbytes, params, 4096, HW)
    assert big == pytest.approx(2 * 4096 * params
                                / (HW.gemm_effective_gflops * 1e9))
    assert gemm_time(0, 0, 8, HW) == 0.0


def test_gemm_rejects_bad_sl():
    with pytest.raises(ConfigError):
        gemm_time(1, 1, 0, HW)


def test_smc_time_uses_per_agent_bandwidth():
    assert smc_time(2.87e9, 2, HW) == pytest.approx(1.0)
    assert smc_time(4.25e9, 4, HW) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        smc_time(1, 3, HW)
    override = replace(HW, smc_bw_override_gbps=10.0)
    assert smc_time(10e9, 3, override) == pytest.approx(1.0)


def test_hardware_validation():
    with pytest.raises(ConfigError):
        HardwareSpec(dram_bw_gbps=0)
    with pytest.raises(ConfigError):
        HardwareSpec(gemm_effective_gflops=1000.0)
    with pytest.raises(ConfigError):
        HardwareSpec(host_overhead_per_token=-1)
    for bad in (math.nan, math.inf):
        for name in ("dram_bw_gbps", "smc_bw_override_gbps",
                     "host_overhead_per_token", "host_attn_seconds_per_layer"):
            with pytest.raises(ConfigError):
                HardwareSpec(**{name: bad})
    with pytest.raises(ConfigError):
        HardwareSpec(smc_bw_override_gbps=0.0)
    for name in ("dram_bw_gbps", "smc_bw_override_gbps", "host_overhead_per_token"):
        for bad in (True, "1"):
            with pytest.raises(ConfigError):
                HardwareSpec(**{name: bad})


def test_capacity_report_structure():
    model = model_preset("llama3.2-1b")
    host = model.host_bytes()
    pim = host + 80_000_000
    summary = {s.value: capacity_report(model, s, pim) for s in Scenario}
    wd = summary["wd"]["total_bytes"]
    assert wd == host + pim
    # single-copy scenarios strictly beat duplication
    for name in ("facil_o", "s_ddb", "s_owr"):
        assert summary[name]["total_bytes"] < wd
        assert 0 < summary[name]["savings_vs_wd_pct"] < 100
    # DDB's buffer is twice OWR's
    assert (summary["s_ddb"]["buffer_bytes"]
            == 2 * summary["s_owr"]["buffer_bytes"]
            == 2 * model.ff_bytes)
    assert summary["facil_o"]["buffer_bytes"] == 0


def test_scenario_table_states_the_papers_facts():
    """The paper's facts in each scenario's record, and the capacity report
    read from the record alone."""
    records = {s: s.record for s in Scenario}
    assert records[Scenario.WD].host_copy and records[Scenario.WD].pim_copy
    assert [s for s, r in records.items() if r.host_copy] \
        == [Scenario.WD, Scenario.C_GEMM]
    # C_GEMM is the only scenario without a PIM-aware copy, so without PIM decode
    assert [s for s, r in records.items() if not r.pim_copy] == [Scenario.C_GEMM]
    ddb, owr = records[Scenario.S_DDB], records[Scenario.S_OWR]
    assert (ddb.buffers, ddb.copy_agents) == (2, 2)
    assert (owr.buffers, owr.copy_agents) == (1, 4)
    assert {r.schedule for r in records.values()} == set(Schedule)
    for scenario, r in records.items():
        # a scenario copies exactly when it has buffers to copy into, with a
        # calibrated bandwidth
        assert bool(r.copy_agents) == bool(r.buffers), scenario
        if r.copy_agents:
            assert HardwareSpec().smc_bw_gbps(r.copy_agents) > 0
    model = model_preset("llama3.2-3b")
    host, pim = model.host_bytes(), pim_weight_bytes(model)
    for scenario, r in records.items():
        assert capacity_report(model, scenario, pim)["total_bytes"] \
            == host * r.host_copy + pim * r.pim_copy + r.buffers * model.ff_bytes


@pytest.mark.parametrize("element_bytes", [1, 2, 4])
def test_pim_image_is_sized_with_the_models_element_size(element_bytes):
    """A burst holds ``32 / element_bytes`` elements of the model, so the
    padding stays within a tenth of the weights at every element size."""
    model = replace(model_preset("llama3.2-1b"), element_bytes=element_bytes)
    report = capacity_report(model, Scenario.S_DDB, pim_weight_bytes(model))
    assert 0 <= report["padding_bytes"] <= 0.1 * model.host_bytes()


@pytest.mark.parametrize("element_bytes", [3, 64])
def test_pim_image_rejects_an_element_no_burst_holds(element_bytes):
    model = replace(model_preset("toy-64"), element_bytes=element_bytes)
    with pytest.raises(GeometryError):
        pim_weight_bytes(model)


def test_preset_pim_weight_bytes_are_unchanged():
    assert {name: pim_weight_bytes(model_preset(name)) for name in MODELS} == {
        "llama3.2-1b": 2_541_748_224, "llama3.2-3b": 6_429_868_032,
        "toy-64": 2_359_296}


def test_decode_token_time_scaling():
    model = model_preset("llama3.2-1b")
    pim = decode_token_time(model, HW, use_pim=True)
    host = decode_token_time(model, HW, use_pim=False)
    assert host / pim == pytest.approx(HW.pim_bw_multiplier)
    padded = decode_token_time(model, HW, use_pim=True,
                               pim_bytes=model.host_bytes() + 1000)
    assert padded > pim


def test_model_spec_parameter_counts():
    model = model_preset("llama3.2-1b")
    # per layer: q,o = H*H; k,v = (H/4)*H; ff0,ff1,ff2 = 4*H*H each
    h = model.hidden
    per_layer = 2 * h * h + 2 * h * h // 4 + 3 * 4 * h * h
    assert model.layer_params() == per_layer
    assert model.total_params() == (model.layers * per_layer
                                    + model.vocab * h)
    assert model.host_bytes() == 2 * model.total_params()


@st.composite
def _model_specs(draw):
    kv_ratio = draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3)]))
    return ModelSpec(hidden=draw(st.integers(1, 4096)) * kv_ratio.denominator,
                     intermediate=draw(st.integers(1, 16384)), layers=draw(st.integers(0, 40)),
                     kv_ratio=kv_ratio, vocab=draw(st.integers(0, 200_000)),
                     element_bytes=draw(st.integers(1, 8)))


@settings(max_examples=100, deadline=None)
@given(_model_specs())
@example(ModelSpec(hidden=64, intermediate=128, layers=0))
@example(ModelSpec(hidden=64, intermediate=128, layers=3, vocab=0))
@example(ModelSpec(hidden=64, intermediate=128, layers=0, vocab=1000))
def test_model_totals_equal_the_sum_over_its_matrices(model):
    """The totals that ``ModelSpec`` keeps from its construction are the
    sums a reader would take over every matrix."""
    assert model.total_params() == sum(m.params() for m in model.all_matrices())
    assert model.host_bytes() == model.total_params() * model.element_bytes


def test_kv_ratio_must_divide_hidden():
    with pytest.raises(ConfigError):
        ModelSpec(hidden=10, intermediate=40, layers=1,
                  kv_ratio=Fraction(1, 4))
