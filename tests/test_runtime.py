"""Prefill/decode scheduling and the functional prefill pipeline."""

import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimsim import bf16, runtime
from pimsim.cost import (analytical_prefill, capacity_report,
                         decode_token_time, gemm_time, smc_time)
from pimsim.dram import AddressMap
from pimsim.errors import ConfigError
from pimsim.layout import (PimPlacement, WeightMatrix, convert_to_pim_aware,
                           model_placements, unswizzle)
from pimsim.memsys import Attribute, MemorySystem, RegionKind
from pimsim.model import ModelSpec
from pimsim.presets import (DESK_GEOMETRY, HARDWARE, MODELS, hardware_preset,
                            model_preset, pim_weight_bytes)
from pimsim.runtime import (ddb_hiding_crossover, end_to_end_grid,
                            end_to_end_row, layer_plan, run_decode,
                            run_prefill, timeline_rows)
from pimsim.scenario import Scenario

HW = hardware_preset("s24plus")
M1B = model_preset("llama3.2-1b")


def ddb_rows(sl, model=M1B, hw=HW):
    return list(run_prefill(Scenario.S_DDB, model, hw, sl).timeline())


def agent_rows(rows, agent):
    return [r for r in rows if r["agent"] == agent]


# ----------------------------------------------------------------------
# Schedule structure
# ----------------------------------------------------------------------

def test_timeline_agents_never_overlap():
    rows = ddb_rows(64)
    for agent in ("compute", "copy"):
        mine = agent_rows(rows, agent)
        assert mine
        assert all(b["start"] >= a["end"] for a, b in zip(mine, mine[1:]))


def test_overlapping_segments_of_one_agent_are_rejected():
    """Two steps of one agent that overlap, or that come out of start order,
    are an error before any row; the same spans on two agents, or back to
    back on one, are not."""
    spans = [(0, "q", 0.0, 2.0), (0, "k", 1.0, 3.0)]
    with pytest.raises(ConfigError,
                       match="^overlapping segments for copy: layer0.q and layer0.k$"):
        timeline_rows(lambda: (("copy", *span, None) for span in spans))
    assert [r["layer"] for r in timeline_rows(
        lambda: ((agent, *span, None)
                 for agent, span in zip(("copy", "compute"), spans)))] \
        == ["layer0.q", "layer0.k"]
    assert len(list(timeline_rows(lambda: iter(
        [("copy", None, "a", 0.0, 1.0, None),
         ("copy", None, "b", 1.0, 2.0, None)])))) == 2
    # b ends before a starts: no overlap, but the merge needs start order
    with pytest.raises(ConfigError, match="^out-of-order segments for copy: a and b$"):
        timeline_rows(lambda: iter([("copy", None, "a", 1.0, 2.0, None),
                                    ("copy", None, "b", 0.0, 0.5, None)]))


def test_layer_plan_copy_pairing():
    segs = layer_plan(M1B, HW, 32)
    tags = [s.tag for s in segs]
    assert tags == ["q", "k", "v", "o", "ff0", "ff1", "ff2"]
    # FF0 arrives in four equal quarters during Q, K, V, O
    quarters = [s.copy_bytes for s in segs[:4]]
    assert len(set(quarters)) == 1
    assert sum(quarters) == M1B.ff_bytes
    assert {s.copy_tag for s in segs[:4]} == {"ff0"}
    # FF0 covers FF1's copy, FF1 covers FF2's, FF2 preloads the next layer
    assert segs[4].copy_tag == "ff1"
    assert segs[5].copy_tag == "ff2"
    assert segs[6].copy_tag == "qkvo"
    assert segs[6].copy_bytes == sum(m.params() for m in M1B.layer_matrices()
                                     if m.name in ("q", "k", "v", "o")) * 2
    # a host attention segment leads the plan and pairs no copy
    attn = layer_plan(M1B, replace(HW, host_attn_seconds_per_layer=1e-3), 32)
    assert [s.tag for s in attn] == ["attn"] + tags
    assert (attn[0].copy_bytes, attn[0].copy_tag) == (0.0, "")


def test_last_layer_has_no_next_preload():
    qkvo = [r["layer"] for r in agent_rows(ddb_rows(32), "copy")
            if r["layer"].endswith(".qkvo")]
    # the preload stands for layer 0's projections; the last layer has no
    # next layer to preload
    assert qkvo == [f"layer{layer}.qkvo" for layer in range(1, M1B.layers)]


def test_copy_conservation_per_layer():
    """Bytes copied while layer l computes equal the weights consumed by the
    segments they feed (FF0..FF2 of layer l plus the next layer's QKVO)."""
    rows = ddb_rows(96)
    eb = M1B.element_bytes
    nbytes = {m.name: m.params() * eb for m in M1B.layer_matrices()}
    qkvo = sum(nbytes[n] for n in ("q", "k", "v", "o"))
    copies = {}
    for row in agent_rows(rows, "copy"):
        copies.setdefault(row["layer"].split(".")[0], 0.0)
        copies[row["layer"].split(".")[0]] += row["end"] - row["start"]
    bw = HW.smc_bw_2agents_gbps * 1e9
    assert copies["preload"] * bw == pytest.approx(qkvo)
    for layer in range(1, M1B.layers):
        assert copies[f"layer{layer}"] * bw == pytest.approx(
            nbytes["ff0"] + nbytes["ff1"] + nbytes["ff2"] + qkvo)


def test_copy_agent_moves_exactly_the_model_once():
    rows = ddb_rows(32)
    busy = math.fsum(r["end"] - r["start"] for r in agent_rows(rows, "copy"))
    assert busy * HW.smc_bw_2agents_gbps * 1e9 \
        == pytest.approx(M1B.host_bytes())
    # hiding law: TTFT bounded below by total copy
    assert max(r["end"] for r in rows) >= busy


@st.composite
def drawn_points(draw):
    """A model of 0-4 layers, with or without a head, on drawn hardware, and
    an input length."""
    model = ModelSpec(hidden=draw(st.sampled_from([64, 96, 2048])),
                      intermediate=draw(st.sampled_from([128, 256, 8192])),
                      layers=draw(st.integers(0, 4)),
                      vocab=draw(st.sampled_from([0, 96, 128256])))
    bandwidth = st.floats(0.5, 20.0)
    hw = replace(HW, smc_bw_2agents_gbps=draw(bandwidth),
                 smc_bw_4agents_gbps=draw(bandwidth),
                 nc_stream_bw_gbps=draw(bandwidth),
                 dram_bw_gbps=draw(st.floats(5.0, 200.0)),
                 gemm_effective_gflops=draw(st.floats(10.0, 321.0)),
                 host_attn_seconds_per_layer=draw(
                     st.sampled_from([0.0, 1e-4, 1e-2])))
    return model, hw, draw(st.integers(1, 512))


@settings(max_examples=60, deadline=None)
@given(drawn_points())
def test_ddb_copies_every_weight_exactly_once(point):
    """Whatever the model shape, including a stack of zero layers, the copy
    agent moves each weight once: no preload of a layer that is not there."""
    model, hw, sl = point
    ddb = run_prefill(Scenario.S_DDB, model, hw, sl)
    agents = Scenario.S_DDB.record.copy_agents
    copied = ddb.breakdown["smc_seconds"] * hw.smc_bw_gbps(agents) * 1e9
    assert copied == pytest.approx(model.host_bytes(), rel=1e-9, abs=1e-6)
    assert ddb.ttft >= ddb.breakdown["gemm_seconds"]


@settings(max_examples=60, deadline=None)
@given(drawn_points())
def test_ddb_ttft_and_copy_time_need_no_timeline(point):
    """S_DDB's TTFT and copy time come without its timeline, and equal the
    end and copy durations of the rows that a call of ``timeline`` gives."""
    model, hw, sl = point
    with mock.patch.object(runtime, "build_ddb_schedule") as built:
        ddb = run_prefill(Scenario.S_DDB, model, hw, sl)
    assert not built.called
    rows = list(ddb.timeline())
    assert ddb.ttft == max((r["end"] for r in rows), default=0.0)
    assert ddb.breakdown["smc_seconds"] == math.fsum(
        r["end"] - r["start"] for r in agent_rows(rows, "copy"))


@settings(max_examples=60, deadline=None)
@given(drawn_points())
def test_every_calibrated_prefill_reads_one_plan(point):
    """The plan holds each layer matrix's bytes once, NC_GEMM equals an
    independent per-matrix sum, S_OWR adds its copies to the compute-only
    schedule exactly, and the three compute-only scenarios agree."""
    model, hw, sl = point
    eb = model.element_bytes
    head = model.head_matrix()
    head_bytes = head.params() * eb if head else 0
    plan = layer_plan(model, hw, sl)
    assert (sum(s.nbytes for s in plan) * model.layers + head_bytes
            == model.host_bytes())
    nc_bw = hw.nc_stream_bw_gbps * 1e9
    nc = run_prefill(Scenario.NC_GEMM, model, hw, sl)
    assert nc.ttft == math.fsum(
        [max(sl * m.params() * eb / nc_bw,
             gemm_time(m.params() * eb, m.params(), sl, hw))
         for m in model.all_matrices()]
        + [hw.host_attn_seconds_per_layer] * model.layers)
    assert nc.timeline() is None
    # the serial timelines are built when called, not before
    with mock.patch.object(runtime, "_serial_steps") as steps:
        wd, facil, c_gemm, owr = (
            run_prefill(s, model, hw, sl) for s in
            (Scenario.WD, Scenario.FACIL_O, Scenario.C_GEMM, Scenario.S_OWR))
    assert not steps.called
    for other in (facil, c_gemm):
        assert (other.ttft, other.breakdown, list(other.timeline())) \
            == (wd.ttft, wd.breakdown, list(wd.timeline()))
    assert owr.ttft == wd.ttft + owr.breakdown["smc_seconds"]
    agents = Scenario.S_OWR.record.copy_agents
    assert owr.breakdown["smc_seconds"] * hw.smc_bw_gbps(agents) * 1e9 \
        == pytest.approx(model.host_bytes(), rel=1e-9, abs=1e-6)
    # S_OWR runs WD's GEMMs in order, with one copy right before each
    # layer's first GEMM and one before the head's
    rows = list(owr.timeline())
    groups = [f"layer{n}" for n in range(model.layers)] + (["lm_head"]
                                                           if head else [])
    assert [r["layer"] for r in rows if r["agent"] == "copy"] \
        == [f"{g}.smc" for g in groups]
    assert [r["layer"] for r in rows if r["agent"] == "compute"] \
        == [r["layer"] for r in wd.timeline()]
    firsts = [n for n, r in enumerate(rows)
              if n == 0 or r["layer"].split(".")[0]
              != rows[n - 1]["layer"].split(".")[0]]
    assert [rows[n]["layer"] for n in firsts] == [f"{g}.smc" for g in groups]
    assert all(rows[n + 1]["agent"] == "compute" for n in firsts)
    assert math.fsum(r["end"] - r["start"] for r in rows
                     if r["agent"] == "copy") \
        == pytest.approx(owr.breakdown["smc_seconds"], rel=1e-9, abs=1e-12)


def earliest_starts(tasks) -> list[tuple]:
    """One pass over ``tasks``, each ``(agent, layer, tag, seconds, after,
    beside, buffer)`` with ``after`` and ``beside`` indices of earlier
    tasks: a task starts at the latest of its agent's free time, the end of
    each task in ``after`` and the start of each task in ``beside``, and
    ends ``seconds`` later.  Returns ``(agent, layer, tag, start, end,
    buffer)`` per task."""
    free, out = {}, []
    for agent, layer, tag, seconds, after, beside, buffer in tasks:
        start = max([free.get(agent, 0.0)] + [out[i][4] for i in after]
                    + [out[i][3] for i in beside])
        free[agent] = start + seconds
        out.append((agent, layer, tag, start, start + seconds, buffer))
    return out


def oracle_steps(scenario, model, hw, sl) -> list[tuple]:
    """The prefill schedule of ``scenario`` as ``earliest_starts`` of its
    tasks and edges, built from ``layer_plan``, ``smc_time`` and
    ``gemm_time``.  Double-buffered: the preload before layer 0's first
    GEMM, each copy beside its paired GEMM, a layer's last copy before the
    next layer's first GEMM (and the head), the head's GEMM as two chained
    pieces (the longer of its GEMM and its copy, then one tile's copy) and
    its copy beside the first.  Serial: each layer's copy, when the
    scenario has copy agents, after the GEMMs before it and before its own;
    the head likewise."""
    plan, head_bytes, head_seconds = prefill_inputs(model, hw, sl)
    agents = scenario.record.copy_agents
    tasks = []

    def task(agent, layer, tag, seconds, after=(), beside=(), buffer=None):
        tasks.append((agent, layer, tag, seconds, after, beside, buffer))
        return len(tasks) - 1

    if scenario is not Scenario.S_DDB:
        prev = ()
        for layer in range(model.layers):
            if agents:
                prev = (task("copy", layer, "smc", smc_time(
                    sum(s.nbytes for s in plan), agents, hw), prev),)
            for s in plan:
                prev = (task("compute", layer, s.tag, s.compute_seconds, prev),)
        if model.head_matrix() is not None:
            if agents:
                prev = (task("copy", None, "lm_head.smc",
                             smc_time(head_bytes, agents, hw), prev),)
            task("compute", None, "lm_head", head_seconds, prev)
        return earliest_starts(tasks)
    barrier = ()  # what the next layer's first GEMM, or the head, waits for
    if model.layers:
        qkvo = sum(s.nbytes for s in plan if s.tag in ("q", "k", "v", "o"))
        barrier = (task("copy", None, "preload", smc_time(qkvo, agents, hw), buffer=0),)
    for layer in range(model.layers):
        for n, s in enumerate(plan):
            gemm = task("compute", layer, s.tag, s.compute_seconds,
                        barrier if n == 0 else (), buffer=s.buffer)
            ahead = s.copy_tag == "qkvo"
            if s.copy_bytes > 0 and not (ahead and layer == model.layers - 1):
                last = task("copy", layer + ahead, s.copy_tag,
                            smc_time(s.copy_bytes, agents, hw), beside=(gemm,),
                            buffer=1 - s.buffer)
        barrier = (last,)
    if head_bytes > 0:
        copy_total = smc_time(head_bytes, agents, hw)
        piece = task("compute", None, "lm_head", max(head_seconds, copy_total), barrier)
        task("compute", None, "lm_head", smc_time(min(model.ff_bytes, head_bytes),
                                                  agents, hw), (piece,))
        task("copy", None, "lm_head", copy_total, beside=(piece,))
    steps = earliest_starts(tasks)
    if head_bytes > 0:  # the two pieces are the head's one GEMM
        first, second, head_copy = steps[-3:]
        steps[-3:] = [first[:4] + (second[4], None), head_copy]
    return steps


def prefill_inputs(model, hw, sl) -> tuple:
    """One layer's plan, and the head's bytes and GEMM seconds, as
    ``run_prefill`` computes them."""
    head = model.head_matrix()
    head_bytes = head.params() * model.element_bytes if head else 0
    return (layer_plan(model, hw, sl), head_bytes,
            gemm_time(head_bytes, head.params() if head else 0, sl, hw))


def schedule_steps(scenario, model, hw, sl) -> list[tuple]:
    """The steps that ``run_prefill`` builds its timeline from."""
    return list(run_prefill(scenario, model, hw, sl).steps())


ORACLE_SCENARIOS = (Scenario.S_DDB, Scenario.WD, Scenario.S_OWR)


@settings(max_examples=60, deadline=None)
@given(drawn_points())
def test_prefill_schedules_equal_the_earliest_start_oracle(point):
    """Each timed prefill schedule is, bit for bit, the earliest-start
    schedule of its tasks and edges: no segment waits when none of its
    edges makes it, and the double-buffered TTFT is its last end."""
    model, hw, sl = point
    for scenario in ORACLE_SCENARIOS:
        assert schedule_steps(scenario, model, hw, sl) \
            == oracle_steps(scenario, model, hw, sl)
    ends = [step[4] for step in oracle_steps(Scenario.S_DDB, model, hw, sl)]
    assert run_prefill(Scenario.S_DDB, model, hw, sl).ttft == max(ends, default=0.0)


@pytest.mark.parametrize("name", ["toy-64", "llama3.2-1b", "llama3.2-3b"])
def test_preset_prefill_schedules_equal_the_oracle_at_every_short_input(name):
    model = model_preset(name)
    for sl in range(1, 300):
        for scenario in ORACLE_SCENARIOS:
            assert schedule_steps(scenario, model, HW, sl) \
                == oracle_steps(scenario, model, HW, sl), (scenario, sl)


def assert_ddb_totals_are_its_steps(model, hw, sl):
    """S_DDB's copy time and TTFT are, bit for bit, the ``math.fsum`` of its
    steps' copy spans and their largest end."""
    ddb = run_prefill(Scenario.S_DDB, model, hw, sl)
    steps = schedule_steps(Scenario.S_DDB, model, hw, sl)
    assert ddb.breakdown["smc_seconds"] == math.fsum(
        end - start for agent, _, _, start, end, _ in steps if agent == "copy")
    assert ddb.ttft == max((step[4] for step in steps), default=0.0)


@settings(max_examples=60, deadline=None)
@given(drawn_points())
def test_ddb_totals_are_the_sums_of_its_steps(point):
    assert_ddb_totals_are_its_steps(*point)


@pytest.mark.parametrize("name", ["toy-64", "llama3.2-1b", "llama3.2-3b"])
def test_preset_ddb_totals_are_the_sums_of_its_steps_at_every_short_input(name):
    model = model_preset(name)
    for sl in range(1, 300):
        assert_ddb_totals_are_its_steps(model, HW, sl)


def test_buffers_alternate_between_compute_and_copy():
    rows = ddb_rows(64)
    comp = {r["layer"]: r["buffer"] for r in agent_rows(rows, "compute")}
    copy = {r["layer"]: r["buffer"] for r in agent_rows(rows, "copy")}
    # projections of layer 0 compute from the preloaded buffer 0 while FF0
    # streams into buffer 1
    assert comp["layer0.q"] == copy["preload"] == 0
    assert copy["layer0.ff0"] == 1
    # a segment never computes from the buffer its own weights arrived in
    # one group later
    for layer in range(M1B.layers):
        assert comp[f"layer{layer}.ff0"] == copy[f"layer{layer}.ff0"]
        assert comp[f"layer{layer}.ff1"] == copy[f"layer{layer}.ff1"]
        assert comp[f"layer{layer}.ff2"] == copy[f"layer{layer}.ff2"]
    for layer in range(1, M1B.layers):
        assert comp[f"layer{layer}.q"] == copy[f"layer{layer}.qkvo"]


def test_timeline_json_export():
    rows = ddb_rows(32)
    assert json.loads(json.dumps(rows)) == rows
    assert len(rows) == len(schedule_steps(Scenario.S_DDB, M1B, HW, 32))
    assert {"agent", "role", "layer", "start", "end", "buffer"} \
        <= set(rows[0])
    assert rows == sorted(rows, key=lambda r: (r["start"], r["agent"]))


TIMED_SCENARIOS = tuple(s for s in Scenario if s is not Scenario.NC_GEMM)


def sorted_rows(steps) -> list[dict]:
    """The rows by the rule before they were streamed: each step tagged
    ``layer{n}.{tag}`` within a layer, then all ``sorted`` by ``(start,
    agent)``."""
    rows = [{"agent": agent, "role": agent,
             "layer": tag if layer is None else f"layer{layer}.{tag}",
             "start": start, "end": end, "buffer": buffer}
            for agent, layer, tag, start, end, buffer in steps]
    return sorted(rows, key=lambda r: (r["start"], r["agent"]))


@settings(max_examples=60, deadline=None)
@given(drawn_points())
def test_streamed_rows_are_the_sorted_steps(point):
    """The rows that ``timeline_rows`` merges from the agents' streams are
    the tagged steps ``sorted`` by ``(start, agent)`` for every timed
    scenario, and a prefill's ``timeline`` gives the same rows."""
    model, hw, sl = point
    for scenario in TIMED_SCENARIOS:
        steps = schedule_steps(scenario, model, hw, sl)
        want = sorted_rows(steps)
        assert list(timeline_rows(lambda: iter(steps))) == want, scenario
        assert list(run_prefill(scenario, model, hw, sl).timeline()) == want, scenario


def test_rows_break_start_ties_as_sorted_does():
    """At one start, "compute" comes before "copy", and one agent's steps keep
    their order, whatever order the agents' steps come in."""
    steps = [("copy", None, "c", 0.0, 0.0, None), ("copy", 0, "d", 0.0, 1.0, 1),
             ("compute", None, "g", 0.0, 1.0, None), ("copy", 1, "e", 1.0, 1.0, 0),
             ("compute", 1, "h", 1.0, 2.0, 0)]
    rows = list(timeline_rows(lambda: iter(steps)))
    assert [r["layer"] for r in rows] == ["g", "c", "layer0.d", "layer1.h", "layer1.e"]
    assert rows == sorted_rows(steps)


@pytest.mark.parametrize("scenario", [Scenario.S_DDB, Scenario.S_OWR, Scenario.WD])
def test_timeline_rows_hold_no_list_of_the_layers(scenario):
    """A timeline is validated and read row by row: at 4,000 layers, a list of
    its 30,000-60,000 steps alone would take several MB."""
    prefill = run_prefill(scenario, ModelSpec(hidden=64, intermediate=128,
                                              layers=4_000), HW, 8)
    tracemalloc.start()
    try:
        count = sum(1 for _ in prefill.timeline())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count >= 4_000 * 7
    assert peak < 500_000, peak


# ----------------------------------------------------------------------
# TTFT relations
# ----------------------------------------------------------------------

def test_compute_only_scenarios_agree():
    for sl in (16, 64, 192):
        ttfts = {s: run_prefill(s, M1B, HW, sl).ttft
                 for s in (Scenario.WD, Scenario.FACIL_O, Scenario.C_GEMM)}
        assert len(set(ttfts.values())) == 1


def test_ddb_never_beats_the_oracle_and_gap_shrinks():
    gaps = []
    for sl in (32, 64, 96, 128, 160, 192):
        facil = run_prefill(Scenario.FACIL_O, M1B, HW, sl).ttft
        ddb = run_prefill(Scenario.S_DDB, M1B, HW, sl).ttft
        assert ddb > facil
        gaps.append((ddb - facil) / facil)
    assert gaps == sorted(gaps, reverse=True)


def test_owr_is_compute_plus_total_copy_exactly():
    for sl in (8, 64, 192):
        facil = run_prefill(Scenario.FACIL_O, M1B, HW, sl)
        owr = run_prefill(Scenario.S_OWR, M1B, HW, sl)
        assert owr.ttft == facil.ttft + owr.breakdown["smc_seconds"]
        assert owr.breakdown["smc_seconds"] * HW.smc_bw_4agents_gbps * 1e9 \
            == pytest.approx(M1B.host_bytes())


def test_analytical_mode_matches_table():
    ttft, breakdown = analytical_prefill(Scenario.S_OWR, 16, HW)
    assert ttft == Fraction(7)
    assert breakdown["overhead_sum_pct"] == pytest.approx(175.0)
    assert analytical_prefill(Scenario.S_DDB, 16, HW)[0] == Fraction(4)
    nc = replace(HW, nc_read_penalty=2.0005)
    assert analytical_prefill(Scenario.NC_GEMM, 32, nc)[0] == Fraction(8002, 125)
    with pytest.raises(ConfigError, match="sl must be an integer >= 1"):
        analytical_prefill(Scenario.S_DDB, 0, HW)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, exclude_min=True, allow_infinity=False), st.integers(1, 4096))
@example(1e-300, 32)
def test_analytical_nc_stream_reads_the_penalty_as_written(penalty, sl):
    """The NC stream's TTFT is ``sl`` times the penalty's decimal value,
    never rounded to a coarser fraction, so a positive penalty never gives 0."""
    ttft, _ = analytical_prefill(Scenario.NC_GEMM, sl, replace(HW, nc_read_penalty=penalty))
    assert ttft == sl * Fraction(str(penalty)) and ttft > 0


def test_nc_gemm_scales_linearly_and_dominates():
    t64 = run_prefill(Scenario.NC_GEMM, M1B, HW, 64).ttft
    t128 = run_prefill(Scenario.NC_GEMM, M1B, HW, 128).ttft
    assert t128 / t64 >= 1.8
    c = run_prefill(Scenario.C_GEMM, M1B, HW, 192).ttft
    nc = run_prefill(Scenario.NC_GEMM, M1B, HW, 192).ttft
    assert nc / c >= 10


def _crossover_oracle(model, hw):
    """The smallest input length at which every paired copy of ``layer_plan``
    takes no longer than its GEMM; the last layer pairs no ``qkvo`` copy.
    None if there is none up to ``CROSSOVER_MAX_SL``."""
    agents = Scenario.S_DDB.record.copy_agents
    for sl in range(1, runtime.CROSSOVER_MAX_SL + 1):
        if all(smc_time(s.copy_bytes, agents, hw) <= s.compute_seconds
               for s in layer_plan(model, hw, sl)
               if s.copy_bytes > 0 and (s.copy_tag != "qkvo" or model.layers > 1)):
            return sl
    return None


@settings(max_examples=40, deadline=None)
@given(drawn_points())
@example((replace(M1B, layers=0), HW, 1))
def test_crossover_is_where_every_paired_copy_fits_its_gemm(point):
    """A stack of layers hides its copies from the oracle's input length on;
    a model without a decoder layer has no layer copy to hide, so from 1."""
    model, hw, _ = point
    try:
        got = ddb_hiding_crossover(model, hw)
    except ConfigError:
        got = None
    assert got == (_crossover_oracle(model, hw) if model.layers else 1)


def test_crossover_is_in_the_expected_band():
    sl = ddb_hiding_crossover(M1B, HW)
    assert 96 <= sl <= 192
    # below the crossover some chunk exceeds its window
    segs = layer_plan(M1B, HW, sl - 1)
    assert any(s.copy_bytes > 0 and
               smc_time(s.copy_bytes, Scenario.S_DDB.record.copy_agents, HW)
               > s.compute_seconds
               for s in segs)
    # a copy rate that no input length hides is an error, not a length
    with pytest.raises(ConfigError, match="no crossover at or below sl=1024"):
        ddb_hiding_crossover(model_preset("toy-64"), replace(HW, smc_bw_override_gbps=0.01))


@pytest.mark.parametrize("model, want", [
    (M1B, (150, 150, 7)),
    (model_preset("llama3.2-3b"), (75, 75, 4)),
    (model_preset("toy-64"), (150, 150, 7)),
    (ModelSpec(64, 256, 0, vocab=96), (1, 1, 1)),
    (ModelSpec(2048, 8192, 3), (150, 150, 7)),
], ids=["llama3.2-1b", "llama3.2-3b", "toy-64", "no-layer", "no-head"])
def test_crossover_is_pinned(model, want):
    """Each model's crossover on s24plus, on s24plus with 1 ms of host
    attention per layer, and on ideal-bw; a model without a decoder layer
    has no layer copy to hide."""
    hardware = (HW, replace(HW, host_attn_seconds_per_layer=1e-3),
                hardware_preset("ideal-bw"))
    assert tuple(ddb_hiding_crossover(model, hw) for hw in hardware) == want


def test_decode_identical_across_pim_scenarios():
    times = {s: run_decode(s, M1B, HW, 10).token_seconds
             for s in Scenario if s.record.pim_copy}
    assert len(set(times.values())) == 1
    assert run_decode(Scenario.C_GEMM, M1B, HW, 10).token_seconds \
        > max(times.values())


def test_speedup_grid_shape_and_monotonicity():
    lens = [64, 128, 192]
    scenarios = [Scenario.S_OWR, Scenario.S_DDB]
    rows = end_to_end_grid(M1B, HW, scenarios, lens, lens)
    assert [(r["scenario"], r["in_len"], r["out_len"]) for r in rows] == [
        (s.value, i, o) for s in scenarios for i in lens for o in lens]
    for n in range(0, len(rows), len(lens)):
        speedups = [r["speedup_vs_c_gemm"] for r in rows[n:n + len(lens)]]
        assert speedups == sorted(speedups)  # monotone in out_len
        assert all(s > 1 for s in speedups)


def test_end_to_end_report_fields():
    [r] = end_to_end_grid(M1B, HW, [Scenario.S_DDB], [64], [32])
    assert r["total_seconds"] == pytest.approx(
        r["ttft_seconds"] + r["decode_seconds"])
    assert r["speedup_vs_c_gemm"] > 1


@pytest.mark.parametrize("name", ["llama3.2-1b", "llama3.2-3b"])
def test_speedup_baseline_equals_evaluated_c_gemm(name):
    """The report row takes C_GEMM from the scenario's own ``gemm_seconds``
    and host decode; it must equal evaluating C_GEMM exactly.  Each grid
    row equals the row of its own point."""
    model = model_preset(name)
    points = ((1, 0), (16, 1), (128, 32), (1024, 256))
    in_lens = [i for i, _ in points]
    out_lens = [o for _, o in points]
    for pim_bytes in (None, pim_weight_bytes(model)):
        rows = end_to_end_grid(model, HW, list(Scenario), in_lens, out_lens,
                               pim_bytes=pim_bytes)
        rows = {(r["scenario"], r["in_len"], r["out_len"]): r for r in rows}
        assert len(rows) == len(Scenario) * len(in_lens) * len(out_lens)
        for in_len, out_len in points:
            base_prefill = run_prefill(Scenario.C_GEMM, model, HW, in_len)
            base_decode = run_decode(Scenario.C_GEMM, model, HW, out_len,
                                     pim_bytes=pim_bytes)
            base = base_prefill.ttft + base_decode.total_seconds
            for scenario in Scenario:
                r = rows[scenario.value, in_len, out_len]
                assert r["speedup_vs_c_gemm"] == base / r["total_seconds"]
                row = end_to_end_row(
                    run_prefill(scenario, model, HW, in_len),
                    run_decode(scenario, model, HW, out_len,
                               pim_bytes=pim_bytes),
                    decode_token_time(model, HW, False))
                assert row == r


def test_invalid_arguments():
    with pytest.raises(ConfigError):
        run_prefill(Scenario.S_DDB, M1B, HW, 0)
    with pytest.raises(ConfigError):
        run_decode(Scenario.S_DDB, M1B, HW, -1)
    for axes in (([], [64], [64]), ([Scenario.WD], [], [64]),
                 ([Scenario.WD], [64], [])):
        with pytest.raises(ConfigError):
            end_to_end_grid(M1B, HW, *axes)


def test_prefill_memory_does_not_grow_with_the_layer_count():
    """Every scenario's sums run over the layers without a list of them: at
    20,000 layers, a per-layer list of floats alone would take over 1 MB."""
    model = ModelSpec(hidden=64, intermediate=128, layers=20_000)
    run_prefill(Scenario.S_DDB, model, HW, 8)  # warm any first-call caches
    for scenario in Scenario:
        tracemalloc.start()
        try:
            run_prefill(scenario, model, HW, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000, (scenario, peak)


def test_run_prefill_rejects_a_scenario_name():
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_prefill("wd", M1B, HW, 16)


# ----------------------------------------------------------------------
# The paper's qualitative claims, over drawn points and the presets
# ----------------------------------------------------------------------

# the rates a faster device raises; gemm_effective_gflops may not pass
# peak_gflops
RATES = ("smc_bw_2agents_gbps", "smc_bw_4agents_gbps", "nc_stream_bw_gbps",
         "dram_bw_gbps", "gemm_effective_gflops")
SAVINGS_ORDER = (Scenario.FACIL_O, Scenario.S_OWR, Scenario.S_DDB)


def ttfts(model, hw, sl):
    return {s: run_prefill(s, model, hw, sl).ttft for s in Scenario}


def assert_no_ttft_below_facil_o_and_nc_gemm_not_below_c_gemm(ttft):
    assert min(ttft.values()) == ttft[Scenario.FACIL_O], ttft
    assert ttft[Scenario.NC_GEMM] >= ttft[Scenario.C_GEMM], ttft


def savings(model):
    """Each of FACIL-O's, S-OWR's and S-DDB's capacity saving against WD,
    with the PIM image that ``pimsim convert`` writes."""
    pim_bytes = pim_weight_bytes(model)
    return [capacity_report(model, s, pim_bytes)["savings_vs_wd_pct"]
            for s in SAVINGS_ORDER]


def test_the_paper_orderings_hold_on_the_presets_at_sl_1_to_600():
    """Every preset model on every preset hardware, at sl 1-600: each
    scenario's TTFT is non-decreasing in sl, none is below FACIL-O's (the
    compute-only theoretical maximum), NC-GEMM's is at least C-GEMM's, and
    the capacity savings order FACIL-O >= S-OWR >= S-DDB."""
    for name, model in MODELS.items():
        saved = savings(model)
        assert saved == sorted(saved, reverse=True), (name, saved)
        for hw_name, hw in HARDWARE.items():
            shorter = None
            for sl in range(1, 601):
                ttft = ttfts(model, hw, sl)
                assert_no_ttft_below_facil_o_and_nc_gemm_not_below_c_gemm(ttft)
                if shorter is not None:
                    assert all(ttft[s] >= shorter[s] for s in Scenario), \
                        (name, hw_name, sl)
                shorter = ttft


@settings(max_examples=150, deadline=None)
@given(drawn_points(), st.integers(1, 512))
def test_no_ttft_falls_as_the_prompt_grows(point, more):
    """A longer prompt never takes less time to its first token, in any
    scenario."""
    model, hw, sl = point
    shorter, longer = ttfts(model, hw, sl), ttfts(model, hw, sl + more)
    assert all(longer[s] >= shorter[s] for s in Scenario), (shorter, longer)


@settings(max_examples=150, deadline=None)
@given(drawn_points())
def test_facil_o_is_the_fastest_and_nc_gemm_never_beats_c_gemm(point):
    """FACIL-O's TTFT is the theoretical maximum that no scenario passes;
    NC-GEMM, which streams weights from the non-cacheable copy, is never
    faster than C-GEMM on the cacheable one."""
    assert_no_ttft_below_facil_o_and_nc_gemm_not_below_c_gemm(ttfts(*point))


@settings(max_examples=150, deadline=None)
@given(drawn_points(), st.sampled_from(RATES), st.data())
def test_a_faster_rate_never_raises_a_ttft(point, rate, data):
    """Raising any one copy, stream, DRAM or GEMM rate of valid hardware
    never makes any scenario's first token later."""
    model, hw, sl = point
    slow = getattr(hw, rate)
    top = hw.peak_gflops if rate == "gemm_effective_gflops" else 100 * slow
    fast_hw = replace(hw, **{rate: data.draw(st.floats(slow, top), label=rate)})
    before, after = ttfts(model, hw, sl), ttfts(model, fast_hw, sl)
    assert all(after[s] <= before[s] for s in Scenario), (before, after)


@settings(max_examples=60, deadline=None)
@given(drawn_points())
def test_capacity_savings_order_facil_o_s_owr_s_ddb(point):
    """The paper's capacity claim in order: FACIL-O keeps only the PIM copy,
    S-OWR adds one cacheable buffer and S-DDB two, so their savings against
    WD order FACIL-O >= S-OWR >= S-DDB."""
    saved = savings(point[0])
    assert saved == sorted(saved, reverse=True), saved


# ----------------------------------------------------------------------
# Functional prefill equivalence
# ----------------------------------------------------------------------

def linear_stack_outputs(model: ModelSpec,
                         weights: dict[str, np.ndarray],
                         x: np.ndarray) -> dict[str, np.ndarray]:
    """Run the linear stack on host-side float64 values.

    ``weights`` maps matrix names (see :meth:`ModelSpec.all_matrices`) to
    (out_dim, in_dim) float arrays.  The glue between layers is a
    deterministic bounded remainder standing in for normalization, which
    keeps integer-valued activations exactly representable.  Returns every
    projection output plus the final logits.
    """
    outs = {}
    x = np.asarray(x, dtype=np.float64)
    for layer in range(model.layers):
        p = f"layer{layer}."
        q = weights[p + "q"] @ x
        outs[p + "k"] = weights[p + "k"] @ x
        outs[p + "v"] = weights[p + "v"] @ x
        outs[p + "q"] = q
        t = weights[p + "o"] @ q
        outs[p + "o"] = t
        g = weights[p + "ff0"] @ t
        u = weights[p + "ff1"] @ t
        outs[p + "ff0"], outs[p + "ff1"] = g, u
        x = weights[p + "ff2"] @ (g + u)
        outs[p + "ff2"] = x
        x = np.mod(x, 251.0) - 125.0  # bounded stand-in for normalization
    if model.head_matrix() is not None:
        outs["logits"] = weights["lm_head"] @ x
    return outs


def _random_weights(model, rng):
    return {m.name: rng.integers(-2, 3, size=(m.out_dim, m.in_dim))
            .astype(np.float64) for m in model.all_matrices()}


def test_prefill_outputs_identical_through_smc_path():
    """Weights converted to the PIM-aware image and copied back by SMC give
    bit-identical layer outputs and logits versus the direct host weights."""
    model = ModelSpec(hidden=64, intermediate=128, layers=2, vocab=96)
    rng = np.random.default_rng(42)
    weights = _random_weights(model, rng)
    amap = AddressMap(DESK_GEOMETRY)
    placements = dict(model_placements(model, amap, banks_per_channel=4,
                                       channels_used=1))
    mem = MemorySystem(capacity=DESK_GEOMETRY.total_capacity)
    span = max(p.padded_bytes for p in placements.values())
    mem.allocate_region(RegionKind.CONTIGUOUS_POOL, Attribute.NON_CACHEABLE,
                        DESK_GEOMETRY.total_capacity, align=1)
    via_smc = {}
    for name, p in placements.items():
        bits = bf16.encode(weights[name].astype(np.float32))
        image = convert_to_pim_aware(
            WeightMatrix(p.out_dim, p.in_dim, bits), p)
        back = unswizzle(image, mem=mem)
        via_smc[name] = bf16.decode(back.data).astype(np.float64)
    x = rng.integers(-2, 3, size=(model.hidden, 4)).astype(np.float64)
    direct = linear_stack_outputs(model, weights, x)
    swizzled = linear_stack_outputs(model, via_smc, x)
    assert direct.keys() == swizzled.keys()
    for name in direct:
        assert np.array_equal(direct[name], swizzled[name]), name
    assert "logits" in direct
