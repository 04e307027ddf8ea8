"""Prefill/decode orchestration over a decoder-layer stack.

Prefill timelines are produced by a deterministic two-agent schedule:
a compute agent running the per-matrix GEMMs and a copy agent running
swizzled memory copies out of the non-cacheable weight region.

Double buffering (S_DDB) follows a fixed per-layer plan: the four
attention projections (preloaded into buffer 0 before the first layer)
compute while the first feed-forward matrix is copied in four equal
quarters (one per projection); each feed-forward GEMM then covers the
copy of the next matrix, and the last one covers the preload of the next
layer's projections.  A copy chunk may not start before its paired
compute segment (its target buffer only frees up then) and the two
agents synchronize once per layer.  Copies are never issued during the
fixed attention/normalization segments.  The output head is pipelined
against its own copy at buffer-half granularity.

Serial rearrangement (S_OWR) copies each layer in full (four copy
agents) immediately before its GEMMs, so its time-to-first-token equals
the compute-only schedule plus the total copy time, exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cost import (ONLINE_T, CostMode, HardwareSpec, analytical_gemm_t,
                   decode_token_time, gemm_time, smc_time)
from .errors import ConfigError
from .model import ModelSpec
from .scenario import Scenario

DDB_COPY_AGENTS = 2
OWR_COPY_AGENTS = 4
FF0_COPY_QUARTERS = 4
CROSSOVER_MAX_SL = 1024  # longest input ddb_hiding_crossover searches


@dataclass(frozen=True)
class Segment:
    agent: str
    role: str  # "copy" or "compute"
    tag: str   # e.g. "layer3.ff1"
    start: float
    end: float
    buffer: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    segments: list = field(default_factory=list)

    @property
    def end(self) -> float:
        return max((s.end for s in self.segments), default=0.0)

    def agent_segments(self, agent: str) -> list[Segment]:
        return [s for s in self.segments if s.agent == agent]

    def validate(self):
        """Segments of one agent must never overlap."""
        for agent in {s.agent for s in self.segments}:
            segs = sorted(self.agent_segments(agent), key=lambda s: s.start)
            for a, b in zip(segs, segs[1:]):
                if b.start < a.end - 1e-12:
                    raise ConfigError(f"overlapping segments for {agent}: "
                                      f"{a.tag} and {b.tag}")

    def to_json(self) -> str:
        rows = [{"agent": s.agent, "role": s.role, "layer": s.tag,
                 "start": s.start, "end": s.end, "buffer": s.buffer}
                for s in sorted(self.segments, key=lambda s: (s.start, s.agent))]
        return json.dumps(rows, sort_keys=True)


@dataclass
class PrefillResult:
    scenario: Scenario
    sl: int
    ttft: float | Fraction
    timeline: Timeline | None
    breakdown: dict


@dataclass
class DecodeResult:
    scenario: Scenario
    out_len: int
    token_seconds: float
    tps: float
    total_seconds: float


# ----------------------------------------------------------------------
# Per-layer schedule structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _PlanSegment:
    tag: str               # the matrix: "attn" or "q" ... "ff2"
    compute_seconds: float
    copy_bytes: float      # paired copy load (0 for none)
    copy_tag: str          # "ff0"-"ff2", or "qkvo": the next layer's projections
    buffer: int | None     # DDB buffer the GEMM reads; its copy fills the other


def _matrix_seconds(params: int, sl: int, hw: HardwareSpec,
                    eb: int) -> float:
    return gemm_time(params * eb, params, sl, hw)


def layer_plan(model: ModelSpec, hw: HardwareSpec,
               sl: int) -> list[_PlanSegment]:
    """Compute segments of one decoder layer with their paired DDB copy loads.

    Every layer has the same plan; only the last layer issues no ``qkvo``
    copy, which the schedule builder drops.  The projections read buffer 0
    and the feed-forward matrices alternate from buffer 1, so each matrix
    has the same buffer in every layer.
    """
    eb = model.element_bytes
    mats = model.layer_matrices()
    t = {m.name: _matrix_seconds(m.params(), sl, hw, eb) for m in mats}
    nbytes = {m.name: m.params() * eb for m in mats}
    quarter = nbytes["ff0"] / FF0_COPY_QUARTERS
    segs = []
    if hw.host_attn_seconds_per_layer > 0:
        segs.append(_PlanSegment("attn", hw.host_attn_seconds_per_layer,
                                 0.0, "", None))
    for name in ("q", "k", "v", "o"):
        segs.append(_PlanSegment(name, t[name], quarter, "ff0", 0))
    segs.append(_PlanSegment("ff0", t["ff0"], nbytes["ff1"], "ff1", 1))
    segs.append(_PlanSegment("ff1", t["ff1"], nbytes["ff2"], "ff2", 0))
    qkvo = sum(nbytes[name] for name in ("q", "k", "v", "o"))
    segs.append(_PlanSegment("ff2", t["ff2"], qkvo, "qkvo", 1))
    return segs


def _head_seconds(model: ModelSpec, hw: HardwareSpec, sl: int) -> float:
    head = model.head_matrix()
    if head is None:
        return 0.0
    return _matrix_seconds(head.params(), sl, hw, model.element_bytes)


# ----------------------------------------------------------------------
# DDB schedule
# ----------------------------------------------------------------------

def build_ddb_schedule(model: ModelSpec, hw: HardwareSpec, sl: int) -> Timeline:
    """Double-buffered prefill timeline for the whole decoder stack."""
    if sl < 1:
        raise ConfigError("sl must be >= 1")
    eb = model.element_bytes
    tl = Timeline()

    def copy_seconds(nbytes: float) -> float:
        return smc_time(nbytes, DDB_COPY_AGENTS, hw)

    plan = layer_plan(model, hw, sl)
    copies = [copy_seconds(seg.copy_bytes) for seg in plan]
    preload = copies[-1]  # ff2's copy: the projections
    tl.segments.append(Segment("copy", "copy", "preload", 0.0, preload, buffer=0))
    copy_t = preload
    comp_t = preload
    for layer in range(model.layers):
        prefix = f"layer{layer}."
        for seg, copy in zip(plan, copies):
            start = comp_t
            comp_t += seg.compute_seconds
            tl.segments.append(Segment("compute", "compute", prefix + seg.tag,
                                       start, comp_t, buffer=seg.buffer))
            if seg.copy_tag == "qkvo":
                if layer == model.layers - 1:
                    continue  # no next layer to preload
                copy_tag = f"layer{layer + 1}.qkvo"
            elif seg.copy_bytes > 0:
                copy_tag = prefix + seg.copy_tag
            else:
                continue
            c_start = max(copy_t, start)
            copy_t = c_start + copy
            tl.segments.append(Segment("copy", "copy", copy_tag,
                                       c_start, copy_t, buffer=1 - seg.buffer))
        # one synchronization barrier per layer
        comp_t = copy_t = max(comp_t, copy_t)
    head = model.head_matrix()
    if head is not None:
        head_bytes = head.params() * eb
        copy_total = copy_seconds(head_bytes)
        tile = min(model.ff_bytes, head_bytes)
        comp = _head_seconds(model, hw, sl)
        start = comp_t
        # pipelined at buffer-half granularity: first tile copy exposed
        end = start + max(comp, copy_total) + copy_seconds(tile)
        tl.segments.append(Segment("compute", "compute", "lm_head",
                                   start, end, buffer=None))
        tl.segments.append(Segment("copy", "copy", "lm_head",
                                   start, start + copy_total, buffer=None))
    tl.validate()
    return tl


# ----------------------------------------------------------------------
# Prefill / decode entry points
# ----------------------------------------------------------------------

def _analytical_ttft(scenario: Scenario, sl: int, gemm: Fraction,
                     hw: HardwareSpec) -> Fraction:
    if scenario in (Scenario.WD, Scenario.FACIL_O, Scenario.C_GEMM):
        return gemm
    if scenario is Scenario.S_OWR:
        return gemm + ONLINE_T
    if scenario is Scenario.S_DDB:
        return max(gemm, ONLINE_T)
    # non-cacheable host GEMM: one weight stream per input token, at the
    # non-cacheable read penalty
    return Fraction(sl) * Fraction(hw.nc_read_penalty).limit_denominator(1000)


def run_prefill(scenario: Scenario, model: ModelSpec, hw: HardwareSpec,
                sl: int, mode: CostMode = CostMode.CALIBRATED,
                pim_bytes: int | None = None) -> PrefillResult:
    """Time-to-first-token and per-agent timeline for one scenario.

    Prefill streams host-friendly weights, so ``pim_bytes`` has no effect;
    the parameter is kept for interface compatibility.
    """
    if sl < 1:
        raise ConfigError("sl must be >= 1")
    if mode is CostMode.ANALYTICAL:
        gemm = analytical_gemm_t(sl)
        ttft = _analytical_ttft(scenario, sl, gemm, hw)
        return PrefillResult(scenario, sl, ttft, None, {
            "mode": "analytical",
            "gemm_t_units": gemm,
            "overhead_sum_pct": float(100 * (gemm + ONLINE_T) / gemm),
            "overhead_max_pct": float(100 * max(gemm, ONLINE_T) / gemm),
        })

    plan = layer_plan(model, hw, sl)
    head_seconds = _head_seconds(model, hw, sl)
    # fsum is correctly rounded, so the order of the terms does not matter
    gemm_total = math.fsum([s.compute_seconds for s in plan] * model.layers
                           + [head_seconds])
    eb = model.element_bytes
    if scenario in (Scenario.WD, Scenario.FACIL_O, Scenario.C_GEMM):
        tl = _serial_timeline(model, plan, head_seconds)
        return PrefillResult(scenario, sl, gemm_total, tl,
                             {"gemm_seconds": gemm_total, "smc_seconds": 0.0})
    if scenario is Scenario.S_DDB:
        tl = build_ddb_schedule(model, hw, sl)
        copy_busy = math.fsum(s.duration for s in tl.agent_segments("copy"))
        return PrefillResult(scenario, sl, tl.end, tl,
                             {"gemm_seconds": gemm_total,
                              "smc_seconds": copy_busy})
    if scenario is Scenario.S_OWR:
        layer_copy = smc_time(model.layer_params() * eb, OWR_COPY_AGENTS, hw)
        head = model.head_matrix()
        head_copy = (0.0 if head is None
                     else smc_time(head.params() * eb, OWR_COPY_AGENTS, hw))
        smc_total = math.fsum([layer_copy] * model.layers + [head_copy])
        tl = _serial_timeline(model, plan, head_seconds, layer_copy,
                              head_copy)
        return PrefillResult(scenario, sl, gemm_total + smc_total, tl,
                             {"gemm_seconds": gemm_total,
                              "smc_seconds": smc_total})
    if scenario is Scenario.NC_GEMM:
        nc_bw = hw.nc_stream_bw_gbps * 1e9

        def nc_seconds(mat) -> float:
            stream = sl * mat.params() * eb / nc_bw
            return max(stream, _matrix_seconds(mat.params(), sl, hw, eb))

        head = model.head_matrix()
        times = ([nc_seconds(m) for m in model.layer_matrices()] * model.layers
                 + [0.0 if head is None else nc_seconds(head)]
                 + [hw.host_attn_seconds_per_layer] * model.layers)
        total = math.fsum(times)
        return PrefillResult(scenario, sl, total, None,
                             {"gemm_seconds": gemm_total,
                              "nc_stream_seconds": total})
    raise ConfigError(f"unknown scenario {scenario}")


def _serial_timeline(model: ModelSpec, plan: list[_PlanSegment],
                     head_seconds: float, layer_copy: float | None = None,
                     head_copy: float | None = None) -> Timeline:
    """Compute-only schedule of ``plan`` repeated per layer plus the head,
    optionally with a serial copy of the given seconds before each layer
    and before the head."""
    tl = Timeline()
    t = 0.0
    for layer in range(model.layers):
        if layer_copy is not None:
            tl.segments.append(Segment("copy", "copy", f"layer{layer}.smc",
                                       t, t + layer_copy))
            t += layer_copy
        for seg in plan:
            tl.segments.append(Segment("compute", "compute",
                                       f"layer{layer}.{seg.tag}",
                                       t, t + seg.compute_seconds))
            t += seg.compute_seconds
    if model.head_matrix() is not None:
        if head_copy is not None:
            tl.segments.append(Segment("copy", "copy", "lm_head.smc",
                                       t, t + head_copy))
            t += head_copy
        tl.segments.append(Segment("compute", "compute", "lm_head",
                                   t, t + head_seconds))
        t += head_seconds
    tl.validate()
    return tl


def run_decode(scenario: Scenario, model: ModelSpec, hw: HardwareSpec,
               out_len: int, pim_bytes: int | None = None) -> DecodeResult:
    """Per-token decode latency; every PIM scenario shares one PIM-aware copy."""
    if out_len < 0:
        raise ConfigError("out_len must be >= 0")
    token = decode_token_time(model, hw, scenario.uses_pim_decode,
                              pim_bytes=pim_bytes)
    tps = 1.0 / token if token > 0 else float("inf")
    return DecodeResult(scenario, out_len, token, tps, out_len * token)


def end_to_end_row(prefill: PrefillResult, decode: DecodeResult,
                   model: ModelSpec, hw: HardwareSpec) -> dict:
    """Report row of one calibrated point, with speedup over C_GEMM.

    The C_GEMM baseline is compute-only prefill (the ``gemm_seconds`` every
    calibrated prefill reports) plus host-bandwidth decode, so no baseline
    schedule is evaluated.
    """
    total = prefill.ttft + decode.total_seconds
    base_total = (prefill.breakdown["gemm_seconds"]
                  + decode.out_len * decode_token_time(model, hw, False))
    return {
        "scenario": prefill.scenario.value,
        "in_len": prefill.sl,
        "out_len": decode.out_len,
        "ttft_seconds": prefill.ttft,
        "token_seconds": decode.token_seconds,
        "decode_seconds": decode.total_seconds,
        "total_seconds": total,
        "speedup_vs_c_gemm": base_total / total if total > 0 else 1.0,
    }


def run_end_to_end(scenario: Scenario, model: ModelSpec, hw: HardwareSpec,
                   in_len: int, out_len: int,
                   pim_bytes: int | None = None) -> dict:
    """TTFT + decode for one grid point, with speedup over the C_GEMM baseline."""
    prefill = run_prefill(scenario, model, hw, in_len)
    decode = run_decode(scenario, model, hw, out_len, pim_bytes=pim_bytes)
    return end_to_end_row(prefill, decode, model, hw)


def speedup_grid(model: ModelSpec, hw: HardwareSpec, in_lens, out_lens,
                 scenarios=None, pim_bytes: int | None = None) -> dict:
    """speedup[scenario][i][j] over the C_GEMM baseline at (in_lens[i], out_lens[j])."""
    if not in_lens or not out_lens:
        raise ConfigError("in_lens and out_lens must be non-empty")
    scenarios = list(scenarios or Scenario)
    grid = {}
    for scenario in scenarios:
        rows = []
        for in_len in in_lens:
            rows.append([run_end_to_end(scenario, model, hw, in_len, out_len,
                                        pim_bytes=pim_bytes)["speedup_vs_c_gemm"]
                         for out_len in out_lens])
        grid[scenario.value] = rows
    return grid


def ddb_hiding_crossover(model: ModelSpec, hw: HardwareSpec) -> int:
    """Smallest input length at which every DDB copy chunk fits inside its
    paired compute segment (full latency hiding, preload aside)."""
    for sl in range(1, CROSSOVER_MAX_SL + 1):
        if all(smc_time(seg.copy_bytes, DDB_COPY_AGENTS, hw)
               <= seg.compute_seconds for seg in layer_plan(model, hw, sl)
               if seg.copy_bytes > 0
               and (seg.copy_tag != "qkvo" or model.layers > 1)):
            return sl
    raise ConfigError(f"no crossover at or below sl={CROSSOVER_MAX_SL}")
