"""Calibrated prefill/decode orchestration over a decoder-layer stack.

Every prefill reads one decoder layer's plan (``layer_plan``: each
matrix's GEMM seconds, weight bytes and paired copy) and the head, sized
once, and takes the branch of its scenario's ``Schedule``.  A timeline has
a compute agent running the GEMMs and a copy agent running swizzled
memory copies out of the non-cacheable region.

* Serial: the GEMMs run back to back.  With copy agents, each layer and
  the head are copied in full just before their GEMMs, so the TTFT is the
  compute-only one plus the total copy time, exactly.  The timeline is
  built on the first read of ``PrefillResult.timeline``.
* Double-buffered: each copy into one buffer runs beside the GEMM that
  reads the other (``layer_plan`` pairs them), starting no earlier than
  that GEMM and never during attention.  The first layer's projections
  are preloaded, the agents synchronize once per layer, and the head is
  pipelined against its copy at buffer-half granularity.  The schedule is
  always built: its end is the TTFT.
* NC stream: each GEMM streams its matrix from the non-cacheable copy
  once per input token; there is no timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .cost import HardwareSpec, decode_token_time, gemm_time, smc_time
from .errors import ConfigError
from .model import ModelSpec
from .scenario import Scenario, Schedule

FF0_COPY_QUARTERS = 4
CROSSOVER_MAX_SL = 1024  # longest input ddb_hiding_crossover searches


@dataclass(frozen=True)
class Segment:
    agent: str  # "copy" or "compute"
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

    def rows(self) -> list[dict]:
        """One JSON-ready dict per segment, in (start, agent) order."""
        # "role" repeats the agent; it stays so timeline reports keep their keys
        return [{"agent": s.agent, "role": s.agent, "layer": s.tag,
                 "start": s.start, "end": s.end, "buffer": s.buffer}
                for s in sorted(self.segments, key=lambda s: (s.start, s.agent))]


@dataclass
class PrefillResult:
    scenario: Scenario
    sl: int
    ttft: float
    breakdown: dict
    schedule: Callable[[], Timeline | None] = field(repr=False, compare=False)

    @cached_property
    def timeline(self) -> Timeline | None:
        """``schedule()`` on first read: None for an NC stream, which has none."""
        return self.schedule()


@dataclass
class DecodeResult:
    scenario: Scenario
    out_len: int
    token_seconds: float
    tps: float
    total_seconds: float


def _fsum(values) -> float:
    """``math.fsum``, but ``inf`` where the sum leaves the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


# ----------------------------------------------------------------------
# Per-layer schedule structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _PlanSegment:
    tag: str               # the matrix: "attn" or "q" ... "ff2"
    compute_seconds: float
    nbytes: int            # the matrix's weight bytes (0 for "attn")
    copy_bytes: float      # paired copy load (0 for none)
    copy_tag: str          # "ff0"-"ff2", or "qkvo": the next layer's projections
    buffer: int | None     # DDB buffer the GEMM reads; its copy fills the other


def layer_plan(model: ModelSpec, hw: HardwareSpec,
               sl: int) -> list[_PlanSegment]:
    """One decoder layer's compute segments, weight bytes and DDB copies.

    Every layer has the same plan; only the last layer issues no ``qkvo``
    copy, which the schedule builder drops.  The projections read buffer 0
    and the feed-forward matrices alternate from buffer 1, so each matrix
    has the same buffer in every layer.
    """
    eb = model.element_bytes
    params = {m.name: m.params() for m in model.layer_matrices()}
    nbytes = {name: n * eb for name, n in params.items()}

    def seg(name, copy_bytes, copy_tag, buffer) -> _PlanSegment:
        return _PlanSegment(name, gemm_time(nbytes[name], params[name], sl, hw),
                            nbytes[name], copy_bytes, copy_tag, buffer)

    quarter = nbytes["ff0"] / FF0_COPY_QUARTERS
    qkvo = sum(nbytes[name] for name in ("q", "k", "v", "o"))
    segs = [seg(name, quarter, "ff0", 0) for name in ("q", "k", "v", "o")]
    segs += [seg("ff0", nbytes["ff1"], "ff1", 1),
             seg("ff1", nbytes["ff2"], "ff2", 0), seg("ff2", qkvo, "qkvo", 1)]
    if hw.host_attn_seconds_per_layer > 0:
        segs.insert(0, _PlanSegment("attn", hw.host_attn_seconds_per_layer,
                                    0, 0.0, "", None))
    return segs


# ----------------------------------------------------------------------
# DDB schedule
# ----------------------------------------------------------------------

def build_ddb_schedule(model: ModelSpec, hw: HardwareSpec,
                       plan: list[_PlanSegment], head_seconds: float,
                       head_bytes: int) -> Timeline:
    """Double-buffered prefill timeline for the whole decoder stack, from
    one layer's ``plan`` and the output head's compute seconds and weight
    bytes (0 for a model without a head)."""
    tl = Timeline()

    def copy_seconds(nbytes: float) -> float:
        return smc_time(nbytes, Scenario.S_DDB.record.copy_agents, hw)

    copies = [copy_seconds(seg.copy_bytes) for seg in plan]
    comp_t = copy_t = 0.0
    if model.layers:
        preload = copies[-1]  # ff2's copy: layer 0's projections
        tl.segments.append(Segment("copy", "preload", 0.0, preload, buffer=0))
        comp_t = copy_t = preload
    for layer in range(model.layers):
        prefix = f"layer{layer}."
        for seg, copy in zip(plan, copies):
            start = comp_t
            comp_t += seg.compute_seconds
            tl.segments.append(Segment("compute", prefix + seg.tag,
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
            tl.segments.append(Segment("copy", copy_tag,
                                       c_start, copy_t, buffer=1 - seg.buffer))
        # one synchronization barrier per layer
        comp_t = copy_t = max(comp_t, copy_t)
    if head_bytes > 0:
        copy_total = copy_seconds(head_bytes)
        tile = min(model.ff_bytes, head_bytes)
        start = comp_t
        # pipelined at buffer-half granularity: first tile copy exposed
        end = start + max(head_seconds, copy_total) + copy_seconds(tile)
        tl.segments.append(Segment("compute", "lm_head",
                                   start, end, buffer=None))
        tl.segments.append(Segment("copy", "lm_head",
                                   start, start + copy_total, buffer=None))
    tl.validate()
    return tl


# ----------------------------------------------------------------------
# Prefill / decode entry points
# ----------------------------------------------------------------------

def run_prefill(scenario: Scenario, model: ModelSpec, hw: HardwareSpec,
                sl: int, pim_bytes: int | None = None) -> PrefillResult:
    """Calibrated time-to-first-token and per-agent timeline of one scenario.

    Prefill streams host-friendly weights, so ``pim_bytes`` has no effect;
    the parameter is kept for interface compatibility.
    """
    if not isinstance(scenario, Scenario):
        raise ConfigError(f"unknown scenario {scenario}")
    if sl < 1:
        raise ConfigError("sl must be >= 1")
    plan = layer_plan(model, hw, sl)
    head = model.head_matrix()
    head_params = head.params() if head else 0
    head_bytes = head_params * model.element_bytes
    head_seconds = gemm_time(head_bytes, head_params, sl, hw)
    # fsum is correctly rounded, so the order of the terms does not matter
    gemm_total = _fsum([s.compute_seconds for s in plan] * model.layers
                       + [head_seconds])
    record = scenario.record
    if record.schedule is Schedule.DOUBLE_BUFFERED:
        tl = build_ddb_schedule(model, hw, plan, head_seconds, head_bytes)
        copy_busy = _fsum(s.duration for s in tl.agent_segments("copy"))
        return PrefillResult(scenario, sl, tl.end,
                             {"gemm_seconds": gemm_total,
                              "smc_seconds": copy_busy}, lambda: tl)
    if record.schedule is Schedule.NC_STREAM:
        # each GEMM streams its weights; the "attn" segment adds attention
        nc_bw = hw.nc_stream_bw_gbps * 1e9
        total = _fsum([max(sl * s.nbytes / nc_bw, s.compute_seconds)
                       for s in plan] * model.layers
                      + [max(sl * head_bytes / nc_bw, head_seconds)])
        return PrefillResult(scenario, sl, total,
                             {"gemm_seconds": gemm_total,
                              "nc_stream_seconds": total}, lambda: None)
    # serial: with copy agents, a copy of each layer and the head before it
    copies, smc_total = None, 0.0
    if record.copy_agents:
        copies = (smc_time(sum(s.nbytes for s in plan), record.copy_agents, hw),
                  smc_time(head_bytes, record.copy_agents, hw))
        smc_total = _fsum([copies[0]] * model.layers + [copies[1]])
    return PrefillResult(scenario, sl, gemm_total + smc_total,
                         {"gemm_seconds": gemm_total, "smc_seconds": smc_total},
                         lambda: _serial_timeline(model, plan, head_seconds,
                                                  copies))


def _serial_timeline(model: ModelSpec, plan: list[_PlanSegment],
                     head_seconds: float,
                     copies: tuple[float, float] | None = None) -> Timeline:
    """Compute-only schedule of ``plan`` repeated per layer plus the head,
    optionally with ``copies``, the seconds of a serial copy before each
    layer and before the head."""
    steps = []  # (agent, tag, seconds), run back to back
    for layer in range(model.layers):
        if copies is not None:
            steps.append(("copy", f"layer{layer}.smc", copies[0]))
        steps += [("compute", f"layer{layer}.{seg.tag}", seg.compute_seconds)
                  for seg in plan]
    if model.head_matrix() is not None:
        if copies is not None:
            steps.append(("copy", "lm_head.smc", copies[1]))
        steps.append(("compute", "lm_head", head_seconds))
    tl, t = Timeline(), 0.0
    for agent, tag, seconds in steps:
        tl.segments.append(Segment(agent, tag, t, t + seconds))
        t += seconds
    tl.validate()
    return tl


def run_decode(scenario: Scenario, model: ModelSpec, hw: HardwareSpec,
               out_len: int, pim_bytes: int | None = None) -> DecodeResult:
    """Per-token decode latency; every PIM scenario shares one PIM-aware copy."""
    if out_len < 0:
        raise ConfigError("out_len must be >= 0")
    token = decode_token_time(model, hw, scenario.record.pim_copy,
                              pim_bytes=pim_bytes)
    tps = 1.0 / token if token > 0 else float("inf")
    return DecodeResult(scenario, out_len, token, tps, out_len * token)


def end_to_end_row(prefill: PrefillResult, decode: DecodeResult,
                   host_token_seconds: float) -> dict:
    """Report row of one point, with speedup over C_GEMM.

    The C_GEMM baseline is compute-only prefill (the ``gemm_seconds`` every
    prefill reports) plus host decode at ``host_token_seconds`` per token,
    so no baseline is evaluated.  A time or speedup beyond the float range
    is a ``ConfigError``, never an ``inf`` or ``nan`` in the row.
    """
    total = prefill.ttft + decode.total_seconds
    base_total = (prefill.breakdown["gemm_seconds"]
                  + decode.out_len * host_token_seconds)
    row = {
        "scenario": prefill.scenario.value,
        "in_len": prefill.sl,
        "out_len": decode.out_len,
        "ttft_seconds": prefill.ttft,
        "token_seconds": decode.token_seconds,
        "decode_seconds": decode.total_seconds,
        "total_seconds": total,
        "speedup_vs_c_gemm": base_total / total if total > 0 else 1.0,
    }
    bad = [key for key in ("ttft_seconds", "token_seconds", "decode_seconds",
                           "total_seconds", "speedup_vs_c_gemm")
           if not math.isfinite(row[key])]
    if bad:
        raise ConfigError(f"modeled {', '.join(bad)} beyond the float range "
                          f"at {row['scenario']}, in_len {row['in_len']}; "
                          "check the hardware parameters")
    return row


def end_to_end_grid(model: ModelSpec, hw: HardwareSpec, scenarios, in_lens,
                    out_lens, pim_bytes: int | None = None) -> list[dict]:
    """Report rows of a calibrated grid in (scenario, in_len, out_len) order.

    Each prefill is evaluated once per (scenario, in_len), each decode once
    per (scenario, out_len) and the host token time once per grid.
    """
    if not (scenarios and in_lens and out_lens):
        raise ConfigError("scenarios, in_lens and out_lens must be non-empty")
    host_token = decode_token_time(model, hw, False)
    rows = []
    for scenario in scenarios:
        decodes = [run_decode(scenario, model, hw, out_len, pim_bytes=pim_bytes)
                   for out_len in out_lens]
        for in_len in in_lens:
            prefill = run_prefill(scenario, model, hw, in_len)
            rows += [end_to_end_row(prefill, decode, host_token)
                     for decode in decodes]
    return rows


def ddb_hiding_crossover(model: ModelSpec, hw: HardwareSpec) -> int:
    """Smallest input length at which every DDB copy chunk fits inside its
    paired compute segment (full latency hiding, preload aside)."""
    for sl in range(1, CROSSOVER_MAX_SL + 1):
        if all(smc_time(seg.copy_bytes, Scenario.S_DDB.record.copy_agents, hw)
               <= seg.compute_seconds for seg in layer_plan(model, hw, sl)
               if seg.copy_bytes > 0
               and (seg.copy_tag != "qkvo" or model.layers > 1)):
            return sl
    raise ConfigError(f"no crossover at or below sl={CROSSOVER_MAX_SL}")
