"""Calibrated prefill/decode orchestration over a decoder-layer stack.

Every prefill reads one decoder layer's plan (``layer_plan``: each
matrix's GEMM seconds, weight bytes and paired copy) and the head, sized
once, and takes the branch of its scenario's ``Schedule``.  A timeline has
a compute agent running the GEMMs and a copy agent running swizzled
memory copies out of the non-cacheable region.

* Serial (``_serial_steps``): the GEMMs run back to back.  With copy
  agents, each layer and the head are copied in full just before their
  GEMMs, so the TTFT is the compute-only one plus the total copy time,
  exactly.
* Double-buffered: each copy into one buffer runs beside the GEMM that
  reads the other (``layer_plan`` pairs them), starting no earlier than
  that GEMM and never during attention.  The first layer's projections
  are preloaded, the agents synchronize once per layer, and the head is
  pipelined against its copy at buffer-half granularity.  ``_ddb_steps``
  holds this arithmetic once: the TTFT and copy time read its floats.
* NC stream: each GEMM streams its matrix from the non-cacheable copy
  once per input token; there is no timeline.

Both step generators yield one format, from which ``_timeline`` builds a
timeline on the first read of ``PrefillResult.timeline``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, NamedTuple

from .cost import HardwareSpec, decode_token_time, gemm_time, smc_time
from .errors import ConfigError, check_int
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


def _stack_sum(per_layer, layers: int, head: float) -> float:
    """``_fsum`` of the sequence ``per_layer`` once per layer, plus ``head``,
    with no list that grows with the layer count."""
    return _fsum(chain(chain.from_iterable(repeat(per_layer, layers)), (head,)))


# ----------------------------------------------------------------------
# Per-layer schedule structure
# ----------------------------------------------------------------------

class _PlanSegment(NamedTuple):
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

def _ddb_steps(model: ModelSpec, hw: HardwareSpec,
               plan: list[_PlanSegment], head_seconds: float,
               head_bytes: int):
    """Double-buffered prefill schedule of the whole decoder stack, from
    one layer's ``plan`` and the output head's compute seconds and weight
    bytes (0 for a model without a head).

    Yields one ``(agent, layer, tag, start, end, buffer)`` tuple per
    segment, in schedule order; ``layer`` is the decoder layer a segment
    belongs to, or None for the preload and the head.
    """
    def copy_seconds(nbytes: float) -> float:
        return smc_time(nbytes, Scenario.S_DDB.record.copy_agents, hw)

    # per matrix: its copy's layer, relative to the GEMM's (None for no
    # copy; 1 for the next layer's projections), and seconds
    steps = [(seg.tag, seg.compute_seconds, seg.buffer, seg.copy_tag,
              1 if seg.copy_tag == "qkvo" else 0 if seg.copy_bytes > 0 else None,
              copy_seconds(seg.copy_bytes)) for seg in plan]
    comp_t = copy_t = 0.0
    if model.layers:
        preload = steps[-1][-1]  # ff2's copy: layer 0's projections
        yield "copy", None, "preload", 0.0, preload, 0
        comp_t = copy_t = preload
    last = model.layers - 1
    for layer in range(model.layers):
        for tag, seconds, buffer, copy_tag, ahead, copy in steps:
            start = comp_t
            comp_t += seconds
            yield "compute", layer, tag, start, comp_t, buffer
            if ahead is None or ahead and layer == last:
                continue  # no copy, or no next layer to preload
            # max(copy_t, start), as an expression rather than a call
            c_start = start if start > copy_t else copy_t
            copy_t = c_start + copy
            yield "copy", layer + ahead, copy_tag, c_start, copy_t, 1 - buffer
        # one synchronization barrier per layer
        comp_t = copy_t = copy_t if copy_t > comp_t else comp_t
    if head_bytes > 0:
        copy_total = copy_seconds(head_bytes)
        tile = min(model.ff_bytes, head_bytes)
        start = comp_t
        # pipelined at buffer-half granularity: first tile copy exposed
        end = start + max(head_seconds, copy_total) + copy_seconds(tile)
        yield "compute", None, "lm_head", start, end, None
        yield "copy", None, "lm_head", start, start + copy_total, None


def _serial_steps(model: ModelSpec, plan: list[_PlanSegment],
                  head_seconds: float, copies: tuple[float, float] | None = None):
    """Serial prefill schedule in the tuples of ``_ddb_steps``: ``plan`` per
    layer, then the head, back to back, each after a serial copy of
    ``copies[0]`` (a layer) or ``copies[1]`` (the head) seconds if given."""
    t = 0.0
    for layer in range(model.layers):
        if copies is not None:
            yield "copy", layer, "smc", t, t + copies[0], None
            t += copies[0]
        for seg in plan:
            yield "compute", layer, seg.tag, t, t + seg.compute_seconds, None
            t += seg.compute_seconds
    if model.head_matrix() is not None:
        if copies is not None:
            yield "copy", None, "lm_head.smc", t, t + copies[1], None
            t += copies[1]
        yield "compute", None, "lm_head", t, t + head_seconds, None


def _timeline(steps) -> Timeline:
    """The segments of ``(agent, layer, tag, start, end, buffer)`` steps,
    tagged ``layer{n}.{tag}`` within a layer, as a validated timeline."""
    tl = Timeline([Segment(agent, tag if layer is None else f"layer{layer}.{tag}",
                           start, end, buffer)
                   for agent, layer, tag, start, end, buffer in steps])
    tl.validate()
    return tl


def build_ddb_schedule(model: ModelSpec, hw: HardwareSpec,
                       plan: list[_PlanSegment], head_seconds: float,
                       head_bytes: int) -> Timeline:
    """The double-buffered prefill's timeline, from ``_ddb_steps``."""
    return _timeline(_ddb_steps(model, hw, plan, head_seconds, head_bytes))


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
    sl = check_int("sl", sl)
    plan = layer_plan(model, hw, sl)
    head = model.head_matrix()
    head_params = head.params() if head else 0
    head_bytes = head_params * model.element_bytes
    head_seconds = gemm_time(head_bytes, head_params, sl, hw)
    gemm_total = _stack_sum([s.compute_seconds for s in plan], model.layers,
                            head_seconds)
    record = scenario.record
    if record.schedule is Schedule.DOUBLE_BUFFERED:
        # the schedule's end and copy time in one pass, without its segments
        ttft = 0.0

        def copy_spans():
            nonlocal ttft
            for agent, _, _, start, end, _ in _ddb_steps(model, hw, plan,
                                                          head_seconds, head_bytes):
                if end > ttft:
                    ttft = end
                if agent == "copy":
                    yield end - start

        smc_seconds = _fsum(copy_spans())  # sets ttft as it runs
        return PrefillResult(scenario, sl, ttft,
                             {"gemm_seconds": gemm_total,
                              "smc_seconds": smc_seconds},
                             lambda: build_ddb_schedule(model, hw, plan,
                                                        head_seconds, head_bytes))
    if record.schedule is Schedule.NC_STREAM:
        # each GEMM streams its weights; the "attn" segment adds attention
        nc_bw = hw.nc_stream_bw_gbps * 1e9
        total = _stack_sum([max(sl * s.nbytes / nc_bw, s.compute_seconds)
                            for s in plan], model.layers,
                           max(sl * head_bytes / nc_bw, head_seconds))
        return PrefillResult(scenario, sl, total,
                             {"gemm_seconds": gemm_total,
                              "nc_stream_seconds": total}, lambda: None)
    # serial: with copy agents, a copy of each layer and the head before it
    copies, smc_total = None, 0.0
    if record.copy_agents:
        copies = (smc_time(sum(s.nbytes for s in plan), record.copy_agents, hw),
                  smc_time(head_bytes, record.copy_agents, hw))
        smc_total = _stack_sum(copies[:1], model.layers, copies[1])
    return PrefillResult(scenario, sl, gemm_total + smc_total,
                         {"gemm_seconds": gemm_total, "smc_seconds": smc_total},
                         lambda: _timeline(_serial_steps(model, plan, head_seconds,
                                                         copies)))


def run_decode(scenario: Scenario, model: ModelSpec, hw: HardwareSpec,
               out_len: int, pim_bytes: int | None = None) -> DecodeResult:
    """Per-token decode latency; every PIM scenario shares one PIM-aware copy."""
    out_len = check_int("out_len", out_len, 0)
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
