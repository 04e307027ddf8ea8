"""Analytical and calibrated latency / bandwidth / capacity models.

Two models:

* The analytical model works in exact rational t-units, where ``t`` is the
  time of one weight stream from DRAM.  GEMM costs ``analytical_gemm_t(SL)
  = max(1, SL/4) * t`` (arithmetic intensity ~4 FLOP/B on the target CPU)
  and an online rearrangement costs ``ONLINE_T``, three DRAM transactions
  (a non-cacheable read, a read into cache and a write back).  It gives
  ``rearrangement_overhead_table`` and each scenario's ``analytical_prefill``.
* The calibrated model uses measured-style parameters for a Galaxy S24+
  class device; ``gemm_time`` and ``smc_time`` return seconds.

The calibrated swizzled-copy bandwidths are fitted constants: observed
copies out of a non-cacheable region run about twice as slow as
cacheable-to-cacheable movement and a two-thread copy does not saturate
DRAM bandwidth, so the three-transaction model substantially
overestimates the achievable rate.  Both knobs are exposed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, check_int
from .model import ModelSpec
from .scenario import Scenario, Schedule

GB = 1e9
ANALYTICAL_FLOP_PER_BYTE = 4
ONLINE_T = Fraction(3)  # online rearrangement: three DRAM transactions
OVERHEAD_TABLE_SL = ("1-4", 8, 16, 32, 64, 128, 192)


def _is_number(value) -> bool:
    """A real number, and not a ``bool`` (which Python counts as one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class HardwareSpec:
    """Host + PIM system parameters (defaults: Galaxy S24+ class device).

    Bandwidths are in GB/s (1e9 bytes/s), compute in GFLOP/s.
    ``gemm_effective_gflops`` is the sustained GEMM rate of the four cores
    assigned to compute, well below the 321 GFLOPS six-core peak.
    ``nc_stream_bw_gbps`` is the effective rate of a host GEMM streaming
    weights straight from a non-cacheable region (no reuse, no prefetch).
    """

    peak_gflops: float = 321.0
    dram_bw_gbps: float = 68.264
    pim_bw_multiplier: float = 8.0
    gemm_effective_gflops: float = 107.0
    smc_bw_2agents_gbps: float = 2.87
    smc_bw_4agents_gbps: float = 4.25
    nc_read_penalty: float = 2.0
    nc_stream_bw_gbps: float = 2.87
    host_overhead_per_token: float = 0.0
    host_attn_seconds_per_layer: float = 0.0
    smc_bw_override_gbps: float | None = None

    def __post_init__(self):
        positive = ["peak_gflops", "dram_bw_gbps", "pim_bw_multiplier",
                    "gemm_effective_gflops", "smc_bw_2agents_gbps",
                    "smc_bw_4agents_gbps", "nc_read_penalty",
                    "nc_stream_bw_gbps"]
        if self.smc_bw_override_gbps is not None:
            positive.append("smc_bw_override_gbps")
        for name in positive:
            value = getattr(self, name)
            if not _is_number(value) or not (value > 0) or not math.isfinite(value):
                raise ConfigError(f"{name} must be finite and strictly positive")
            # a GB/s or GFLOP/s rate is used in units per second
            if name.endswith(("_gbps", "_gflops")) and not math.isfinite(value * GB):
                raise ConfigError(f"{name} times 1e9 leaves the float range")
        for name in ("host_overhead_per_token", "host_attn_seconds_per_layer"):
            value = getattr(self, name)
            if not _is_number(value) or not (value >= 0) or not math.isfinite(value):
                raise ConfigError(f"{name} must be finite and non-negative")
        if not math.isfinite(self.dram_bw_gbps * GB * self.pim_bw_multiplier):
            raise ConfigError("dram_bw_gbps * 1e9 * pim_bw_multiplier leaves "
                              "the float range")
        if self.gemm_effective_gflops > self.peak_gflops:
            raise ConfigError("gemm_effective_gflops exceeds peak_gflops")

    def smc_bw_gbps(self, agents: int) -> float:
        if self.smc_bw_override_gbps is not None:
            return self.smc_bw_override_gbps
        if agents == 2:
            return self.smc_bw_2agents_gbps
        if agents == 4:
            return self.smc_bw_4agents_gbps
        raise ConfigError(f"no calibrated copy bandwidth for {agents} agents; "
                          "set smc_bw_override_gbps")


def _round_half_up(x: Fraction) -> int:
    return int((x + Fraction(1, 2)).__floor__())


def analytical_gemm_t(sl: int) -> Fraction:
    """GEMM latency in exact t-units: ``max(1, SL/4)`` weight streams."""
    return max(Fraction(1), Fraction(sl, ANALYTICAL_FLOP_PER_BYTE))


def gemm_time(bytes_: int, params: int, sl: int, hw: HardwareSpec) -> float:
    """Calibrated GEMM seconds: the roofline max of streaming the weights
    once and computing 2*SL*params FLOPs at the sustained rate."""
    if sl < 1:
        raise ConfigError("sl must be >= 1")
    if params == 0 or bytes_ == 0:
        return 0.0
    stream = bytes_ / (hw.dram_bw_gbps * GB)
    compute = 2.0 * sl * params / (hw.gemm_effective_gflops * GB)
    return max(stream, compute)


def smc_time(bytes_: int, agents: int, hw: HardwareSpec) -> float:
    """Swizzled-copy seconds: the copied bytes over the calibrated
    bandwidth of ``agents`` copy agents."""
    return bytes_ / (hw.smc_bw_gbps(agents) * GB)


@dataclass(frozen=True)
class OverheadRow:
    sl_label: str
    gemm_t: Fraction
    dram_t: Fraction
    online_t: Fraction
    sum_t: Fraction
    sum_pct: int
    max_t: Fraction
    max_pct: int


def rearrangement_overhead_table() -> list[OverheadRow]:
    """Online-rearrangement overhead versus GEMM across input lengths,
    in exact t-units, for serial (SUM) and overlapped (MAX) execution."""
    rows = []
    for sl in OVERHEAD_TABLE_SL:
        gemm = analytical_gemm_t(4 if sl == "1-4" else sl)
        total = gemm + ONLINE_T
        peak = max(gemm, ONLINE_T)
        rows.append(OverheadRow(
            sl_label=str(sl),
            gemm_t=gemm,
            dram_t=Fraction(1),
            online_t=ONLINE_T,
            sum_t=total,
            sum_pct=_round_half_up(100 * total / gemm),
            max_t=peak,
            max_pct=_round_half_up(100 * peak / gemm),
        ))
    return rows


def analytical_prefill(scenario: Scenario, sl: int,
                       hw: HardwareSpec) -> tuple[Fraction, dict]:
    """Time to first token of one scenario in exact t-units, and the online
    rearrangement's overhead over GEMM, serial (SUM) and overlapped (MAX)."""
    sl = check_int("sl", sl)
    gemm = analytical_gemm_t(sl)
    serial, overlapped = gemm + ONLINE_T, max(gemm, ONLINE_T)
    # NC stream: one non-cacheable weight stream per input token, at a penalty
    nc = sl * Fraction(str(hw.nc_read_penalty))  # the penalty as written
    record = scenario.record
    ttft = {Schedule.SERIAL: serial if record.copy_agents else gemm,
            Schedule.DOUBLE_BUFFERED: overlapped,
            Schedule.NC_STREAM: nc}[record.schedule]
    return ttft, {"mode": "analytical", "gemm_t_units": gemm,
                  "overhead_sum_pct": float(100 * serial / gemm),
                  "overhead_max_pct": float(100 * overlapped / gemm)}


def _pim_image_bytes(pim_bytes, host: int) -> int:
    """``pim_bytes`` as an ``int``; ``ConfigError`` unless it passes the
    integer rule and is at least the ``host`` weight bytes it holds."""
    pim_bytes = check_int("pim_bytes", pim_bytes, 0)
    if pim_bytes < host:
        raise ConfigError(f"pim_bytes {pim_bytes} is below the model's {host} weight "
                          "bytes; a PIM image holds every weight")
    return pim_bytes


def capacity_report(model: ModelSpec, scenario: Scenario, pim_bytes: int,
                    host_bytes: int | None = None) -> dict:
    """DRAM capacity of one scenario's weight copies and cacheable buffers,
    and its savings versus weight duplication (both copies, no buffer);
    ``ConfigError`` unless the PIM image holds the ``host_bytes`` (by
    default the model's) weight bytes."""
    host = model.host_bytes() if host_bytes is None else host_bytes
    pim_bytes = _pim_image_bytes(pim_bytes, host)
    padding = pim_bytes - host
    record = scenario.record
    weights = host * record.host_copy + pim_bytes * record.pim_copy
    buffer_bytes = record.buffers * model.ff_bytes
    total = weights + buffer_bytes
    wd_total = host + pim_bytes
    return {
        "scenario": scenario.value,
        "weights_bytes": weights,
        "padding_bytes": padding,
        "buffer_bytes": buffer_bytes,
        "total_bytes": total,
        "savings_vs_wd_pct": 100.0 * (1.0 - total / wd_total) if wd_total else 0.0,
    }


def decode_token_time(model: ModelSpec, hw: HardwareSpec, use_pim: bool,
                      pim_bytes: int | None = None) -> float:
    """Seconds per generated token: the decode GEMVs stream every linear
    weight once per token, at PIM-boosted bandwidth when enabled.  A given
    ``pim_bytes`` must hold every weight byte, whatever ``use_pim``."""
    if pim_bytes is not None:
        pim_bytes = _pim_image_bytes(pim_bytes, model.host_bytes())
    if use_pim:
        bytes_ = model.host_bytes() if pim_bytes is None else pim_bytes
        bw = hw.dram_bw_gbps * GB * hw.pim_bw_multiplier
    else:
        bytes_ = model.host_bytes()
        bw = hw.dram_bw_gbps * GB
    return bytes_ / bw + hw.host_overhead_per_token
