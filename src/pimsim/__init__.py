"""Functional + analytical simulator for PIM-enabled LPDDR inference.

Models a mobile memory system in which GEMV accumulation is triggered by
DRAM read commands: address-mapped weight placement, cacheable vs
non-cacheable regions, swizzled memory copies, a command-trace-driven
PIM GEMV engine, and calibrated capacity/latency reproduction of
prefill/decode scheduling strategies.
"""

from .bf16 import decode as bf16_decode
from .bf16 import encode as bf16_encode
from .cost import (HardwareSpec, analytical_prefill, capacity_report,
                   decode_token_time, gemm_time, rearrangement_overhead_table,
                   smc_time)
from .dram import AddressMap, DramCoord, DramGeometry
from .engine import GemvJob, GemvResult, IntegrityReport, PimGemvEngine
from .errors import (AttributeViolation, CapacityError, ConfigError,
                     GeometryError, RegionError, SimulatorError)
from .layout import (PimImage, PimPlacement, WeightMatrix, convert_to_pim_aware,
                     model_placements, smc_copy, unswizzle)
from .memsys import (Attribute, CacheConfig, MemoryRegion, MemorySystem,
                     RegionKind, Source, TraceRecord)
from .model import MatrixShape, ModelSpec
from .runtime import (PrefillResult, build_ddb_schedule, ddb_hiding_crossover,
                      end_to_end_grid, run_decode, run_prefill, timeline_rows)
from .scenario import Scenario

__version__ = "0.1.0"

__all__ = [
    "AddressMap", "Attribute", "AttributeViolation", "CacheConfig",
    "CapacityError", "ConfigError", "DramCoord", "DramGeometry", "GemvJob",
    "GemvResult", "GeometryError", "HardwareSpec", "IntegrityReport",
    "MatrixShape", "MemoryRegion", "MemorySystem", "ModelSpec",
    "PimGemvEngine", "PimImage", "PimPlacement", "PrefillResult",
    "RegionError", "RegionKind", "Scenario", "SimulatorError", "Source",
    "TraceRecord", "WeightMatrix",
    "analytical_prefill", "bf16_decode", "bf16_encode", "build_ddb_schedule",
    "capacity_report", "convert_to_pim_aware", "ddb_hiding_crossover",
    "decode_token_time", "end_to_end_grid", "gemm_time", "model_placements",
    "rearrangement_overhead_table", "run_decode", "run_prefill", "smc_copy",
    "smc_time", "timeline_rows", "unswizzle",
]
