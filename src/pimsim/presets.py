"""Named model, hardware, and DRAM-geometry presets.

Two scales are provided: phone-scale presets matching the calibrated
device parameters (for capacity and latency reproduction) and a desk
scale geometry small enough for exhaustive functional simulation.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from fractions import Fraction

from .cost import HardwareSpec
from .dram import AddressMap, DramGeometry
from .errors import ConfigError
from .layout import model_placements
from .model import ModelSpec

MODELS = {
    # 1.24B params: hidden 2048, FFN 8192, 16 layers, GQA 8 KV of 32 heads,
    # tied embedding counted once
    "llama3.2-1b": ModelSpec(hidden=2048, intermediate=8192, layers=16,
                             kv_ratio=Fraction(1, 4), vocab=128256),
    # 3.2B params: hidden 3072, FFN 8192, 28 layers, 8 KV of 24 heads
    "llama3.2-3b": ModelSpec(hidden=3072, intermediate=8192, layers=28,
                             kv_ratio=Fraction(1, 3), vocab=128256),
    # desk-scale stack for functional tests
    "toy-64": ModelSpec(hidden=64, intermediate=256, layers=1,
                        kv_ratio=Fraction(1, 4), vocab=128),
}

# Phone-scale LPDDR5X: 4 channels x 16 banks, 1 KiB rows, 32 B bursts;
# 8 GiB, which holds the weight stack of either llama preset.
PHONE_GEOMETRY = DramGeometry(channels=4, ranks_per_channel=1,
                              banks_per_rank=16, rows_per_bank=131072,
                              columns_per_row=32, burst_bytes=32,
                              element_bytes=2)

# Desk-scale geometry: a few MB, exhaustively traceable.
DESK_GEOMETRY = DramGeometry(channels=1, ranks_per_channel=1,
                             banks_per_rank=16, rows_per_bank=256,
                             columns_per_row=32, burst_bytes=32,
                             element_bytes=2)

HARDWARE = {
    "s24plus": HardwareSpec(),
    "ideal-bw": HardwareSpec(smc_bw_override_gbps=68.264,
                             nc_stream_bw_gbps=68.264),
}


def model_preset(name: str) -> ModelSpec:
    try:
        return MODELS[name]
    except KeyError:
        raise ConfigError(f"unknown model preset {name!r}; "
                          f"choose from {sorted(MODELS)}") from None


def hardware_preset(name: str) -> HardwareSpec:
    try:
        return HARDWARE[name]
    except KeyError:
        raise ConfigError(f"unknown hardware preset {name!r}; "
                          f"choose from {sorted(HARDWARE)}") from None


def geometry_preset(name: str) -> DramGeometry:
    presets = {"phone": PHONE_GEOMETRY, "desk": DESK_GEOMETRY}
    try:
        return presets[name]
    except KeyError:
        raise ConfigError(f"unknown geometry preset {name!r}; "
                          f"choose from {sorted(presets)}") from None


@functools.lru_cache(maxsize=64)
def pim_weight_bytes(model: ModelSpec,
                     geometry: DramGeometry = PHONE_GEOMETRY) -> int:
    """Padded bytes of the slabs that ``pimsim convert`` stacks, with the
    model's element size (a ``GeometryError`` if no burst holds it).  Both
    arguments are frozen, so the size is computed once per pair."""
    geometry = replace(geometry, element_bytes=model.element_bytes)
    placements = model_placements(model, AddressMap(geometry),
                                  banks_per_channel=geometry.banks_per_rank,
                                  channels_used=geometry.channels)
    return sum(p.padded_bytes for _, p in placements)
