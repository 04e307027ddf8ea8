"""BF16 <-> float conversion helpers.

Elements travel through the simulator as raw uint16 bit patterns; these
helpers convert between bit patterns and float32 values with
round-to-nearest-even on encode.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def check_bits(values) -> np.ndarray:
    """``values`` as contiguous uint16 bit patterns; ``ConfigError`` unless
    they are integers in [0, 0xFFFF].  A uint16 array takes no value pass."""
    bits = np.asarray(values)
    if bits.dtype != np.uint16 and (bits.dtype.kind not in "iu" or (
            bits.size and not 0 <= bits.min() <= bits.max() <= 0xFFFF)):
        raise ConfigError("element bit patterns must be integers in [0, 0xFFFF]")
    return np.ascontiguousarray(bits, dtype=np.uint16)


def encode(values) -> np.ndarray:
    """float -> bf16 bit pattern (uint16), round to nearest even.  A NaN,
    which rounding could carry into the sign, keeps its sign, made quiet."""
    f32 = np.asarray(values, dtype=np.float32)
    bits = f32.view(np.uint32)
    rounding = 0x7FFF + ((bits >> 16) & 1)
    encoded = ((bits + rounding) >> 16).astype(np.uint16)
    nan = np.isnan(f32)
    if nan.any():
        encoded = np.where(nan, ((bits >> 16) | 0x0040).astype(np.uint16), encoded)[()]
    return encoded


def decode(bits) -> np.ndarray:
    """bf16 bit pattern (uint16) -> float32, the pattern as its high half;
    a scalar pattern gives a scalar.  One widening copy, shifted in place:
    ``np.left_shift`` with ``dtype=np.uint32`` casts through a buffer and
    is slower."""
    f32 = np.asarray(bits, dtype=np.uint16).astype(np.uint32)
    f32 <<= 16
    return f32.view(np.float32)[()]
