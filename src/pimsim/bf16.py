"""BF16 <-> float conversion helpers.

Elements travel through the simulator as raw uint16 bit patterns; these
helpers convert between bit patterns and float32 values with
round-to-nearest-even on encode.
"""

from __future__ import annotations

import numpy as np


def encode(values) -> np.ndarray:
    """float -> bf16 bit pattern (uint16), round to nearest even."""
    f32 = np.asarray(values, dtype=np.float32)
    bits = f32.view(np.uint32)
    rounding = 0x7FFF + ((bits >> 16) & 1)
    return ((bits + rounding) >> 16).astype(np.uint16)


def decode(bits) -> np.ndarray:
    """bf16 bit pattern (uint16) -> float32, the pattern as its high half;
    a scalar pattern gives a scalar.  One widening copy, shifted in place:
    ``np.left_shift`` with ``dtype=np.uint32`` casts through a buffer and
    is slower."""
    f32 = np.asarray(bits, dtype=np.uint16).astype(np.uint32)
    f32 <<= 16
    return f32.view(np.float32)[()]
