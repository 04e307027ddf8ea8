"""Decoder-stack model description used by layout, cost, and runtime code.

Only the linear (weight-streaming) layers are described: the seven
projection matrices of each decoder layer plus the output head.  The
embedding table shares storage with the output head (tied weights) and is
not counted separately.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, check_int

# every run visits each layer, so the bound bounds its time (an S-DDB timeline is the slowest)
MAX_LAYERS = 2 ** 15


@dataclass(frozen=True)
class MatrixShape:
    """One weight matrix: ``out_dim`` output rows by ``in_dim`` input columns."""

    name: str
    out_dim: int
    in_dim: int

    def params(self) -> int:
        return self.out_dim * self.in_dim


@dataclass(frozen=True)
class ModelSpec:
    hidden: int
    intermediate: int
    layers: int
    kv_ratio: Fraction = Fraction(1, 4)
    vocab: int = 0
    element_bytes: int = 2

    def __post_init__(self):
        for name, least in (("hidden", 1), ("intermediate", 1), ("layers", 0), ("vocab", 0),
                            ("element_bytes", 1)):
            object.__setattr__(self, name, check_int(f"model {name}", getattr(self, name), least))
        if self.layers > MAX_LAYERS:
            raise ConfigError(f"model layers must be at most {MAX_LAYERS}, got {self.layers}")
        kv = Fraction(self.kv_ratio)
        object.__setattr__(self, "kv_ratio", kv)
        if kv <= 0:
            raise ConfigError(f"kv_ratio must be positive, got {kv}")
        if (self.hidden * kv).denominator != 1:
            raise ConfigError("hidden * kv_ratio must be an integer")
        # derived once per model; no fields, so equality and hashing ignore them
        kv_dim, h, i = int(self.hidden * kv), self.hidden, self.intermediate
        object.__setattr__(self, "_layer_matrices", (
            MatrixShape("q", h, h),
            MatrixShape("k", kv_dim, h),
            MatrixShape("v", kv_dim, h),
            MatrixShape("o", h, h),
            MatrixShape("ff0", i, h),
            MatrixShape("ff1", i, h),
            MatrixShape("ff2", h, i),
        ))
        eb = self.element_bytes
        object.__setattr__(self, "_layer_sizes", tuple(
            (m.name, m.params(), m.params() * eb) for m in self._layer_matrices))
        head = MatrixShape("lm_head", self.vocab, h) if self.vocab > 0 else None
        object.__setattr__(self, "_head", head)
        object.__setattr__(self, "_total_params", self.layers * self.layer_params()
                           + (head.params() if head else 0))
        if self.host_bytes() >= 2 ** 63:
            raise ConfigError("model weights must fit in 2**63 - 1 bytes")
        # every prefill sizes one decoder layer, even of a stack of none
        if self.layer_params() * self.element_bytes >= 2 ** 63:
            raise ConfigError("one decoder layer's weights must fit in 2**63 - 1 bytes")

    def layer_matrices(self) -> tuple[MatrixShape, ...]:
        """Projection matrices of one decoder layer, in execution order."""
        return self._layer_matrices

    def layer_sizes(self) -> tuple[tuple[str, int, int], ...]:
        """``(name, params, bytes)`` of each matrix of ``layer_matrices()``."""
        return self._layer_sizes

    def head_matrix(self) -> MatrixShape | None:
        """The output head, or None for a model of ``vocab`` 0."""
        return self._head

    def all_matrices(self) -> Iterator[MatrixShape]:
        """Every distinct weight matrix, layer-by-layer plus the head, made
        one at a time as they are read."""
        for layer in range(self.layers):
            for m in self._layer_matrices:
                yield MatrixShape(f"layer{layer}.{m.name}", m.out_dim, m.in_dim)
        head = self.head_matrix()
        if head is not None:
            yield head

    def layer_params(self) -> int:
        return sum(params for _, params, _ in self._layer_sizes)

    def total_params(self) -> int:
        return self._total_params

    def host_bytes(self) -> int:
        """Host-friendly (unpadded) weight footprint in bytes."""
        return self.total_params() * self.element_bytes

    @property
    def ff_bytes(self) -> int:
        """Bytes of one feed-forward matrix, ``hidden * intermediate``
        elements.  It is the largest layer weight only when ``intermediate
        >= hidden``, and S-DDB's ``qkvo`` copy group can be larger."""
        return self.hidden * self.intermediate * self.element_bytes
