"""The sizes a model derives once: each layer matrix's and the head's."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimsim.model import MatrixShape, ModelSpec


@st.composite
def models(draw):
    """A model of 0-64 layers, with or without a head, of any element size
    and any kv ratio that gives a whole number of kv columns."""
    hidden = draw(st.integers(1, 4096))
    return ModelSpec(hidden=hidden, intermediate=draw(st.integers(1, 16384)),
                     layers=draw(st.just(0) | st.integers(0, 64)),
                     kv_ratio=Fraction(draw(st.integers(1, 2 * hidden)), hidden),
                     vocab=draw(st.just(0) | st.integers(0, 200_000)),
                     element_bytes=draw(st.integers(1, 4)))


@settings(max_examples=100, deadline=None)
@given(models())
@example(ModelSpec(64, 256, 0, vocab=0))
@example(ModelSpec(3072, 8192, 28, Fraction(1, 3), vocab=128256))
def test_derived_sizes_are_the_matrices(model):
    assert model.layer_sizes() == tuple(
        (m.name, m.params(), m.params() * model.element_bytes)
        for m in model.layer_matrices())
    head = MatrixShape("lm_head", model.vocab, model.hidden) if model.vocab else None
    assert model.head_matrix() == head
    assert model.layer_params() == sum(m.params() for m in model.layer_matrices())
