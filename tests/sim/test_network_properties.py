"""Property tests for :class:`SampleableSet` against a reference model.

The swap-pop/index-map construction must behave exactly like a plain
``set`` under any interleaving of adds and discards, while sampling
(:meth:`SampleableSet.sample_chunk`, the pool fill's entry point) only
ever returns current members.  Hypothesis drives random operation
sequences; the reference model is the built-in ``set``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import SampleableSet

#: One operation: (op, value).  ``sample`` ignores its value.
operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "discard", "sample"]),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(ops=operations, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_matches_reference_set_model(ops, seed):
    rng = np.random.default_rng(seed)
    sampleable = SampleableSet()
    model = set()
    for op, value in ops:
        if op == "add":
            sampleable.add(value)
            model.add(value)
        elif op == "discard":
            sampleable.discard(value)
            model.discard(value)
        elif model:
            picked = sampleable.sample_chunk(rng.random(4).tolist())
            assert len(picked) == 4
            assert set(picked) <= model
        # Invariants after every step.
        assert len(sampleable) == len(model)
        for member in model:
            assert member in sampleable
        assert set(sampleable) == model


@settings(max_examples=50, deadline=None)
@given(members=st.sets(st.integers(min_value=0, max_value=30), min_size=1))
def test_every_member_is_reachable_by_sampling(members):
    """Sampling must not systematically exclude any member."""
    sampleable = SampleableSet()
    for member in members:
        sampleable.add(member)
    uniforms = np.random.default_rng(0).random(40 * len(members)).tolist()
    assert set(sampleable.sample_chunk(uniforms)) == members


def test_add_discard_idempotence():
    sampleable = SampleableSet()
    sampleable.add(1)
    sampleable.add(1)
    assert len(sampleable) == 1
    sampleable.discard(1)
    sampleable.discard(1)
    assert len(sampleable) == 0
