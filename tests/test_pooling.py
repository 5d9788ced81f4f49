"""Average pooling exactness, and FIFO eviction of the pooled-frame buffer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streammem import FrameFeature, MemoryEngine, default_config
from streammem.pooling import average_pool

from oracles import pool_loops


def _frame(arr):
    return FrameFeature.from_array(np.asarray(arr, dtype=float))


def test_pool_constant_grid_stays_constant():
    tokens = np.full((8, 8, 3), 2.75)
    for target in (1, 2, 4, 8):
        pooled = average_pool(tokens, target)
        assert pooled.shape == (target, target, 3)
        assert np.allclose(pooled, 2.75, atol=0, rtol=0)


def test_pool_2x2_to_1_is_arithmetic_mean():
    tokens = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    pooled = average_pool(tokens, 1)
    assert pooled.shape == (1, 1, 1)
    assert pooled[0, 0, 0] == pytest.approx(2.5, abs=0)


def test_pool_matches_nested_loop_oracle():
    rng = np.random.default_rng(42)
    tokens = rng.normal(size=(8, 8, 4))
    for target in (1, 2, 4):
        got = average_pool(tokens, target)
        want = pool_loops(tokens, target)
        assert np.max(np.abs(got - want)) < 1e-12


def test_pool_identity_when_target_equals_grid():
    tokens = np.random.default_rng(0).normal(size=(4, 4, 2))
    assert average_pool(tokens, 4) is tokens


@settings(max_examples=50)
@given(
    seed=st.integers(0, 10_000),
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    target=st.sampled_from([1, 2, 3, 6]),
)
def test_pool_is_linear(seed, a, b, target):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 6, 2))
    y = rng.normal(size=(6, 6, 2))
    lhs = average_pool(a * x + b * y, target)
    rhs = a * average_pool(x, target) + b * average_pool(y, target)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=50)
@given(seed=st.integers(0, 10_000), target=st.sampled_from([1, 2, 4]))
def test_pool_preserves_global_mean(seed, target):
    tokens = np.random.default_rng(seed).normal(size=(4, 4, 3))
    pooled = average_pool(tokens, target)
    assert np.max(np.abs(pooled.mean(axis=(0, 1)) - tokens.mean(axis=(0, 1)))) < 1e-12


def test_buffer_fifo_eviction_oldest_first():
    # Constant frames 1, 2, 3, 4 at grid 2 (= p_spa). While the temporal bank
    # fills, the heaviest cluster is frame 1, so retrieval returns frame 1 as
    # long as it is buffered, and otherwise the nearest survivor, frame 2.
    def retrieved_values(n_buff):
        cfg = default_config(
            dim=1, p_spa=2, p_tem=1, p_abs=1, n_buff=n_buff, n_spa=1, n_tem=4,
            n_abs=1, n_ret=1,
        )
        engine = MemoryEngine(cfg)
        values = []
        for v in (1.0, 2.0, 3.0, 4.0):
            engine.ingest_frame(_frame(np.full((2, 2, 1), v)))
            snap = engine.read_snapshot()
            assert np.all(snap.bank("spatial") == v)
            values.append(float(snap.bank("retrieved")[0, 0]))
        return values

    assert retrieved_values(3) == [1.0, 1.0, 1.0, 2.0]  # frame 4 evicts frame 1
    assert retrieved_values(4) == [1.0, 1.0, 1.0, 1.0]  # nothing evicted yet
