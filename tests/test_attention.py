"""Attention forward against a loop oracle, analytic gradients against finite
differences, bank-update recurrence, and params file round-trips."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streammem import (
    AttentionParams,
    FrameFeature,
    ShapeError,
    abstract_update,
    average_pool,
    default_config,
    load_attention_params,
    save_attention_params,
    semantic_attention,
    semantic_attention_grad,
)

from oracles import attention_loops, finite_difference


def _case(seed, n_abs=4, n=2, d=3, alpha=0.1):
    rng = np.random.default_rng(seed)
    abstract = rng.normal(size=(n_abs, d))
    new = rng.normal(size=(n, d))
    params = AttentionParams.seeded(d, seed=seed + 1, decay_alpha=alpha)
    return abstract, new, params


def _attn_weights(abstract, new, params):
    keys = new @ params.key_proj.T
    queries = abstract @ params.query_proj.T
    scores = queries @ keys.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def test_single_new_feature_softmax_is_one():
    abstract, _, params = _case(0, n=1)
    new = np.random.default_rng(5).normal(size=(1, 3))
    out = semantic_attention(abstract, new, params)
    expect = (1 - params.decay_alpha) * abstract + new  # weight row is [1.0]
    assert np.max(np.abs(out - expect)) < 1e-12


def test_alpha_one_full_decay_returns_new_feature():
    rng = np.random.default_rng(2)
    abstract = rng.normal(size=(4, 3))
    new = rng.normal(size=(1, 3))
    params = AttentionParams.seeded(3, seed=3, decay_alpha=1.0)
    out = semantic_attention(abstract, new, params)
    assert np.max(np.abs(out - new)) < 1e-12  # every row equals the new token


def test_forward_matches_loop_oracle():
    for seed in range(10):
        abstract, new, params = _case(seed)
        got = semantic_attention(abstract, new, params)
        want = attention_loops(
            abstract, new, params.key_proj, params.query_proj, params.decay_alpha
        )
        assert np.max(np.abs(got - want)) < 1e-9


def test_forward_matches_loop_oracle_with_scaling():
    abstract, new, params = _case(17, n=3, d=4)
    got = semantic_attention(abstract, new, params, scale=True)
    want = attention_loops(
        abstract, new, params.key_proj, params.query_proj,
        params.decay_alpha, scale=True,
    )
    assert np.max(np.abs(got - want)) < 1e-9


@settings(max_examples=40)
@given(
    seed=st.integers(0, 100_000),
    n_abs=st.integers(1, 6),
    n=st.integers(1, 6),
    d=st.integers(1, 8),
)
def test_rows_stochastic_and_output_finite(seed, n_abs, n, d):
    rng = np.random.default_rng(seed)
    abstract = rng.normal(size=(n_abs, d))
    new = rng.normal(size=(n, d))
    params = AttentionParams.seeded(d, seed=seed)
    weights = _attn_weights(abstract, new, params)
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-9
    assert (weights > 0).all() and (weights <= 1).all()
    assert np.isfinite(semantic_attention(abstract, new, params)).all()


def test_numerical_stability_with_extreme_scores():
    abstract = np.array([[1e4, 0.0], [0.0, -1e4]])
    new = np.array([[1e4, 1e4], [-1e4, 1e4]])
    params = AttentionParams(np.eye(2), np.eye(2), decay_alpha=0.5)
    out = semantic_attention(abstract, new, params)
    assert np.isfinite(out).all()


def test_shape_errors():
    abstract, new, params = _case(0)
    with pytest.raises(ShapeError):
        semantic_attention(abstract[:, :2], new, params)
    with pytest.raises(ShapeError):
        semantic_attention(abstract, new[:, :2], params)
    with pytest.raises(ShapeError, match="empty"):
        semantic_attention(abstract, new[:0], params)
    with pytest.raises(ShapeError):
        semantic_attention_grad(abstract, new, params, np.zeros((2, 2)))


def test_zero_upstream_gives_zero_projection_grads():
    abstract, new, params = _case(4)
    grads = semantic_attention_grad(abstract, new, params, np.zeros_like(abstract))
    assert np.all(grads.key_proj == 0)
    assert np.all(grads.query_proj == 0)
    assert np.all(grads.abstract == 0)
    assert np.all(grads.new_features == 0)


def _gradcheck(seed, scale=False, alpha=0.1):
    rng = np.random.default_rng(seed)
    n_abs, n, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(2, 5)
    abstract = rng.normal(size=(n_abs, d))
    new = rng.normal(size=(n, d))
    key = rng.normal(size=(d, d)) / np.sqrt(d)
    query = rng.normal(size=(d, d)) / np.sqrt(d)
    target = rng.normal(size=(n_abs, d))

    def loss():
        params = AttentionParams(key, query, decay_alpha=alpha)
        out = semantic_attention(abstract, new, params, scale=scale)
        return float(np.sum((out - target) ** 2))

    params = AttentionParams(key, query, decay_alpha=alpha)
    out = semantic_attention(abstract, new, params, scale=scale)
    upstream = 2.0 * (out - target)
    got = semantic_attention_grad(abstract, new, params, upstream, scale=scale)
    checks = [
        (got.key_proj, finite_difference(loss, key)),
        (got.query_proj, finite_difference(loss, query)),
        (got.abstract, finite_difference(loss, abstract)),
        (got.new_features, finite_difference(loss, new)),
    ]
    for analytic, numeric in checks:
        denom = np.maximum(np.abs(numeric), 1e-4)
        rel = np.max(np.abs(analytic - numeric) / denom)
        assert rel < 1e-3, f"seed {seed}: rel err {rel}"


def test_gradients_match_finite_differences():
    for seed in range(8):
        _gradcheck(seed)


def test_gradients_match_finite_differences_scaled_and_full_decay():
    _gradcheck(100, scale=True)
    _gradcheck(101, alpha=0.9)


def test_constant_new_features_give_rank_one_key_grad():
    rng = np.random.default_rng(11)
    d, n = 4, 3
    token = rng.normal(size=d)
    new = np.tile(token, (n, 1))
    abstract = rng.normal(size=(5, d))
    key = rng.normal(size=(d, d)) / 2
    query = rng.normal(size=(d, d)) / 2
    params = AttentionParams(key, query, decay_alpha=0.1)
    target = rng.normal(size=(5, d))
    out = semantic_attention(abstract, new, params)
    upstream = 2.0 * (out - target)
    grads = semantic_attention_grad(abstract, new, params, upstream)
    # every row of d(key_proj) is a scalar multiple of the shared token
    assert np.linalg.matrix_rank(grads.key_proj, tol=1e-10) <= 1
    unit = token / np.linalg.norm(token)
    for row in grads.key_proj:
        residual = row - (row @ unit) * unit
        assert np.max(np.abs(residual)) < 1e-9
    # and the analytic values themselves agree with finite differences

    def loss():
        p = AttentionParams(key, query, decay_alpha=0.1)
        o = semantic_attention(abstract, new, p)
        return float(np.sum((o - target) ** 2))

    numeric = finite_difference(loss, key)
    rel = np.max(np.abs(grads.key_proj - numeric) / np.maximum(np.abs(numeric), 1e-4))
    assert rel < 1e-3


def test_gradient_descent_reduces_loss():
    # toy learnability: a few steps of plain gradient descent on the
    # projections should strictly reduce a reconstruction loss
    rng = np.random.default_rng(21)
    abstract = rng.normal(size=(3, 4))
    new = rng.normal(size=(2, 4))
    target = rng.normal(size=(3, 4))
    key = rng.normal(size=(4, 4)) * 0.5
    query = rng.normal(size=(4, 4)) * 0.5
    losses = []
    for _ in range(80):
        params = AttentionParams(key, query, decay_alpha=0.1)
        out = semantic_attention(abstract, new, params)
        losses.append(float(np.sum((out - target) ** 2)))
        grads = semantic_attention_grad(abstract, new, params, 2.0 * (out - target))
        key = key - 0.005 * grads.key_proj
        query = query - 0.005 * grads.query_proj
    assert losses[-1] < losses[0]


def test_abstract_update_rows_equal_first_frame():
    cfg = default_config(n_abs=4, p_abs=1, dim=3)
    params = AttentionParams.seeded(3, seed=0, decay_alpha=0.3)
    bank = np.zeros((4, 1, 1, 3))
    frame = FrameFeature.from_array(np.random.default_rng(1).normal(size=(2, 2, 3)))
    updated = abstract_update(bank, average_pool(frame.tokens, cfg.p_abs), params, cfg)
    pooled = frame.tokens.mean(axis=(0, 1))
    assert updated.shape == bank.shape
    for row in updated.reshape(4, 3):
        assert np.max(np.abs(row - pooled)) < 1e-12


def test_abstract_update_converges_geometrically():
    cfg = default_config(n_abs=3, p_abs=1, dim=2, decay_alpha=0.25)
    params = AttentionParams.seeded(2, seed=5, decay_alpha=0.25)
    frame = FrameFeature.from_array(np.full((2, 2, 2), 1.5))
    fixed_point = 1.5 / 0.25  # alpha * M = f at the fixed point
    bank = np.zeros((3, 1, 1, 2))
    gaps = []
    for _ in range(12):
        bank = abstract_update(bank, average_pool(frame.tokens, cfg.p_abs), params, cfg)
        gaps.append(np.max(np.abs(bank - fixed_point)))
    ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-13]
    for r in ratios:
        assert abs(r - 0.75) < 1e-9  # contraction at exactly 1 - alpha


def test_abstract_update_multi_token_grids():
    cfg = default_config(n_abs=2, p_abs=2, p_tem=2, p_spa=4, dim=3)
    params = AttentionParams.seeded(3, seed=9)
    bank = np.random.default_rng(3).normal(size=(2, 2, 2, 3))
    frame = FrameFeature.from_array(np.random.default_rng(4).normal(size=(4, 4, 3)))
    updated = abstract_update(bank, average_pool(frame.tokens, cfg.p_abs), params, cfg)
    assert updated.shape == (2, 2, 2, 3)
    # cross-check against calling the attention core directly
    new = average_pool(frame.tokens, 2).reshape(-1, 3)
    want = semantic_attention(bank.reshape(8, 3), new, params).reshape(2, 2, 2, 3)
    assert np.array_equal(updated, want)


def test_params_file_round_trip(tmp_path):
    params = AttentionParams.seeded(5, seed=77, decay_alpha=0.2)
    path = tmp_path / "proj.atp"
    save_attention_params(params, path)
    loaded = load_attention_params(path)
    assert loaded.key_proj.tobytes() == params.key_proj.tobytes()
    assert loaded.query_proj.tobytes() == params.query_proj.tobytes()
    assert loaded.decay_alpha == params.decay_alpha


def test_params_file_rejects_corruption(tmp_path):
    params = AttentionParams.seeded(3, seed=1)
    path = tmp_path / "proj.atp"
    save_attention_params(params, path)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.atp"
    bad.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(ValueError, match="magic"):
        load_attention_params(bad)

    bad.write_bytes(bytes(blob[:-8]))
    with pytest.raises(ValueError, match="bytes"):
        load_attention_params(bad)

    tag_offset = 16  # first role tag follows the 16-byte header
    blob[tag_offset] = ord("X")
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="role tag"):
        load_attention_params(bad)

    # The layout is K then Q: swapped tags, or K twice, are rejected too.
    second = tag_offset + 1 + 3 * 3 * 8
    blob[tag_offset], blob[second] = ord("Q"), ord("K")
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"role tag b'K' at offset {tag_offset}"):
        load_attention_params(bad)
    blob[tag_offset] = ord("K")
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"role tag b'Q' at offset {second}"):
        load_attention_params(bad)


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=96),
        # ATP1 magic, a small dim and any alpha, then arbitrary matrix bytes.
        st.builds(
            lambda dim, alpha, rest: struct.pack("<4sId", b"ATP1", dim, alpha) + rest,
            st.integers(0, 3),
            st.floats(allow_nan=True, allow_infinity=True),
            st.binary(max_size=160),
        ),
    )
)
def test_fuzz_load_attention_params_raises_only_value_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.atp"
        path.write_bytes(data)
        try:
            params = load_attention_params(path)
        except ValueError:
            return
    assert np.isfinite(params.key_proj).all() and np.isfinite(params.query_proj).all()


def test_params_validation():
    with pytest.raises(ShapeError):
        AttentionParams(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        AttentionParams(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        AttentionParams(np.full((2, 2), np.nan), np.zeros((2, 2)))
    params = AttentionParams.seeded(4, seed=0)
    again = AttentionParams.seeded(4, seed=0)
    assert params.key_proj.tobytes() == again.key_proj.tobytes()
    with pytest.raises(ValueError):
        params.key_proj[0, 0] = 1.0
