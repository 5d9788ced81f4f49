"""Attention forward against a loop oracle, analytic gradients against finite
differences, bank-update recurrence, and params file round-trips."""

import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from streammem import (
    AttentionParams,
    FrameFeature,
    ShapeError,
    default_config,
    load_attention_params,
    save_attention_params,
)
from streammem.attention import abstract_update, semantic_attention, semantic_attention_grad
from streammem.pooling import average_pool

from streammem.model import MAX_MAGNITUDE

from oracles import attention_loops, finite_difference, seeded_params


def _case(seed, n_abs=4, n=2, d=3):
    rng = np.random.default_rng(seed)
    abstract = rng.normal(size=(n_abs, d))
    new = rng.normal(size=(n, d))
    params = seeded_params(d, seed + 1)
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
    out = semantic_attention(abstract, new, params, 0.1)
    expect = (1 - 0.1) * abstract + new  # weight row is [1.0]
    assert np.max(np.abs(out - expect)) < 1e-12


def test_alpha_one_full_decay_returns_new_feature():
    rng = np.random.default_rng(2)
    abstract = rng.normal(size=(4, 3))
    new = rng.normal(size=(1, 3))
    params = seeded_params(3, 3)
    out = semantic_attention(abstract, new, params, 1.0)
    assert np.max(np.abs(out - new)) < 1e-12  # every row equals the new token


def test_forward_matches_loop_oracle():
    for seed in range(10):
        abstract, new, params = _case(seed)
        got = semantic_attention(abstract, new, params, 0.1)
        want = attention_loops(abstract, new, params.key_proj, params.query_proj, 0.1)
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
    params = seeded_params(d, seed)
    weights = _attn_weights(abstract, new, params)
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-9
    assert (weights > 0).all() and (weights <= 1).all()
    assert np.isfinite(semantic_attention(abstract, new, params, 0.1)).all()


def test_numerical_stability_with_extreme_scores():
    abstract = np.array([[1e4, 0.0], [0.0, -1e4]])
    new = np.array([[1e4, 1e4], [-1e4, 1e4]])
    params = AttentionParams(np.eye(2), np.eye(2))
    out = semantic_attention(abstract, new, params, 0.5)
    assert np.isfinite(out).all()


def test_zero_upstream_gives_zero_projection_grads():
    abstract, new, params = _case(4)
    grads = semantic_attention_grad(abstract, new, params, 0.1, np.zeros_like(abstract))
    assert np.all(grads.key_proj == 0)
    assert np.all(grads.query_proj == 0)
    assert np.all(grads.abstract == 0)
    assert np.all(grads.new_features == 0)


def _gradcheck(seed, alpha=0.1):
    rng = np.random.default_rng(seed)
    n_abs, n, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(2, 5)
    abstract = rng.normal(size=(n_abs, d))
    new = rng.normal(size=(n, d))
    key = rng.normal(size=(d, d)) / np.sqrt(d)
    query = rng.normal(size=(d, d)) / np.sqrt(d)
    target = rng.normal(size=(n_abs, d))

    def loss():
        params = AttentionParams(key, query)
        out = semantic_attention(abstract, new, params, alpha)
        return float(np.sum((out - target) ** 2))

    params = AttentionParams(key, query)
    out = semantic_attention(abstract, new, params, alpha)
    upstream = 2.0 * (out - target)
    got = semantic_attention_grad(abstract, new, params, alpha, upstream)
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
    _gradcheck(101, alpha=0.9)


def test_constant_new_features_give_rank_one_key_grad():
    rng = np.random.default_rng(11)
    d, n = 4, 3
    token = rng.normal(size=d)
    new = np.tile(token, (n, 1))
    abstract = rng.normal(size=(5, d))
    key = rng.normal(size=(d, d)) / 2
    query = rng.normal(size=(d, d)) / 2
    params = AttentionParams(key, query)
    target = rng.normal(size=(5, d))
    out = semantic_attention(abstract, new, params, 0.1)
    upstream = 2.0 * (out - target)
    grads = semantic_attention_grad(abstract, new, params, 0.1, upstream)
    # every row of d(key_proj) is a scalar multiple of the shared token
    assert np.linalg.matrix_rank(grads.key_proj, tol=1e-10) <= 1
    unit = token / np.linalg.norm(token)
    for row in grads.key_proj:
        residual = row - (row @ unit) * unit
        assert np.max(np.abs(residual)) < 1e-9
    # and the analytic values themselves agree with finite differences

    def loss():
        p = AttentionParams(key, query)
        o = semantic_attention(abstract, new, p, 0.1)
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
        params = AttentionParams(key, query)
        out = semantic_attention(abstract, new, params, 0.1)
        losses.append(float(np.sum((out - target) ** 2)))
        grads = semantic_attention_grad(abstract, new, params, 0.1, 2.0 * (out - target))
        key = key - 0.005 * grads.key_proj
        query = query - 0.005 * grads.query_proj
    assert losses[-1] < losses[0]


def test_abstract_update_rows_equal_first_frame():
    cfg = default_config(n_abs=4, p_abs=1, dim=3)
    params = seeded_params(3, 0)
    bank = np.zeros((4, 3))
    frame = FrameFeature.from_array(np.random.default_rng(1).normal(size=(2, 2, 3)))
    updated = abstract_update(bank, average_pool(frame.tokens, cfg.p_abs), params, cfg)
    pooled = frame.tokens.mean(axis=(0, 1))
    assert updated.shape == bank.shape
    for row in updated:
        assert np.max(np.abs(row - pooled)) < 1e-12


def test_abstract_update_converges_geometrically():
    cfg = default_config(n_abs=3, p_abs=1, dim=2, decay_alpha=0.25)
    params = seeded_params(2, 5)
    frame = FrameFeature.from_array(np.full((2, 2, 2), 1.5))
    fixed_point = 1.5 / 0.25  # alpha * M = f at the fixed point
    bank = np.zeros((3, 2))
    gaps = []
    for _ in range(12):
        bank = abstract_update(bank, average_pool(frame.tokens, cfg.p_abs), params, cfg)
        gaps.append(np.max(np.abs(bank - fixed_point)))
    ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-13]
    for r in ratios:
        assert abs(r - 0.75) < 1e-9  # contraction at exactly 1 - alpha


# Entries that probe the one-token identity's edges: signed zeros, subnormals,
# the magnitude bound and ordinary mixed-sign values.
_EDGE_VALUES = [-0.0, 0.0, 2.0**-1070, -(2.0**-1070), 2.0**-1074, -(2.0**-1074),
                MAX_MAGNITUDE, -MAX_MAGNITUDE, 1.5, -0.75]
_edge_entries = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE, allow_subnormal=True),
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 8),
    n_abs=st.integers(1, 4),
    decay_alpha=st.sampled_from([0.1, 0.5, 0.9, 1e-6, 1 - 2.0**-53]),
    bound_projections=st.booleans(),
)
def test_one_token_abstract_update_equals_semantic_attention_bytes(
    data, dim, n_abs, decay_alpha, bound_projections
):
    # At p_abs=1 abstract_update skips attention and never reads params; its
    # bytes must still be semantic_attention's, signed zeros included.
    cfg = default_config(dim=dim, n_abs=n_abs, decay_alpha=decay_alpha)
    assert cfg.p_abs == 1
    bank = data.draw(arrays(np.float64, (n_abs, dim), elements=_edge_entries))
    frame = data.draw(arrays(np.float64, (1, 1, dim), elements=_edge_entries))
    if bound_projections:
        signs = data.draw(arrays(np.float64, (2, dim, dim), elements=st.sampled_from([-1.0, 1.0])))
        params = AttentionParams(MAX_MAGNITUDE * signs[0], MAX_MAGNITUDE * signs[1])
    else:
        params = AttentionParams.seeded(dim)
    with np.errstate(over="raise", invalid="raise"):
        want = semantic_attention(bank, frame.reshape(1, dim), params, decay_alpha)
    for given_params in (None, params):
        assert abstract_update(bank, frame, given_params, cfg).tobytes() == want.tobytes()


def test_one_token_abstract_update_turns_signed_zeros_positive():
    # The attention product sums from +0.0, so a -0.0 in both the decayed
    # bank and the token comes out +0.0; (1 - alpha) * bank + token alone
    # would keep the -0.0.
    cfg = default_config(dim=2, n_abs=1)
    bank = np.array([[-0.0, 1.0]])
    frame = np.array([-0.0, -0.0]).reshape(1, 1, 2)
    got = abstract_update(bank, frame, None, cfg)
    assert got.tobytes() == np.array([[0.0, 0.9]]).tobytes()
    want = semantic_attention(bank, frame.reshape(1, 2), AttentionParams.seeded(2), 0.1)
    assert got.tobytes() == want.tobytes()


def test_abstract_update_multi_token_grids():
    cfg = default_config(n_abs=2, p_abs=2, p_tem=2, p_spa=4, dim=3)
    params = seeded_params(3, 9)
    bank = np.random.default_rng(3).normal(size=(8, 3))  # n_abs * p_abs**2 token rows
    frame = FrameFeature.from_array(np.random.default_rng(4).normal(size=(4, 4, 3)))
    updated = abstract_update(bank, average_pool(frame.tokens, cfg.p_abs), params, cfg)
    assert updated.shape == (8, 3)
    # cross-check against calling the attention core directly
    new = average_pool(frame.tokens, 2).reshape(-1, 3)
    want = semantic_attention(bank, new, params, cfg.decay_alpha)
    assert np.array_equal(updated, want)


def test_params_file_round_trip(tmp_path):
    params = seeded_params(5, 77)
    path = tmp_path / "proj.atp"
    save_attention_params(params, path)
    assert path.read_bytes()[:8] == struct.pack("<4sI", b"ATP2", 5)
    loaded = load_attention_params(path)
    assert loaded.key_proj.tobytes() == params.key_proj.tobytes()
    assert loaded.query_proj.tobytes() == params.query_proj.tobytes()


def test_params_file_rejects_corruption(tmp_path):
    params = seeded_params(3, 1)
    path = tmp_path / "proj.atp"
    save_attention_params(params, path)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.atp"
    bad.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(ValueError, match="magic"):
        load_attention_params(bad)

    # An ATP1 file, which stored a decay after dim, is refused by its magic.
    bad.write_bytes(struct.pack("<4sId", b"ATP1", 3, 0.1) + bytes(blob[8:]))
    with pytest.raises(ValueError, match="bad attention params magic"):
        load_attention_params(bad)

    bad.write_bytes(bytes(blob[:-8]))
    with pytest.raises(ValueError, match="bytes"):
        load_attention_params(bad)

    tag_offset = 8  # first role tag follows the 8-byte header
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


def test_params_file_is_read_no_further_than_its_header_declares(tmp_path):
    # A dim-4 file is 266 bytes. Behind that header sits a sparse 1 GiB file:
    # the whole read once peaked at 1024 MB before the size check ran.
    big = tmp_path / "big.atp"
    with open(big, "wb") as f:
        f.write(struct.pack("<4sI", b"ATP2", 4))
        f.truncate(2**30 + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="is over 266 bytes, expected 266 for dim 4"):
            load_attention_params(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # A dim whose matrices would take 2**67 bytes costs no more than the file.
    big.write_bytes(struct.pack("<4sI", b"ATP2", 2**32 - 1) + bytes(10))
    with pytest.raises(ValueError, match="is 18 bytes"):
        load_attention_params(big)


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=96),
        # ATP2 magic and a small dim, then arbitrary matrix bytes.
        st.builds(
            lambda dim, rest: struct.pack("<4sI", b"ATP2", dim) + rest,
            st.integers(0, 3),
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
    params = AttentionParams.seeded(4)
    again = AttentionParams.seeded(4)
    assert params.key_proj.tobytes() == again.key_proj.tobytes()
    assert params.query_proj.tobytes() == seeded_params(4, 0).query_proj.tobytes()
    with pytest.raises(ValueError):
        params.key_proj[0, 0] = 1.0


@pytest.mark.parametrize("dim", [0, -1, True, 2.5, "4", 2**15 + 1, 2**16])
def test_seeded_params_refuse_a_bad_dim_before_drawing(dim, monkeypatch):
    # 0 once raised ZeroDivisionError, -1 a TypeError about complex, True and
    # 2.5 TypeErrors; at 2**16 the two projections would take 64 GiB.
    def no_draw(*args):
        raise AssertionError("drew before checking dim")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ShapeError, match=re.escape(f"dim must be an int >= 1 within the byte limit, got {dim!r}")):
        AttentionParams.seeded(dim)


def test_seeded_params_take_a_numpy_int_dim():
    assert AttentionParams.seeded(np.int64(3)).key_proj.tobytes() == AttentionParams.seeded(3).key_proj.tobytes()
