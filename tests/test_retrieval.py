"""Key-frame retrieval against a brute-force scan, tie rules, warm-up errors."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streammem import (
    FrameFeature,
    ShapeError,
    WarmupError,
    average_pool,
    default_config,
    retrieve_key_features,
)

from oracles import pool_loops, retrieve_bruteforce

CFG = default_config(p_spa=4, p_tem=2, p_abs=1, n_ret=3, dim=3, n_buff=50)


def _frames(rng, count, grid=4, dim=3):
    return [FrameFeature.from_array(rng.normal(size=(grid, grid, dim))) for _ in range(count)]


def _candidates(buffer):
    """The buffer pooled to p_tem=2, one flattened frame per row, newest first."""
    return np.stack([average_pool(f.tokens, 2).reshape(-1) for f in buffer])


def test_top_weight_cluster_selection():
    rng = np.random.default_rng(0)
    buffer = _frames(rng, 4)
    centroids = rng.normal(size=(3, 2, 2, 3))
    weights = np.array([5.0, 1.0, 9.0])
    cfg = replace(CFG, n_ret=2)
    got = retrieve_key_features(_candidates(buffer), centroids, weights, cfg)
    want = retrieve_bruteforce(
        [pool_loops(f.tokens, 2) for f in buffer], centroids, weights, 2
    )
    # clusters 2 then 0 drive the scan; results are those clusters' nearest
    assert got == want
    ranked = sorted(range(3), key=lambda c: (-weights[c], c))[:2]
    assert ranked == [2, 0]


def test_exact_match_frame_is_retrieved():
    rng = np.random.default_rng(1)
    buffer = _frames(rng, 6)
    target = average_pool(buffer[3].tokens, 2)
    centroids = np.stack([target, rng.normal(size=(2, 2, 3))])
    weights = np.array([10.0, 1.0])
    got = retrieve_key_features(
        _candidates(buffer), centroids, weights, replace(CFG, n_ret=1)
    )
    assert got == [3]


def test_matches_bruteforce_oracle_20_frames_5_clusters():
    rng = np.random.default_rng(2)
    buffer = _frames(rng, 20)
    centroids = rng.normal(size=(5, 2, 2, 3))
    weights = rng.integers(1, 30, size=5).astype(float)
    got = retrieve_key_features(_candidates(buffer), centroids, weights, CFG)
    want = retrieve_bruteforce(
        [pool_loops(f.tokens, 2) for f in buffer], centroids, weights, CFG.n_ret
    )
    assert got == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_matches_bruteforce_oracle_random_instances(seed):
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(1, 15))
    k = int(rng.integers(1, 7))
    n_ret = int(rng.integers(1, 7))
    buffer = _frames(rng, n_frames)
    centroids = rng.normal(size=(k, 2, 2, 3))
    weights = rng.integers(1, 10, size=k).astype(float)
    cfg = default_config(p_spa=4, p_tem=2, dim=3, n_tem=max(k, n_ret), n_ret=n_ret)
    want = retrieve_bruteforce(
        [pool_loops(f.tokens, 2) for f in buffer], centroids, weights, n_ret
    )
    got = retrieve_key_features(_candidates(buffer), centroids, weights, cfg)
    assert len(got) == min(n_ret, k)
    assert got == want
    # The same buffer stored as a ring whose newest frame sits in row r.
    r = int(rng.integers(0, n_frames))
    ring = np.roll(_candidates(buffer), r, axis=0)
    got = retrieve_key_features(ring, centroids, weights, cfg, newest=r)
    assert [(i - r) % n_frames for i in got] == want


def test_weight_tie_prefers_lower_cluster_index():
    rng = np.random.default_rng(4)
    buffer = _frames(rng, 5)
    centroids = rng.normal(size=(4, 2, 2, 3))
    weights = np.array([2.0, 7.0, 7.0, 7.0])
    cfg = replace(CFG, n_ret=2, n_tem=4)
    got = retrieve_key_features(_candidates(buffer), centroids, weights, cfg)
    want = retrieve_bruteforce(
        [pool_loops(f.tokens, 2) for f in buffer], centroids, weights, 2
    )
    assert got == want
    # ties on 7.0 resolve to clusters 1 then 2, never 3
    ranked = sorted(range(4), key=lambda c: (-weights[c], c))[:2]
    assert ranked == [1, 2]


def test_distance_tie_prefers_newer_frame():
    rng = np.random.default_rng(5)
    tokens = rng.normal(size=(4, 4, 3))
    newer = FrameFeature.from_array(tokens)
    older = FrameFeature.from_array(tokens.copy())  # equal values
    filler = FrameFeature.from_array(rng.normal(size=(4, 4, 3)) + 50.0)
    centroids = average_pool(newer.tokens, 2)[None]
    weights = np.array([1.0])
    # newest first: row 0 beats row 2
    assert retrieve_key_features(_candidates([newer, filler, older]), centroids, weights, CFG) == [0]
    # ring rows (older, newer, filler) with the newest in row 1: row 1 beats row 0
    ring = _candidates([older, newer, filler])
    assert retrieve_key_features(ring, centroids, weights, CFG, newest=1) == [1]


def test_duplicate_retrieval_allowed_across_clusters():
    rng = np.random.default_rng(6)
    base = FrameFeature.from_array(rng.normal(size=(4, 4, 3)))
    far = FrameFeature.from_array(rng.normal(size=(4, 4, 3)) + 100.0)
    pooled = average_pool(base.tokens, 2)
    centroids = np.stack([pooled + 0.01, pooled - 0.01])
    weights = np.array([4.0, 3.0])
    got = retrieve_key_features(
        _candidates([base, far]), centroids, weights, replace(CFG, n_ret=2)
    )
    assert got == [0, 0]


def test_ordered_by_descending_cluster_weight():
    rng = np.random.default_rng(7)
    buffer = _frames(rng, 10)
    centroids = np.stack([average_pool(f.tokens, 2) for f in buffer[:4]])
    weights = np.array([2.0, 9.0, 4.0, 7.0])
    got = retrieve_key_features(
        _candidates(buffer), centroids, weights, replace(CFG, n_ret=4, n_tem=4)
    )
    assert got == [1, 3, 2, 0]


def test_warmup_errors():
    rng = np.random.default_rng(8)
    candidates = _candidates(_frames(rng, 3))
    centroids = rng.normal(size=(2, 2, 2, 3))
    weights = np.array([1.0, 1.0])
    with pytest.raises(WarmupError):
        retrieve_key_features(np.zeros((0, 12)), centroids, weights, CFG)
    with pytest.raises(WarmupError):
        retrieve_key_features(candidates, np.zeros((0, 2, 2, 3)), np.zeros(0), CFG)


def test_rejects_mismatched_inputs():
    rng = np.random.default_rng(9)
    candidates = _candidates(_frames(rng, 3))
    centroids = rng.normal(size=(2, 2, 2, 3))
    weights = np.array([1.0, 1.0])
    with pytest.raises(ShapeError, match="candidate rows"):
        retrieve_key_features(candidates[:, :4], centroids, weights, CFG)
    with pytest.raises(ValueError, match="weights length"):
        retrieve_key_features(candidates, centroids, weights[:1], CFG)
    for newest in (-1, 3):
        with pytest.raises(ValueError, match="newest row"):
            retrieve_key_features(candidates, centroids, weights, CFG, newest=newest)
