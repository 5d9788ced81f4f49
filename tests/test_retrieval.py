"""Key-frame retrieval against a brute-force scan, and its tie rules.
Each buffer is written into a ``PooledRing`` whose slot i holds row i."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from streammem import FrameFeature, default_config
from streammem.pooling import average_pool
from streammem.retrieval import retrieve_key_features

from oracles import pool_loops, retrieve_bruteforce
from rings import ring_of

CFG = default_config(p_spa=4, p_tem=2, p_abs=1, n_ret=3, dim=3, n_buff=50)


def _frames(rng, count, grid=4, dim=3):
    return [FrameFeature.from_array(rng.normal(size=(grid, grid, dim))) for _ in range(count)]


def _candidates(buffer):
    """The buffer pooled to p_tem=2, one flattened frame per row, newest first."""
    return np.stack([average_pool(f.tokens, 2).reshape(-1) for f in buffer])


def _ring(buffer):
    """A ring holding ``_candidates(buffer)``, slot i the row of frame i."""
    return ring_of(_candidates(buffer))


def test_top_weight_cluster_selection():
    rng = np.random.default_rng(0)
    buffer = _frames(rng, 4)
    centroids = rng.normal(size=(3, 2, 2, 3))
    weights = np.array([5.0, 1.0, 9.0])
    cfg = replace(CFG, n_ret=2)
    got = retrieve_key_features(_ring(buffer), centroids, weights, cfg)
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
        _ring(buffer), centroids, weights, replace(CFG, n_ret=1)
    )
    assert got == [3]


def test_matches_bruteforce_oracle_20_frames_5_clusters():
    rng = np.random.default_rng(2)
    buffer = _frames(rng, 20)
    centroids = rng.normal(size=(5, 2, 2, 3))
    weights = rng.integers(1, 30, size=5).astype(float)
    got = retrieve_key_features(_ring(buffer), centroids, weights, CFG)
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
    got = retrieve_key_features(_ring(buffer), centroids, weights, cfg)
    assert len(got) == min(n_ret, k)
    assert got == want
    # The same buffer written so that the ring wraps and its newest frame
    # sits in slot r.
    r = int(rng.integers(0, n_frames))
    ring = ring_of(np.roll(_candidates(buffer), r, axis=0), newest_slot=r)
    got = retrieve_key_features(ring, centroids, weights, cfg)
    assert [(i - r) % n_frames for i in got] == want


def test_weight_tie_prefers_lower_cluster_index():
    rng = np.random.default_rng(4)
    buffer = _frames(rng, 5)
    centroids = rng.normal(size=(4, 2, 2, 3))
    weights = np.array([2.0, 7.0, 7.0, 7.0])
    cfg = replace(CFG, n_ret=2, n_tem=4)
    got = retrieve_key_features(_ring(buffer), centroids, weights, cfg)
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
    # newest first: slot 0 beats slot 2
    assert retrieve_key_features(_ring([newer, filler, older]), centroids, weights, CFG) == [0]
    # slots (older, newer, filler), written so the ring wraps and the newest
    # frame sits in slot 1: slot 1 beats slot 0
    ring = ring_of(_candidates([older, newer, filler]), newest_slot=1)
    assert ring._t == 5
    assert retrieve_key_features(ring, centroids, weights, CFG) == [1]


def test_duplicate_retrieval_allowed_across_clusters():
    rng = np.random.default_rng(6)
    base = FrameFeature.from_array(rng.normal(size=(4, 4, 3)))
    far = FrameFeature.from_array(rng.normal(size=(4, 4, 3)) + 100.0)
    pooled = average_pool(base.tokens, 2)
    centroids = np.stack([pooled + 0.01, pooled - 0.01])
    weights = np.array([4.0, 3.0])
    got = retrieve_key_features(
        _ring([base, far]), centroids, weights, replace(CFG, n_ret=2)
    )
    assert got == [0, 0]


def test_ordered_by_descending_cluster_weight():
    rng = np.random.default_rng(7)
    buffer = _frames(rng, 10)
    centroids = np.stack([average_pool(f.tokens, 2) for f in buffer[:4]])
    weights = np.array([2.0, 9.0, 4.0, 7.0])
    got = retrieve_key_features(
        _ring(buffer), centroids, weights, replace(CFG, n_ret=4, n_tem=4)
    )
    assert got == [1, 3, 2, 0]
