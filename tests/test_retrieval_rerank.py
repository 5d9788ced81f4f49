"""Retrieval's exact re-rank: picks the expanded distance alone gets wrong,
and the check of the cached row norms at the boundary."""

from unittest.mock import patch

import numpy as np
import pytest

import streammem.retrieval as retrieval_module
from streammem import default_config, retrieve_key_features

CFG = default_config(n_ret=1)  # only n_ret is read for bare (n, m) rows
OFFSET = 1e8  # ‖x‖² ≈ m·1e16, so the expanded form rounds away unit steps


def _expanded(candidates, centroid):
    """The ranking a product without the re-rank would use, formed as retrieval
    forms it."""
    norms = np.einsum("ij,ij->i", candidates, candidates)
    return (norms[:, None] - 2.0 * (candidates @ centroid[None].T))[:, 0]


def _direct(candidates, centroid):
    return np.sum((candidates - centroid) ** 2, axis=1)


def test_rerank_corrects_the_expanded_pick_under_a_large_offset():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        candidates = OFFSET + rng.integers(-4, 5, size=(12, 8)) / 4
        centroid = OFFSET + rng.integers(-4, 5, size=8) / 4
        direct = _direct(candidates, centroid)
        want = int(np.argmin(direct))
        if (direct == direct[want]).sum() == 1 and np.argmin(
            _expanded(candidates, centroid)
        ) != want:
            break
    else:
        pytest.fail("no instance where the expanded argmin is wrong")
    got = retrieve_key_features(candidates, centroid[None], np.ones(1), CFG)
    assert got == [want]


def test_exact_direct_tie_goes_to_the_newer_row_when_expanded_differs():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        centroid = OFFSET + rng.integers(-8, 9, size=8) / 4
        step = rng.integers(1, 9, size=8) / 4
        # a and b mirror each other about the centroid with exact offsets, so
        # their direct distances tie exactly; far is never near.
        a, b, far = centroid + step, centroid - step, centroid + 100.0
        candidates = np.stack([a, b, far])
        assert _direct(candidates, centroid)[0] == _direct(candidates, centroid)[1]
        expanded = _expanded(candidates, centroid)
        if expanded[0] != expanded[1]:
            break
    else:
        pytest.fail("no instance where the expanded form splits the tie")
    # The expanded form prefers one of the pair; make the other the newest
    # frame (row ``newest``; the rows after it, cyclically, are older).
    newer = 1 - int(np.argmin(expanded[:2]))
    got = retrieve_key_features(candidates, centroid[None], np.ones(1), CFG, newest=newer)
    assert got == [newer]


def test_cached_norms_give_the_same_picks():
    rng = np.random.default_rng(3)
    candidates = rng.normal(size=(9, 12))
    centroids = rng.normal(size=(3, 12))
    weights = np.array([2.0, 5.0, 1.0])
    cfg = default_config(n_ret=3)
    norms = np.einsum("ij,ij->i", candidates, candidates)
    for newest in range(9):
        assert retrieve_key_features(
            candidates, centroids, weights, cfg, newest=newest, sq_norms=norms
        ) == retrieve_key_features(candidates, centroids, weights, cfg, newest=newest)


@pytest.mark.parametrize(
    "bad",
    [
        np.ones(8),  # one row short
        np.ones((9, 1)),  # not (n,)
        np.ones(9, dtype=np.float32),  # not the candidates' dtype
        np.ones(9, dtype=np.int64),  # not float
        [1.0] * 9,  # not an array
    ],
)
def test_sq_norms_is_checked_before_any_product(bad):
    rng = np.random.default_rng(4)
    candidates = rng.normal(size=(9, 12))
    with (
        patch.object(retrieval_module, "_nearest_rows", side_effect=AssertionError),
        pytest.raises(ValueError, match="sq_norms"),
    ):
        retrieve_key_features(
            candidates, rng.normal(size=(2, 12)), np.ones(2), CFG, sq_norms=bad
        )
