"""Retrieval's exact re-rank: picks the expanded distance alone gets wrong;
and the ring whose cached row norms retrieval reads, and the slot its
``write`` takes. Fixed rows are written into a
``PooledRing`` whose slot i holds row i."""

from unittest.mock import patch

import numpy as np
import pytest

import streammem.retrieval as retrieval_module
from streammem import default_config
from streammem.retrieval import PooledRing, _nearest_rows, retrieve_key_features

from rings import ring_of

CFG = default_config(n_ret=1)  # retrieval reads only n_ret of it
OFFSET = 1e8  # ‖x‖² ≈ m·1e16, so the expanded form rounds away unit steps


def _expanded(candidates, centroid):
    """The ranking a product without the re-rank would use, formed as retrieval
    forms it from the norms a ring caches."""
    norms = np.array([row @ row for row in candidates])
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
    got = retrieve_key_features(ring_of(candidates), centroid[None], np.ones(1), CFG)
    assert got == [want]


def test_exact_direct_tie_goes_to_the_newer_row_when_expanded_differs():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        centroid = OFFSET + rng.integers(-8, 9, size=8) / 4
        step = rng.integers(1, 9, size=8) / 4
        # a and b mirror each other about the centroid with exact offsets, so
        # their direct distances tie exactly; far is never near.
        a, b, far = centroid + step, centroid - step, centroid + 100.0
        candidates = np.stack([far, a, b])
        assert _direct(candidates, centroid)[1] == _direct(candidates, centroid)[2]
        expanded = _expanded(candidates, centroid)
        if expanded[1] != expanded[2]:
            break
    else:
        pytest.fail("no instance where the expanded form splits the tie")
    # The expanded form prefers one of the pair; put the other in slot 2 and
    # make it the newest frame, so the writes wrap the ring. The slots after
    # the newest, cyclically, are older: slot 0, then the preferred slot 1.
    if expanded[2] < expanded[1]:
        candidates = candidates[[0, 2, 1]]
    ring = ring_of(candidates, newest_slot=2)
    got = retrieve_key_features(ring, centroid[None], np.ones(1), CFG)
    assert got == [2]


def test_cached_norms_give_the_same_picks():
    # A PooledRing caches each row's squared norm as it is written. Its slots
    # must be _nearest_rows's picks over the written rows with their norms
    # computed afresh, while it fills and after it wraps, with and without
    # carried intervals.
    rng = np.random.default_rng(3)
    candidates = rng.normal(size=(9, 12))
    centroids = rng.normal(size=(3, 12))
    weights = np.array([2.0, 5.0, 1.0])
    ranked = centroids[[1, 0, 2]]  # by descending weight
    cfg = default_config(dim=3, p_spa=2, p_tem=2, n_buff=9, n_ret=3)
    for carry in (retrieval_module._CARRY_BYTES, 0):
        ring = PooledRing(cfg)
        with patch.object(retrieval_module, "_CARRY_BYTES", carry):
            for t in range(1, 20):
                slot = ring.write(t, candidates[-t % 9])
                first = 9 - min(t, 9)
                rows = ring._rows[first:]
                norms = np.einsum("ij,ij->i", rows, rows)
                want = _nearest_rows(rows, norms, ranked, slot - first) + first
                got = retrieve_key_features(ring, centroids, weights, cfg)
                assert got == want.tolist(), (carry, t)
        assert ring.full_passes < 19 if carry == 0 else ring.full_passes == 19


def test_ring_write_takes_only_a_held_frame_or_the_next():
    ring = PooledRing(default_config(dim=3, p_spa=2, p_tem=2, n_buff=4))
    for t in range(1, 7):
        assert ring.write(t, np.full(12, float(t))) == -t % 4
    # Frames 3 to 6 are held: rewriting one keeps the newest frame, and
    # frame 7 writes over frame 3's slot.
    assert ring.write(3, np.zeros(12)) == 1 and ring._t == 6
    assert ring.write(7, np.zeros(12)) == 1 and ring._t == 7
