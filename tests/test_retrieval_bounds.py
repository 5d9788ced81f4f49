"""Retrieval's carried distance bounds, driven directly through a
``PooledRing``'s writes and random centroid moves: after every search each
carried interval holds the exact distance, and the picks equal
``_nearest_rows``'s over the ring's written rows. The widening's own rounding
term is checked on its own, since a move computed low shows only when the
interval it widens is tighter than the setting ever makes one, and so are its
outward roundings, on a far row carried across 200 searches. The rows here
are narrow but one test's, so the others set ``_CARRY_BYTES`` to 0 for the
intervals to carry at all."""

import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import streammem.retrieval as retrieval
from streammem import default_config
from streammem.model import MAX_MAGNITUDE
from streammem.retrieval import PooledRing, _movement, _nearest_rows, retrieve_key_features

TINY = 2.0**-1074
ROW_KINDS = ("normal", "pow2", "offset", "extreme", "subnormal", "centroid", "duplicate")
MOVES = ("none", "plus_zero", "tiny", "merge", "jump", "away", "new")


def _row(rng, kind: str, m: int, ring: np.ndarray, bank: np.ndarray) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=m)
    if kind == "pow2":
        # Powers of two and their sums tie exactly, so the re-rank runs.
        return rng.choice([-1.0, 1.0], m) * 2.0 ** rng.integers(-2, 3, m)
    if kind == "offset":
        # ‖x‖² ≈ m·1e16, so the expanded form rounds away unit steps.
        return 1e8 + rng.integers(-4, 5, m) / 4
    if kind == "extreme":
        return MAX_MAGNITUDE * rng.choice([-1.0, 1.0], m)
    if kind == "subnormal":
        return rng.choice([0.0, -0.0, TINY, -TINY, 3 * TINY, -3 * TINY], m)
    if kind == "centroid":
        return bank[rng.integers(len(bank))].copy()
    assert kind == "duplicate"
    return ring[rng.integers(len(ring))].copy()


def _moved(rng, move: str, c: np.ndarray, weight: float, ring: np.ndarray, kinds, bank):
    if move == "none":
        return c
    if move == "plus_zero":
        return c + 0.0  # only a zero's sign can change
    if move == "tiny":
        c = c.copy()
        c[rng.integers(len(c))] += rng.choice([-TINY, TINY])
        return c
    if move == "merge":
        # The temporal bank's merge of a buffer row into its centroid.
        return (weight * c + ring[rng.integers(len(ring))] + 0.0) / (weight + 1.0)
    if move == "jump":
        return c + rng.normal(size=len(c)) * 2.0 ** rng.integers(10, 40)
    if move == "away":
        # Straight away from a row, so its distance grows by all of the move.
        return c + 2.0 ** rng.integers(10, 40) * (c - ring[rng.integers(len(ring))])
    assert move == "new"
    return _row(rng, rng.choice(kinds), len(c), ring, bank)


def _exact_sq(a: np.ndarray, b: np.ndarray) -> Fraction:
    return sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a.tolist(), b.tolist()))


def _ring(n: int, m: int) -> PooledRing:
    """A ring of n slots of m-wide rows."""
    return PooledRing(default_config(dim=m, p_spa=1, p_tem=1, n_buff=n))


def _full_pass(ring: PooledRing, centroids: np.ndarray) -> list:
    """``_nearest_rows``'s slots over the ring's written rows."""
    n = len(ring._rows)
    first = n - min(ring._t, n)
    rows = ring._rows[first:]
    norms = np.einsum("ij,ij->i", rows, rows)
    return (_nearest_rows(rows, norms, centroids, -ring._t % n - first) + first).tolist()


def _assert_holds_exact_distances(ring: PooledRing) -> None:
    if ring._centroids is None:  # the ring keeps no intervals yet
        return
    n = len(ring._rows)
    for j, c in enumerate(ring._centroids):
        for i in range(n - min(ring._t, n), n):
            lo, hi = ring._lo[j, i], ring._hi[j, i]
            d2 = _exact_sq(ring._rows[i], c)
            assert lo <= 0 or Fraction(lo) ** 2 <= d2, (j, i, lo, d2)
            assert hi == np.inf or d2 <= Fraction(hi) ** 2, (j, i, hi, d2)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_carried_intervals_hold_exact_distances_and_picks_match(seed):
    # hypothesis refuses the function-scoped monkeypatch fixture.
    with patch.object(retrieval, "_CARRY_BYTES", 0):
        _drive_ring(np.random.default_rng(seed))


def _drive_ring(rng) -> None:
    n, m, k = (int(rng.integers(1, hi)) for hi in (11, 13, 6))
    q = int(rng.integers(1, k + 1))
    kinds = rng.choice(ROW_KINDS[:5], int(rng.integers(1, 4))).tolist() + ["centroid", "duplicate"]
    ring = _ring(n, m)

    def written():
        return ring._rows[n - min(ring._t, n) :]

    bank = np.stack([_row(rng, rng.choice(kinds[:-2]), m, None, None) for _ in range(k)])
    weights = np.ones(k)
    clusters = rng.choice(k, q, replace=False).tolist()
    for step in range(40):
        # Any number of writes between two searches, each of the next frame
        # or, now and then, of a frame the ring holds.
        for _ in range(int(rng.integers(0 if step else 1, 4))):
            t = ring._t + 1
            if ring._t and rng.random() < 0.2:
                t = int(rng.integers(max(1, ring._t - n + 1), ring._t + 1))
            ring.write(t, _row(rng, rng.choice(kinds), m, written() if ring._t else bank, bank))
        if step:
            for j in range(k):
                # Mostly as in the engine, where a merge moves one centroid and
                # rewrites the rest at most as c + 0.0.
                move = rng.choice(MOVES) if rng.random() < 0.3 else rng.choice(MOVES[:2])
                bank[j] = _moved(rng, move, bank[j], weights[j], written(), kinds, bank)
            weights[rng.integers(k)] += 1.0
            if rng.random() < 0.3:  # reorder, or let another cluster in
                clusters = rng.choice(k, q, replace=False).tolist()
        centroids = bank[clusters]
        got = ring._nearest(centroids, clusters).tolist()
        assert got == _full_pass(ring, centroids), f"picks differ at step {step}"
        _assert_holds_exact_distances(ring)


def test_a_row_rewritten_between_searches_is_searched_again():
    # With the carried intervals of the engine's width rule (dim 128 and
    # p_tem=4 make 16 KB rows), a row set to the centroid once stayed ruled
    # out by its stale interval: row 8 was picked, not row 9.
    config = default_config(dim=128, p_spa=4, p_tem=4, n_buff=10, n_ret=1)
    rng = np.random.default_rng(0)
    width = config.p_tem**2 * config.dim
    ring, centroid = PooledRing(config), rng.normal(size=(1, width)) + 5
    assert width * 8 >= retrieval._CARRY_BYTES
    for t in range(1, 11):
        ring.write(t, rng.normal(size=width) + 5)
    for _ in range(2):
        got = retrieve_key_features(ring, centroid, np.ones(1), config)
        assert got == _full_pass(ring, centroid)
    assert ring.write(1, centroid[0]) == 9  # the oldest frame
    got = retrieve_key_features(ring, centroid, np.ones(1), config)
    assert got == _full_pass(ring, centroid) == [9]
    # Several writes between two searches: the next frame evicts that one,
    # and the new oldest frame becomes the centroid.
    ring.write(11, rng.normal(size=width) + 5)
    ring.write(2, centroid[0] + 0.0)
    got = retrieve_key_features(ring, centroid, np.ones(1), config)
    assert got == _full_pass(ring, centroid) == [8]
    assert ring.full_passes == 2, "a search after the first two read every row"


def test_a_filling_ring_reads_every_row_on_two_searches_then_carries(monkeypatch):
    # The first search takes the one product and keeps no intervals, the
    # second reads every written row and keeps them, and later searches carry
    # them while the ring fills and after it wraps.
    monkeypatch.setattr(retrieval, "_CARRY_BYTES", 0)
    rng = np.random.default_rng(3)
    ring, centroids = _ring(10, 32), rng.normal(size=(2, 32))
    counts = []
    for t in range(1, 25):
        ring.write(t, rng.normal(size=32))
        read, full = ring.rows_read, ring.full_passes
        assert ring._nearest(centroids, [2, 0]).tolist() == _full_pass(ring, centroids), t
        counts.append((ring.rows_read - read, ring.full_passes - full))
    assert counts[:2] == [(1, 1), (2, 1)]
    assert all(full == (read == min(t, 10)) for t, (read, full) in enumerate(counts, start=1))
    assert any(read < t for t, (read, _) in enumerate(counts[2:10], start=3)), counts
    assert any(read < 10 for read, _ in counts[10:]), counts


def test_movement_bounds_the_exact_move_where_its_dot_rounds_low():
    rng = np.random.default_rng(5)
    low = 0
    for trial in range(3000):
        if trial % 10:
            old = rng.normal(size=8)
            new = old + rng.normal(size=8) * 2.0 ** int(rng.integers(-40, 40))
        else:
            # Moves of +-2**-1074 square to 0.0, so the dot rounds to no move.
            old = rng.choice([0.0, -0.0, TINY, -TINY], 8)
            new = old + rng.choice([-TINY, 0.0, TINY], 8)
        exact = _exact_sq(new, old)
        diff = new - old
        unguarded = math.nextafter(math.sqrt(float(diff @ diff)), math.inf)
        low += Fraction(unguarded) ** 2 < exact
        assert exact <= Fraction(_movement(new, old)) ** 2, trial
    assert low, "no move rounded low, so nothing here needs the rounding term"


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["toward", "away"])
def test_a_far_row_carried_across_many_searches_keeps_its_exact_distance(monkeypatch, direction):
    # After the plain first search, the far row's interval is set on the
    # second and then carried, never read again, while the centroid creeps
    # toward it or away from it by 0.45 ulp(1.0) per search. From -1/16 the
    # distance lies in [1, 2), where the interval's ends are ulp(1.0) apart,
    # so each move is under half a step: rounded to nearest, ``lo - move``
    # (toward) or ``hi + move`` (away) would round back every time, and the
    # exact distance would leave the interval within a few dozen searches.
    # Only the widening's outward roundings keep it inside.
    monkeypatch.setattr(retrieval, "_CARRY_BYTES", 0)
    ring = _ring(2, 1)
    ring.write(1, np.array([1.0]))  # slot 1, the far row
    ring.write(2, np.array([0.001]))  # slot 0, the nearest row
    centroid, step = np.array([[-0.0625]]), direction * 0.45 * math.ulp(1.0)
    assert ring._nearest(centroid.copy(), [0]).tolist() == [0]
    for search in range(200):
        centroid = centroid + step
        assert ring._nearest(centroid.copy(), [0]).tolist() == [0]
        lo, hi = ring._lo[0, 1], ring._hi[0, 1]
        d2 = _exact_sq(ring._rows[1], centroid[0])
        assert Fraction(lo) ** 2 <= d2 <= Fraction(hi) ** 2, search
    assert ring.rows_read == 2 + 2 + 199, "the far row was read after the second search"
