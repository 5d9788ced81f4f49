"""Retrieval's carried distance bounds, driven directly through random centroid
moves: after every call each carried interval holds the exact distance, and
the picks equal ``_nearest_rows``'s over the whole buffer. The widening's own
rounding term is checked on its own, since a move computed low shows only
when the interval it widens is tighter than the setting ever makes one. The
rows here are narrow, so each test sets ``_CARRY_BYTES`` to 0 for the
intervals to carry at all."""

import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

import streammem.retrieval as retrieval
from streammem.model import MAX_MAGNITUDE
from streammem.retrieval import DistanceBounds, _movement, _nearest_rows

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


def _assert_holds_exact_distances(bounds: DistanceBounds, ring: np.ndarray) -> None:
    shape, _, centroids, lows, highs = bounds._state
    assert shape == ring.shape
    if lows is None:  # the last call kept no intervals
        return
    for j, c in enumerate(centroids):
        for i, x in enumerate(ring):
            lo, hi = lows[j, i], highs[j, i]
            d2 = _exact_sq(x, c)
            assert lo <= 0 or Fraction(lo) ** 2 <= d2, (j, i, lo, d2)
            assert hi == np.inf or d2 <= Fraction(hi) ** 2, (j, i, hi, d2)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_carried_intervals_hold_exact_distances_and_picks_match(seed):
    # hypothesis refuses the function-scoped monkeypatch fixture.
    with patch.object(retrieval, "_CARRY_BYTES", 0):
        _drive_bounds(np.random.default_rng(seed))


def _drive_bounds(rng) -> None:
    n, m, k = (int(rng.integers(1, hi)) for hi in (11, 13, 6))
    q = int(rng.integers(1, k + 1))
    kinds = rng.choice(ROW_KINDS[:5], int(rng.integers(1, 4))).tolist() + ["centroid", "duplicate"]
    ring = np.zeros((n, m))
    bank = np.stack([_row(rng, rng.choice(kinds[:-2]), m, ring, ring) for _ in range(k)])
    for i in range(n):
        ring[i] = _row(rng, rng.choice(kinds), m, ring, bank)
    weights = np.ones(k)
    bounds = DistanceBounds()
    start = 0
    clusters = rng.choice(k, q, replace=False).tolist()
    for step in range(40):
        if step:
            start = (start - 1) % n
            ring[start] = _row(rng, rng.choice(kinds), m, ring, bank)
            for j in range(k):
                # Mostly as in the engine, where a merge moves one centroid and
                # rewrites the rest at most as c + 0.0.
                move = rng.choice(MOVES) if rng.random() < 0.3 else rng.choice(MOVES[:2])
                bank[j] = _moved(rng, move, bank[j], weights[j], ring, kinds, bank)
            weights[rng.integers(k)] += 1.0
            if rng.random() < 0.3:  # reorder, or let another cluster in
                clusters = rng.choice(k, q, replace=False).tolist()
            if rng.random() < 0.05:
                # A buffer of another shape makes the bounds forget every
                # interval, so the next call reads every row.
                other = np.vstack((ring, ring[:1]))
                norms = np.einsum("ij,ij->i", other, other)
                got = bounds.nearest_rows(other, norms, bank[clusters], clusters, start)
                assert got.tolist() == _nearest_rows(other, norms, bank[clusters], start).tolist()
                _assert_holds_exact_distances(bounds, other)
        sq_norms = np.einsum("ij,ij->i", ring, ring)
        centroids = bank[clusters]
        got = bounds.nearest_rows(ring, sq_norms, centroids, clusters, start)
        want = _nearest_rows(ring, sq_norms, centroids, start)
        assert got.tolist() == want.tolist(), f"picks differ at step {step}"
        _assert_holds_exact_distances(bounds, ring)


def test_bounds_reused_on_a_buffer_of_another_shape_read_every_row(monkeypatch):
    # Intervals kept over (10, 64) rows once met (10, 32) rows with numpy's
    # broadcast error. A buffer of a new shape, width or row count, takes the
    # one product; the next call on it reads every row and keeps the
    # intervals, and the one after carries them.
    monkeypatch.setattr(retrieval, "_CARRY_BYTES", 0)
    rng = np.random.default_rng(3)
    bounds = DistanceBounds()
    for shape in ((10, 64), (10, 32), (9, 32)):
        points, centroids = rng.normal(size=shape), rng.normal(size=(2, shape[1]))
        sq_norms = np.einsum("ij,ij->i", points, points)
        want = _nearest_rows(points, sq_norms, centroids, 4).tolist()
        for reads_all in (True, True, False):
            read, full = bounds.rows_read, bounds.full_passes
            got = bounds.nearest_rows(points, sq_norms, centroids, [2, 0], 4)
            assert got.tolist() == want, shape
            read, full = bounds.rows_read - read, bounds.full_passes - full
            assert (read == len(points)) == reads_all == full, (shape, read)


def test_movement_bounds_the_exact_move_where_its_dot_rounds_low():
    rng = np.random.default_rng(5)
    info = np.finfo(np.float64)
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
        assert exact <= Fraction(_movement(new, old, info)) ** 2, trial
    assert low, "no move rounded low, so nothing here needs the rounding term"
