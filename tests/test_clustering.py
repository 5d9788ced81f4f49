"""Weighted k-means behavior against exhaustive and algebraic oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import streammem.clustering as clustering
from streammem import default_config
from streammem.clustering import TemporalBank, temporal_update, weighted_kmeans
from streammem.model import MAX_MAGNITUDE

from oracles import exhaustive_best_objective, partition_objective


def test_n_equals_k_distinct_points_pass_through():
    points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    weights = np.array([2.0, 3.0, 4.0])
    state = weighted_kmeans(points, weights, k=3)
    assert np.array_equal(state.centroids, points)
    assert np.array_equal(state.weights, weights)
    assert list(state.assignments) == [0, 1, 2]
    assert state.converged


def test_identical_points_merge_to_one_cluster():
    points = np.array([[1.5, -2.0], [1.5, -2.0]])
    state = weighted_kmeans(points, np.array([2.0, 1.0]), k=1)
    assert np.array_equal(state.centroids[0], points[0])
    assert state.weights[0] == 3.0


def test_toy_instances_against_exhaustive_oracle():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 3) + 1))
        points = rng.normal(size=(n, 2))
        weights = np.ones(n)
        state = weighted_kmeans(points, weights, k=k)
        final = partition_objective(points, weights, state.assignments, k)
        # centroids are exactly the weighted means of their members
        for c in range(k):
            members = state.assignments == c
            expect = np.average(points[members], axis=0, weights=weights[members])
            assert np.max(np.abs(state.centroids[c] - expect)) < 1e-9
        # Lloyd's result is a local optimum: no enumerated assignment that it
        # itself settled on can beat it, and the global optimum bounds it below
        best = exhaustive_best_objective(points, weights, k)
        assert final >= best - 1e-12
        if state.objective_history:
            assert abs(state.objective_history[-1] - final) < 1e-9
        history = np.array(state.objective_history)
        assert np.all(np.diff(history) <= 1e-9 * np.maximum(history[:-1], 1.0))


def test_bit_exact_determinism():
    rng = np.random.default_rng(123)
    points = rng.normal(size=(10, 12))
    weights = rng.integers(1, 5, size=10).astype(float)
    a = weighted_kmeans(points, weights, k=4)
    b = weighted_kmeans(points, weights, k=4)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert np.array_equal(a.assignments, b.assignments)
    assert a.objective_history == b.objective_history


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_weight_conservation_exact_for_integer_weights(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    k = int(rng.integers(1, n + 1))
    points = rng.normal(size=(n, 3))
    weights = rng.integers(1, 1000, size=n).astype(float)
    state = weighted_kmeans(points, weights, k=k)
    assert state.weights.sum() == weights.sum()  # integer-valued: exact
    assert (state.weights > 0).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_weight_conservation_close_for_real_weights(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    k = int(rng.integers(1, n + 1))
    points = rng.normal(size=(n, 2))
    weights = rng.uniform(0.1, 10.0, size=n)
    state = weighted_kmeans(points, weights, k=k)
    assert abs(state.weights.sum() - weights.sum()) < 1e-9 * weights.sum()


def test_equidistant_point_assigned_to_lower_index():
    # warm-start centroids 0.0 and 2.0; the third point sits exactly between
    points = np.array([[0.0], [2.0], [1.0]])
    state = weighted_kmeans(points, np.ones(3), k=2)
    assert state.assignments[2] == 0


def test_empty_cluster_repair_keeps_k_clusters():
    # duplicates force a collision on warm-start centroids
    points = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [4.0, 4.0]])
    state = weighted_kmeans(points, np.ones(4), k=3)
    assert state.centroids.shape[0] == 3
    assert (state.weights > 0).all()
    assert state.weights.sum() == 4.0
    assert sorted(np.unique(state.assignments)) == [0, 1, 2]


def test_objective_history_non_increasing_on_larger_runs():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(26, 96))
        weights = rng.integers(1, 40, size=26).astype(float)
        state = weighted_kmeans(points, weights, k=25)
        history = np.array(state.objective_history)
        assert len(history) >= 1
        assert np.all(np.diff(history) <= 1e-9 * np.maximum(history[:-1], 1.0))


def test_cluster_state_takes_its_centroids_one_way():
    fields = dict(weights=np.ones(1), assignments=np.zeros(1, dtype=np.intp),
                  objective_history=(), converged=True)
    state = clustering.ClusterState(**fields, blocks=(np.zeros((1, 2)),))
    assert state.centroids.shape == (1, 2) and not state.centroids.flags.writeable


def test_cluster_state_centroids_view_one_block_and_join_several_anew():
    fields = dict(weights=np.ones(2), assignments=np.arange(2), objective_history=(),
                  converged=True)
    block = np.arange(8.0).reshape(2, 4).copy()  # reshape is a view
    one = clustering.ClusterState(**fields, blocks=(block,))
    # The one block itself, through a (k, m) reshape that copies nothing.
    assert one.centroids.base is block and one.centroids.shape == (2, 4)
    # One (2, 2) block per row, as the merge path gives a wide bank.
    rows = [np.arange(4.0).reshape(2, 2) + 4 * i for i in range(2)]
    state = clustering.ClusterState(**fields, blocks=rows)
    first, second = state.centroids, state.centroids
    assert first.shape == (2, 4) and not first.flags.writeable
    assert first.tobytes() == np.concatenate(rows).tobytes() == second.tobytes()
    assert first is not second and "centroids" not in vars(state)  # never kept
    assert not any(np.shares_memory(first, row) for row in rows)


def test_temporal_update_appends_until_full():
    cfg = default_config(n_tem=4, p_tem=2, dim=3)
    bank = TemporalBank(cfg)
    rng = np.random.default_rng(0)
    for t in range(1, 5):
        frame = rng.normal(size=12)
        fold = temporal_update(bank, frame)
        bank.apply(fold)
        assert fold.state is None  # no clustering while filling
        assert bank.centroids.shape[0] == t
        assert np.array_equal(bank.centroids[-1], frame)
        assert np.array_equal(bank.weights, np.ones(t))


def test_temporal_update_clusters_once_full():
    cfg = default_config(n_tem=4, p_tem=2, dim=3)
    rng = np.random.default_rng(1)
    bank = TemporalBank(cfg)
    for t in range(1, 10):
        frame = rng.normal(size=12)
        fold = temporal_update(bank, frame)
        bank.apply(fold)
        state = fold.state
        assert bank.centroids.shape[0] == min(t, 4)
        assert abs(bank.weights.sum() - t) < 1e-9
        if t > 4:
            assert state is not None
            assert state.converged or state.iterations == 10  # weighted_kmeans's cap


def test_identical_frame_repeated_collapses_values():
    cfg = default_config(n_tem=5, p_tem=2, dim=2)
    frame = np.full(8, 3.25)
    bank = TemporalBank(cfg)
    total = cfg.n_tem + 5
    for _ in range(total):
        bank.apply(temporal_update(bank, frame))
    assert bank.centroids.shape[0] == cfg.n_tem
    assert bank.weights.sum() == total
    # every centroid has collapsed onto the single repeated value
    assert np.max(np.abs(bank.centroids - 3.25)) < 1e-12
    assert bank.weights.max() >= 2  # the extra frames merged somewhere


# -- temporal_update's merge path against weighted_kmeans, its fallback -------


def _assert_same_state(got, want):
    for name in ("centroids", "weights", "assignments"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def _bank(rows, k) -> TemporalBank:
    """An empty bank of k centroid rows as wide as ``rows``."""
    config = default_config(dim=rows.shape[-1], p_spa=1, p_tem=1, p_abs=1, n_tem=k, n_ret=1)
    return TemporalBank(config)


def _full_bank(temporal, weights) -> TemporalBank:
    """A bank holding the (k, m) ``temporal`` rows and their weights."""
    bank = _bank(temporal, len(temporal))
    bank.apply(bank.replacement(temporal, weights))
    return bank


def _fold(bank, row):
    """Fold one frame into a full ``bank``. Check temporal_update's state,
    and the bank it writes, against weighted_kmeans on the same points;
    return both states and whether the merge path gave the former."""
    points = np.vstack([bank.centroids, row])
    want = weighted_kmeans(points, np.append(bank.weights, 1.0), len(bank.weights))
    merged = clustering._merge_step(bank.centroids, bank.weights, bank.gram, row) is not None
    fold = temporal_update(bank, row)
    bank.apply(fold)
    _assert_same_state(fold.state, want)
    assert bank.centroids.tobytes() == want.centroids.tobytes()
    assert bank.weights.tobytes() == want.weights.tobytes()
    return fold.state, want, merged


def _fold_stream(rows, k) -> tuple[int, int]:
    """Fold rows into an empty bank one at a time, checking every clustered
    frame against weighted_kmeans; return the (merge, fallback) frame counts."""
    bank = _bank(rows, k)
    counts = [0, 0]
    for row in rows:
        if len(bank.weights) == k:
            counts[not _fold(bank, row)[2]] += 1
        else:
            bank.apply(temporal_update(bank, row))
    return counts[0], counts[1]


def test_merge_path_reports_one_converged_step_and_the_oracles_objective():
    rng = np.random.default_rng(5)
    temporal = rng.normal(size=(4, 12))
    # Each carried centroid is a quotient by its weight, as in the engine.
    weights = np.array([1.0, 3.0, 7.0, 2.0])
    temporal = (temporal * weights[:, None]) / weights[:, None]
    row = temporal[2] + 0.1 * rng.normal(size=12)
    got, want, merged = _fold(_full_bank(temporal, weights), row)
    assert merged
    assert got.iterations == want.iterations == 1
    assert got.converged is True and want.converged
    assert list(got.assignments) == [0, 1, 2, 3, 2]
    # Both objectives add each carried centroid's distance to itself, which is
    # rounding noise of the expanded form; the merge reads it from its own
    # dots, so the two agree to rounding, not bit for bit.
    assert math.isclose(got.objective_history[0], want.objective_history[0], rel_tol=1e-9)


def test_merge_path_falls_back_on_duplicate_carried_centroids(monkeypatch):
    repairs = []
    repair = clustering._repair_empty

    def counting_repair(assign, d2, point_weights, k):
        before = assign.copy()
        out = repair(assign, d2, point_weights, k)
        repairs.append(int(np.count_nonzero(out != before)))
        return out

    monkeypatch.setattr(clustering, "_repair_empty", counting_repair)
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(2, 12))
    temporal = np.array([a, a, b])
    _, _, merged = _fold(_full_bank(temporal, np.ones(3)), b + 0.5)
    assert not merged
    assert repairs[0] == 1  # the duplicate's empty cluster took a point


def test_merge_path_falls_back_at_an_exact_midpoint():
    # Power-of-two coordinates make the midpoint and both distances exact,
    # so the row ties between centroids 0 and 1.
    rng = np.random.default_rng(7)
    c0 = rng.choice([-1.0, 1.0], 12) * 2.0 ** rng.integers(-3, 3, 12)
    c1 = c0.copy()
    c1[:4] += 2.0 ** rng.integers(-2, 2, 4)
    temporal = np.array([c0, c1, np.full(12, 64.0)])
    _, want, merged = _fold(_full_bank(temporal, np.ones(3)), (c0 + c1) / 2)
    assert not merged
    assert want.assignments[3] == 0  # the tie goes to the lower index


def test_merge_path_takes_a_row_equal_to_a_carried_centroid():
    rng = np.random.default_rng(8)
    weights = np.array([2.0, 5.0, 1.0, 9.0])
    temporal = rng.normal(size=(4, 12)) / weights[:, None]
    _, want, merged = _fold(_full_bank(temporal, weights), temporal[1].copy())
    assert merged
    assert want.weights[1] == 6.0


def test_merge_path_falls_back_when_the_second_step_moves_a_point():
    # Along one direction: centroids at 0, 1.2 and 10, the row at 5.5. The
    # row merges into the centroid at 1.2, which moves to 3.35, so the point
    # at 1.2 is then nearer the centroid at 0.
    direction = np.random.default_rng(9).normal(size=12)
    temporal = np.outer([0.0, 1.2, 10.0], direction)
    _, want, merged = _fold(_full_bank(temporal, np.ones(3)), 5.5 * direction)
    assert not merged
    assert want.iterations >= 2
    assert want.assignments[1] == 0


def test_merge_path_matches_at_max_magnitude():
    # Squares of MAX_MAGNITUDE (float32's largest value) are about 1e77, far
    # inside float64's range, so no dot overflows and the certificate decides
    # as at any other scale.
    rng = np.random.default_rng(10)
    patterns = MAX_MAGNITUDE * rng.choice([-1.0, 1.0], (6, 12))
    rows = patterns[rng.integers(0, 6, 40)]
    merges, fallbacks = _fold_stream(rows, 4)
    assert merges and fallbacks  # repeats of a pattern tie exactly


def test_merge_path_falls_back_when_squares_overflow():
    # Rows beyond MAX_MAGNITUDE whose squares overflow: the certificate
    # refuses every frame after the bank fills.
    rng = np.random.default_rng(11)
    rows = 2.0**600 * rng.choice([-1.0, 1.0], (20, 12))
    bank = _bank(rows, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows[:4]:
            bank.apply(temporal_update(bank, row))
        for row in rows[4:]:
            assert clustering._merge_step(bank.centroids, bank.weights, bank.gram, row) is None


def test_merge_path_matches_with_subnormal_products():
    # At 2**-530 every product is subnormal and keeps only a few bits; the
    # bound's absolute term covers what they lose.
    rng = np.random.default_rng(12)
    anchors = rng.normal(size=(3, 12))
    rows = 2.0**-530 * (anchors[rng.integers(0, 3, 40)] + 0.05 * rng.normal(size=(40, 12)))
    merges, fallbacks = _fold_stream(rows, 4)
    assert merges


def test_merge_path_turns_negative_zeros_positive_as_kmeans_does():
    # weighted_kmeans's sums start from +0.0, so a -0.0 in a carried row or in
    # the merged row comes out +0.0.
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(30, 12))
    rows[:, :3] = -0.0
    merges, _ = _fold_stream(rows, 4)
    assert merges


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    m=st.integers(1, 24),
    scenes=st.integers(1, 4),
    noise=st.sampled_from([0.0, 1e-9, 0.05]),
)
def test_temporal_update_matches_weighted_kmeans_on_folded_streams(seed, k, m, scenes, noise):
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(scenes, m))
    rows = anchors[rng.integers(0, scenes, 30)] + noise * rng.normal(size=(30, m))
    _fold_stream(rows, k)


@pytest.mark.parametrize("m", [16, 4096])
def test_temporal_update_matches_weighted_kmeans_across_the_certificate_margin(m):
    # Two near-equal centroids, and rows near the midpoint of two centroids,
    # at gaps from below the rounding bound to far above it: the certificate
    # must hand every case it cannot settle to weighted_kmeans.
    rng = np.random.default_rng(m)
    paths = set()
    for exponent in range(-56, -4, 2):
        weights = rng.integers(1, 50, 4).astype(float)
        temporal = (rng.normal(size=(4, m)) * weights[:, None]) / weights[:, None]
        gap = 2.0**exponent * rng.normal(size=m)
        near = temporal.copy()
        near[1] = ((near[0] + gap) * weights[1]) / weights[1]
        for bank, row in (
            (near, rng.normal(size=m)),
            (temporal, (temporal[0] + temporal[1]) / 2 + gap),
        ):
            paths.add(_fold(_full_bank(bank, weights), row)[2])
    assert paths == {True, False}
