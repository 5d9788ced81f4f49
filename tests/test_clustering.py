"""Weighted k-means behavior against exhaustive and algebraic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streammem import default_config, temporal_update, weighted_kmeans

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


def test_input_validation():
    points = np.zeros((3, 2))
    with pytest.raises(ValueError, match="k"):
        weighted_kmeans(points, np.ones(3), k=4)
    with pytest.raises(ValueError, match="k"):
        weighted_kmeans(points, np.ones(3), k=0)
    with pytest.raises(ValueError, match="k"):
        weighted_kmeans(np.zeros((0, 2)), np.ones(0), k=1)
    with pytest.raises(ValueError, match="positive"):
        weighted_kmeans(points, np.array([1.0, 0.0, 1.0]), k=2)
    with pytest.raises(ValueError, match="shape"):
        weighted_kmeans(points, np.ones(4), k=2)
    with pytest.raises(ValueError, match=r"2-D.*\(3, 1, 2\)"):
        weighted_kmeans(points.reshape(3, 1, 2), np.ones(3), k=2)
    with pytest.raises(ValueError, match="2-D"):
        weighted_kmeans(np.zeros(3), np.ones(3), k=2)


def test_temporal_update_appends_until_full():
    cfg = default_config(n_tem=4, p_tem=2, dim=3)
    temporal = np.zeros((0, 12))
    weights = np.zeros(0)
    rng = np.random.default_rng(0)
    for t in range(1, 5):
        frame = rng.normal(size=12)
        temporal, weights, state = temporal_update(temporal, weights, frame, cfg)
        assert state is None  # no clustering while filling
        assert temporal.shape[0] == t
        assert np.array_equal(temporal[-1], frame)
        assert np.array_equal(weights, np.ones(t))


def test_temporal_update_clusters_once_full():
    cfg = default_config(n_tem=4, p_tem=2, dim=3)
    rng = np.random.default_rng(1)
    temporal = np.zeros((0, 12))
    weights = np.zeros(0)
    for t in range(1, 10):
        frame = rng.normal(size=12)
        temporal, weights, state = temporal_update(temporal, weights, frame, cfg)
        assert temporal.shape[0] == min(t, 4)
        assert abs(weights.sum() - t) < 1e-9
        if t > 4:
            assert state is not None
            assert state.converged or state.iterations == 10  # weighted_kmeans's cap


def test_identical_frame_repeated_collapses_values():
    cfg = default_config(n_tem=5, p_tem=2, dim=2)
    frame = np.full(8, 3.25)
    temporal = np.zeros((0, 8))
    weights = np.zeros(0)
    total = cfg.n_tem + 5
    for _ in range(total):
        temporal, weights, _ = temporal_update(temporal, weights, frame, cfg)
    assert temporal.shape[0] == cfg.n_tem
    assert weights.sum() == total
    # every centroid has collapsed onto the single repeated value
    assert np.max(np.abs(temporal - 3.25)) < 1e-12
    assert weights.max() >= 2  # the extra frames merged somewhere
