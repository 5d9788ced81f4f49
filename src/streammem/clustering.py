"""Weighted k-means over flattened feature grids, and the temporal bank update.

The temporal bank summarizes the whole stream as at most n_tem weighted
centroids. Each new frame either extends the bank (while it is filling) or is
merged by re-clustering the previous centroids plus the new point, carrying
the old centroid weights so long-lived clusters stay heavy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MemoryConfig

__all__ = ["ClusterState", "weighted_kmeans", "temporal_update"]


@dataclass(frozen=True, eq=False)
class ClusterState:
    """Result of one weighted k-means run.

    centroids keep the trailing shape of the input points; weights[i] is the
    total point weight merged into centroid i. objective_history holds the
    weighted within-cluster squared distance after each update step and is
    non-increasing. converged is True when assignments repeated before
    max_iters ran out.
    """

    centroids: np.ndarray
    weights: np.ndarray
    assignments: np.ndarray
    objective_history: tuple
    converged: bool

    @property
    def iterations(self) -> int:
        """Update steps run: one objective value is recorded per step."""
        return len(self.objective_history)


def _squared_distances(flat_points: np.ndarray, flat_centroids: np.ndarray) -> np.ndarray:
    # (n, k) matrix of squared Euclidean distances, clipped at zero to absorb
    # the tiny negatives the expansion trick can produce.
    sq = (
        np.sum(flat_points**2, axis=1)[:, None]
        - 2.0 * flat_points @ flat_centroids.T
        + np.sum(flat_centroids**2, axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def _repair_empty(assign: np.ndarray, d2: np.ndarray, point_weights: np.ndarray, k: int) -> np.ndarray:
    """Give every empty cluster one point, stolen from a cluster with >= 2 members.

    The stolen point is the one with the largest weighted distance to its
    current centroid (ties to the lowest index), so re-centering it alone can
    only lower the objective. Repairs happen in cluster-index order.
    """
    counts = np.bincount(assign, minlength=k)
    for empty in np.flatnonzero(counts == 0):
        movable = counts[assign] >= 2
        cost = np.where(movable, point_weights * d2[np.arange(len(assign)), assign], -np.inf)
        donor = int(np.argmax(cost))
        counts[assign[donor]] -= 1
        counts[empty] += 1
        assign[donor] = empty
    return assign


def weighted_kmeans(
    points: np.ndarray,
    point_weights: np.ndarray,
    k: int,
    *,
    max_iters: int = 10,
) -> ClusterState:
    """Lloyd iterations with per-point weights and deterministic tie-breaking.

    points: (n, ...) array, n >= k >= 1; trailing axes are flattened for the
    distance computation and restored on the returned centroids. Point weights
    must be positive and are frozen for the whole call.

    The centroids start at points[:k] (callers put the carried bank entries
    first), so identical inputs give bit-equal output. Iteration stops when
    assignments repeat or after max_iters update steps.
    """
    points = np.asarray(points, dtype=np.float64)
    point_weights = np.asarray(point_weights, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if point_weights.shape != (n,):
        raise ValueError(f"point_weights shape {point_weights.shape} != ({n},)")
    if not (point_weights > 0).all():
        raise ValueError("point weights must be positive")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")

    trailing = points.shape[1:]
    flat = points.reshape(n, -1)
    centroids = flat[:k].copy()

    prev_assign = None
    history: list[float] = []
    converged = False
    # Each update step ends by computing the distances to the new centroids
    # for the objective; the next assignment step reuses them.
    d2 = _squared_distances(flat, centroids)
    for _ in range(max_iters):
        assign = np.argmin(d2, axis=1)  # ties break to the lowest index
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            converged = True
            break
        assign = _repair_empty(assign, d2, point_weights, k)
        for c in range(k):
            members = assign == c
            w = point_weights[members]
            centroids[c] = (w[:, None] * flat[members]).sum(axis=0) / w.sum()
        d2 = _squared_distances(flat, centroids)
        history.append(float(np.sum(point_weights * d2[np.arange(n), assign])))
        prev_assign = assign

    weights = np.zeros(k)
    np.add.at(weights, assign, point_weights)
    return ClusterState(
        centroids=centroids.reshape((k,) + trailing),
        weights=weights,
        assignments=assign,
        objective_history=tuple(history),
        converged=converged,
    )


def temporal_update(
    temporal: np.ndarray,
    temporal_weights: np.ndarray,
    pooled_frame: np.ndarray,
    config: MemoryConfig,
) -> tuple[np.ndarray, np.ndarray, ClusterState | None]:
    """Fold one pooled frame (grid p_tem) into the temporal bank.

    While the bank holds fewer than n_tem centroids the frame is appended
    with weight 1 and no clustering runs (returned state is None). Once full,
    the previous centroids plus the new frame are re-clustered back down to
    n_tem, warm-started from the previous centroids; total weight grows by
    exactly 1 per frame.
    """
    points = np.concatenate([temporal, pooled_frame[None]], axis=0)
    point_weights = np.concatenate([temporal_weights, [1.0]])
    if points.shape[0] <= config.n_tem:
        return points, point_weights, None
    state = weighted_kmeans(
        points, point_weights, config.n_tem, max_iters=config.kmeans_max_iters
    )
    return state.centroids, state.weights, state
