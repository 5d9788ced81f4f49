"""Weighted k-means over feature rows, and the temporal bank update.

The temporal bank summarizes the whole stream as at most n_tem weighted
centroids. Each new frame either extends the bank (while it is filling) or is
merged by re-clustering the previous centroids plus the new point, carrying
the old centroid weights so long-lived clusters stay heavy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MemoryConfig, _is_int_at_least

__all__ = ["ClusterState", "weighted_kmeans", "temporal_update"]

_MAX_ITERS = 10  # Lloyd update steps per weighted_kmeans call


@dataclass(frozen=True, eq=False)
class ClusterState:
    """Result of one weighted k-means run.

    centroids are (k, m) rows; weights[i] is the total point weight merged
    into centroid i. objective_history holds the weighted within-cluster
    squared distance after each update step and is non-increasing. converged
    is True when assignments repeated before the iteration cap ran out. The
    three arrays are made read-only in place: the engine keeps the centroids
    and weights as its temporal bank.
    """

    centroids: np.ndarray
    weights: np.ndarray
    assignments: np.ndarray
    objective_history: tuple
    converged: bool

    def __post_init__(self) -> None:
        for arr in (self.centroids, self.weights, self.assignments):
            arr.setflags(write=False)

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


def _nearest_rows(
    points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray, start: int
) -> np.ndarray:
    """Per centroid row, the point row at least direct squared distance.

    The direct distance is ``np.sum((points[i] - c) ** 2)``, and exact ties go
    to the first row in cyclic order from row ``start``. ``sq_norms`` holds
    each point row's squared norm. One product ranks every row by the expanded
    distance ``‖x‖² − 2·x·c`` (``‖c‖²`` is the same for all rows). E bounds
    |expanded − direct| by rounding: Higham's gamma_m for both forms, times 4
    for slack, plus an absolute term for underflow. So the direct minimum is
    among the rows whose score is within 2E of the column minimum. A column
    with one such row is settled; the others are re-ranked by ``_rerank``.
    """
    m = points.shape[1]
    score = sq_norms[:, None] - 2.0 * (points @ centroids.T)
    info = np.finfo(points.dtype if points.dtype.kind == "f" else np.float64)
    # The Frobenius norm of all centroids bounds each one's norm.
    radius = math.sqrt(sq_norms.max()) + math.sqrt(np.vdot(centroids, centroids))
    bound = 4 * (m + 4) * (info.eps * radius * radius + info.smallest_subnormal)
    limit = score.min(axis=0) + 2.0 * bound
    # NaN compares false, so a column with a NaN limit keeps every row, and
    # every column keeps at least its minimum.
    near = ~(score > limit)
    best = score.argmin(axis=0)
    if np.count_nonzero(near) == near.shape[1]:
        return best  # each column's minimum is its only near row
    for j in np.flatnonzero(near.sum(axis=0) != 1):
        # A limit of -inf (the product overflowed) certifies nothing either.
        rows = np.flatnonzero(near[:, j]) if np.isfinite(limit[j]) else np.arange(len(points))
        best[j] = _rerank(points, centroids[j], rows, start)
    return best


def _rerank(points: np.ndarray, centroid: np.ndarray, rows: np.ndarray, start: int) -> int:
    """The row of ``rows`` (ascending) nearest ``centroid`` by the direct
    distance; ties to the first in cyclic order from ``start``."""
    rows = np.roll(rows, -int(np.searchsorted(rows, start)))
    d2 = np.sum((points[rows] - centroid) ** 2, axis=1)
    return int(rows[np.argmin(d2)])  # argmin keeps the first minimum


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


def weighted_kmeans(points: np.ndarray, point_weights: np.ndarray, k: int) -> ClusterState:
    """Lloyd iterations with per-point weights and deterministic tie-breaking.

    points: (n, m) rows, n >= k >= 1. Point weights must be positive and are
    frozen for the whole call.

    The centroids start at points[:k] (callers put the carried bank entries
    first), so identical inputs give bit-equal output. Iteration stops when
    assignments repeat or after _MAX_ITERS update steps.
    """
    points = np.asarray(points, dtype=np.float64)
    point_weights = np.asarray(point_weights, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D (n, m) rows, got shape {points.shape}")
    n = points.shape[0]
    if not (_is_int_at_least(k, 1) and k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if point_weights.shape != (n,):
        raise ValueError(f"point_weights shape {point_weights.shape} != ({n},)")
    if not (point_weights > 0).all():
        raise ValueError("point weights must be positive")

    centroids = points[:k].copy()

    prev_assign = None
    history: list[float] = []
    converged = False
    # Each update step ends by computing the distances to the new centroids
    # for the objective; the next assignment step reuses them.
    d2 = _squared_distances(points, centroids)
    for _ in range(_MAX_ITERS):
        assign = np.argmin(d2, axis=1)  # ties break to the lowest index
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            converged = True
            break
        assign = _repair_empty(assign, d2, point_weights, k)
        for c in range(k):
            members = assign == c
            w = point_weights[members]
            centroids[c] = (w[:, None] * points[members]).sum(axis=0) / w.sum()
        d2 = _squared_distances(points, centroids)
        history.append(float(np.sum(point_weights * d2[np.arange(n), assign])))
        prev_assign = assign

    return ClusterState(
        centroids=centroids,
        weights=np.bincount(assign, weights=point_weights, minlength=k),
        assignments=assign,
        objective_history=tuple(history),
        converged=converged,
    )


def temporal_update(
    temporal: np.ndarray,
    temporal_weights: np.ndarray,
    pooled_row: np.ndarray,
    config: MemoryConfig,
) -> tuple[np.ndarray, np.ndarray, ClusterState | None]:
    """Fold one frame into the temporal bank of (k, p_tem**2 * D) rows.

    ``pooled_row`` is the frame pooled to p_tem and flattened. While the bank
    holds fewer than n_tem centroids the row is appended with weight 1 and no
    clustering runs (returned state is None). Once full, the previous
    centroids plus the new row are re-clustered back down to n_tem,
    warm-started from the previous centroids; total weight grows by exactly 1
    per frame.
    """
    points = np.concatenate([temporal, pooled_row[None]], axis=0)
    point_weights = np.concatenate([temporal_weights, [1.0]])
    if points.shape[0] <= config.n_tem:
        return points, point_weights, None
    state = weighted_kmeans(points, point_weights, config.n_tem)
    return state.centroids, state.weights, state
