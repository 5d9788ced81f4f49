"""Weighted k-means over feature rows, and the temporal bank update.

The temporal bank summarizes the whole stream as at most n_tem weighted
centroids. Each new frame either extends the bank (while it is filling) or is
merged by re-clustering the previous centroids plus the new point, carrying
the old centroid weights so long-lived clusters stay heavy.

That re-clustering is ``weighted_kmeans``, warm-started from the bank. On
almost every frame its run is one merge: the first assignment keeps each
carried centroid as its own cluster and puts the new row in its nearest one,
and the second assignment moves nothing. ``_merge_step`` computes that result
from one k×k Gram matrix and a few matrix-vector products, in place of the
run's two distance matrices and per-cluster updates. It first certifies the
run, as the assignment bounds of Elkan (ICML 2003) and Hamerly (SDM 2010) do:
a point cannot move while its own centroid is nearer than every rival by
more than the error in the distances. Here that error is the rounding bound
(Higham's gamma_m) of both the certificate's dots and ``_squared_distances``,
``_distance_bound``, which retrieval's nearest-row search uses too.
When the certificate fails, including on any non-finite value,
``temporal_update`` runs ``weighted_kmeans``, so both paths give the same
centroids, weights and assignments bit for bit.
"""

from __future__ import annotations

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
    squared distance after each update step and is non-increasing. On
    ``temporal_update``'s merge path it is computed from that path's own dots,
    so it may differ from weighted_kmeans's within rounding. converged is True
    when assignments repeated before the iteration cap ran out. The three
    arrays are made read-only in place: the engine keeps the centroids and
    weights as its temporal bank.
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


def _distance_bound(m: int, radius, info=np.finfo(np.float64)):
    """Bound on the rounding error of a squared distance between two m-vectors
    whose norms sum to at most ``radius``, computed in the expanded form
    ``‖p‖² − 2·p·q + ‖q‖²`` or directly: Higham's gamma_m for either form,
    times 4 for slack, plus an absolute term for underflow. ``radius`` may be
    an array."""
    return 4 * (m + 4) * (info.eps * radius * radius + info.smallest_subnormal)


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


def _merge_step(centroids: np.ndarray, weights: np.ndarray, row: np.ndarray) -> ClusterState | None:
    """``weighted_kmeans`` of the k carried centroids plus ``row``, when a
    certificate shows that its run merges ``row`` into the nearest centroid
    j and stops; None when the certificate fails.

    The certificate needs each point's own distance in both assignment steps
    to be below each rival's by more than twice the ``_distance_bound`` of
    both. That bound covers these dots and ``_squared_distances`` alike, so
    the run's argmins, ties included, pick the same centroids.

    Re-centring a carried singleton computes ``(0.0 + w·c) / w``. For a
    centroid that is a quotient by its weight, as in every bank
    ``temporal_update`` returns (a raw row has weight 1), that rounds to
    ``c + 0.0``: the row, with any -0.0 made +0.0
    (``test_re_centring_a_quotient_by_its_weight_is_the_identity``).
    """
    centroids, weights, row = (np.asarray(a, dtype=np.float64) for a in (centroids, weights, row))
    k, m = centroids.shape
    if weights.shape != (k,) or not (weights > 0).all():
        return None  # weighted_kmeans names the fault
    gram = centroids @ centroids.T
    row_dots = centroids @ row
    sq = gram.diagonal()
    j = int(np.argmin(sq - 2.0 * row_dots))
    # weighted_kmeans's sum over cluster j's members, centroid j then the row,
    # starts from +0.0, so it turns a -0.0 result into +0.0 as "+ 0.0" does.
    merged = (weights[j] * centroids[j] + row + 0.0) / (weights[j] + 1.0)

    # Rows are the points, columns the k centroids and then the merged row,
    # so row i's own column is i in both steps, except that centroid j and
    # the row (point k) own column j in the first step and k in the second.
    dots = np.empty((k + 1, k + 1))
    dots[:k, :k] = gram
    dots[k, :k] = row_dots
    dots[:k, k] = centroids @ merged
    dots[k, k] = row @ merged
    sq_points = np.concatenate([sq, [row @ row]])
    sq_columns = np.concatenate([sq, [merged @ merged]])
    dist = sq_points[:, None] - 2.0 * dots + sq_columns
    slack = 2.0 * _distance_bound(m, np.sqrt(sq_points)[:, None] + np.sqrt(sq_columns))
    high = dist + slack
    own = high.diagonal().copy()
    own[j] = max(own[j], high[j, k])
    own[k] = max(own[k], high[k, j])
    clear = dist - slack > own[:, None]
    np.fill_diagonal(clear, True)
    clear[j, k] = clear[k, j] = True
    if not (np.isfinite(dist).all() and clear.all()):
        return None

    new_centroids = centroids + 0.0
    new_centroids[j] = merged
    new_weights = weights.copy()
    new_weights[j] = weights[j] + 1.0
    assignments = np.arange(k + 1)
    assignments[k] = j
    # The objective after the update step: each point's second-step distance.
    moved = np.maximum(dist.diagonal(), 0.0)
    moved[j] = max(dist[j, k], 0.0)
    return ClusterState(
        centroids=new_centroids,
        weights=new_weights,
        assignments=assignments,
        objective_history=(float(weights @ moved[:k] + moved[k]),),
        converged=True,
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

    The re-clustering is ``weighted_kmeans``'s result. When ``_merge_step``
    certifies that its run merges the row x into the nearest centroid j and
    then stops, the merge path builds that result directly: row j becomes
    ``(w_j·c_j + x) / (w_j + 1)``, weight j grows by 1, every other row and
    weight is kept, and the state reports one iteration, converged.
    Otherwise ``weighted_kmeans`` runs. On a bank this function returned,
    whose every centroid is a quotient by its weight, both paths agree bit
    for bit.
    """
    k = config.n_tem
    state = None
    if temporal.ndim == 2 and temporal.shape[0] == k and pooled_row.shape == temporal.shape[1:]:
        state = _merge_step(temporal, temporal_weights, pooled_row)
    if state is None:
        points = np.concatenate([temporal, pooled_row[None]], axis=0)
        point_weights = np.concatenate([temporal_weights, [1.0]])
        if points.shape[0] <= k:
            return points, point_weights, None
        state = weighted_kmeans(points, point_weights, k)
    return state.centroids, state.weights, state
