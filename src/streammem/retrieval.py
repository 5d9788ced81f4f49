"""Key-frame retrieval: pick the buffer frames nearest the heaviest clusters.

``_nearest_rows`` ranks every buffer row with one matrix product; ``_rerank``
settles by the direct distance each pick that the product's rounding bound
(``clustering._distance_bound``) leaves undecided.
"""

from __future__ import annotations

import math

import numpy as np

from .clustering import _distance_bound
from .model import MemoryConfig, ShapeError, WarmupError, _is_int_at_least

__all__ = ["retrieve_key_features"]


def retrieve_key_features(
    candidates: np.ndarray,
    temporal: np.ndarray,
    temporal_weights: np.ndarray,
    config: MemoryConfig,
    newest: int = 0,
    *,
    sq_norms: np.ndarray | None = None,
) -> list[int]:
    """Return the candidate rows nearest the top-weight temporal centroids.

    candidates holds the buffer frames pooled to the centroid grid p_tem, one
    flattened frame per row, shape (n, p_tem**2 * D). Row ``newest`` is the
    newest frame and each following row, cyclically, the next older one, so a
    ring buffer passes its rows as stored. ``sq_norms``, if given, is each
    row's squared norm as an (n,) array of the candidates' dtype (the engine
    caches it per ring row); otherwise it is computed here. The picks are the
    same either way.

    Selects the min(n_ret, bank size) heaviest clusters (weight ties go to the
    lower cluster index), finds for each the row minimizing the squared
    Euclidean distance ``np.sum((row - centroid) ** 2)`` (exact ties go to the
    newest of the minima), and returns those row indices ordered by
    descending cluster weight. The same row may serve several clusters. One
    matrix product ranks all rows; rows within its rounding bound of the
    minimum are re-ranked by the direct distance, so the picks are exact.
    The three arrays must be numpy arrays: anything else is a ShapeError, or
    for ``temporal_weights`` a ValueError, naming the argument.
    """
    for name, arr in (("candidates", candidates), ("temporal", temporal)):
        if not isinstance(arr, np.ndarray):
            raise ShapeError(f"{name} must be a numpy array, got {type(arr).__name__}")
    if not isinstance(temporal_weights, np.ndarray):
        raise ValueError(
            f"temporal_weights must be a numpy array, got {type(temporal_weights).__name__}"
        )
    k = temporal.shape[0]
    n = candidates.shape[0]
    if n == 0 or k == 0:
        raise WarmupError("retrieval needs a non-empty buffer and temporal bank")
    if temporal_weights.shape != (k,):
        raise ValueError(
            f"weights length must equal the bank size {k}: temporal_weights has "
            f"shape {temporal_weights.shape}, expected ({k},)"
        )
    flat_centroids = temporal.reshape(k, -1)
    if candidates.shape[1:] != flat_centroids.shape[1:]:
        raise ShapeError(
            f"candidate rows {candidates.shape[1:]} != flattened centroids "
            f"{flat_centroids.shape[1:]}"
        )
    if not (_is_int_at_least(newest, 0) and newest < n):
        raise ValueError(f"newest row {newest} outside [0, {n})")
    if sq_norms is None:
        sq_norms = np.einsum("ij,ij->i", candidates, candidates)
    elif not (
        isinstance(sq_norms, np.ndarray)
        and sq_norms.shape == (n,)
        and sq_norms.dtype == candidates.dtype
        and sq_norms.dtype.kind == "f"
    ):
        raise ValueError(
            f"sq_norms must be a ({n},) float array of the candidates' dtype "
            f"{candidates.dtype}, got {getattr(sq_norms, 'shape', None)} "
            f"{getattr(sq_norms, 'dtype', type(sq_norms).__name__)}"
        )

    # Stable sort on negated weights: descending weight, ties to lower index.
    order = np.argsort(-temporal_weights, kind="stable")[: min(config.n_ret, k)]
    # In age order from row ``newest``, the first of exact ties is the newest.
    return _nearest_rows(candidates, sq_norms, flat_centroids[order], newest).tolist()


def _nearest_rows(
    points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray, start: int
) -> np.ndarray:
    """Per centroid row, the point row at least direct squared distance.

    The direct distance is ``np.sum((points[i] - c) ** 2)``, and exact ties go
    to the first row in cyclic order from row ``start``. ``sq_norms`` holds
    each point row's squared norm. One product ranks every row by the expanded
    distance ``‖x‖² − 2·x·c`` (``‖c‖²`` is the same for all rows). E, the
    ``_distance_bound``, bounds |expanded − direct| by rounding. So the direct
    minimum is among the rows whose score is within 2E of the column minimum.
    A column with one such row is settled; the others are re-ranked by
    ``_rerank``.
    """
    score = sq_norms[:, None] - 2.0 * (points @ centroids.T)
    info = np.finfo(points.dtype if points.dtype.kind == "f" else np.float64)
    # The Frobenius norm of all centroids bounds each one's norm.
    radius = math.sqrt(sq_norms.max()) + math.sqrt(np.vdot(centroids, centroids))
    bound = _distance_bound(points.shape[1], radius, info)
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
