"""Key-frame retrieval: pick the buffer frames nearest the heaviest clusters."""

from __future__ import annotations

import numpy as np

from .model import MemoryConfig, ShapeError, WarmupError, _is_int_at_least

__all__ = ["retrieve_key_features"]


def retrieve_key_features(
    candidates: np.ndarray,
    temporal: np.ndarray,
    temporal_weights: np.ndarray,
    config: MemoryConfig,
    newest: int = 0,
) -> list[int]:
    """Return the candidate rows nearest the top-weight temporal centroids.

    candidates holds the buffer frames pooled to the centroid grid p_tem, one
    flattened frame per row, shape (n, p_tem**2 * D). Row ``newest`` is the
    newest frame and each following row, cyclically, the next older one, so a
    ring buffer passes its rows as stored.

    Selects the min(n_ret, bank size) heaviest clusters (weight ties go to the
    lower cluster index), finds for each the row minimizing squared Euclidean
    distance to the centroid (distance ties go to the newer frame), and
    returns those row indices ordered by descending cluster weight. The same
    row may serve several clusters.
    """
    k = temporal.shape[0]
    n = candidates.shape[0]
    if n == 0 or k == 0:
        raise WarmupError("retrieval needs a non-empty buffer and temporal bank")
    if temporal_weights.shape[0] != k:
        raise ValueError(
            f"weights length {temporal_weights.shape[0]} != bank size {k}"
        )
    flat_centroids = temporal.reshape(k, -1)
    if candidates.shape[1:] != flat_centroids.shape[1:]:
        raise ShapeError(
            f"candidate rows {candidates.shape[1:]} != flattened centroids "
            f"{flat_centroids.shape[1:]}"
        )
    if not (_is_int_at_least(newest, 0) and newest < n):
        raise ValueError(f"newest row {newest} outside [0, {n})")

    # Stable sort on negated weights: descending weight, ties to lower index.
    order = np.argsort(-temporal_weights, kind="stable")[: min(config.n_ret, k)]
    picks = []
    for c in order:
        d2 = np.sum((candidates - flat_centroids[c]) ** 2, axis=1)
        # argmin keeps the first minimum; in age order that is the newest frame.
        age = int(np.argmin(np.concatenate((d2[newest:], d2[:newest]))))
        picks.append((newest + age) % n)
    return picks
