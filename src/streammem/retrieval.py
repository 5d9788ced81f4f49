"""Key-frame retrieval: pick the buffer frames nearest the heaviest clusters."""

from __future__ import annotations

import numpy as np

from .clustering import _nearest_rows
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
