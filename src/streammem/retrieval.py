"""Key-frame retrieval: pick the buffer frames nearest the heaviest clusters.

Retrieval searches the buffer it owns, a ``PooledRing``. On narrow rows each
search is ``_nearest_rows``: one matrix product ranks every written row, and
``_settle`` settles each pick, by the direct distance (``_rerank``) where the
product's rounding margin (``clustering._distance_bound``) leaves it undecided.

On wide rows a search reads fewer rows. The ring carries, for each queried
cluster index and each ring slot, an interval ``[lo, hi]`` that holds the
exact distance ``d = ‖x − c‖`` between the slot's row x and the cluster's
centroid c, as real numbers from their float values. Each search reads only
the rows that the intervals cannot rule out, in contiguous runs of rows, and
settles each pick among them as ``_nearest_rows`` does. The picks are the same
bit for bit. With E the search's ``_distance_bound`` (its radius r covers
every written row and queried centroid) and T the rounding of one squared
distance, in the expanded form ``S`` or directly as ``D = np.sum((x − c)**2)``,
each step cites the inequality that ``_distance_bound`` proves:

- Setting. A row that is read gets ``[√max(S − E, 0), √(S + E)]``: E ≥ T
  plus two roundings. A row whose S is not finite gets ``[0, ∞]``.
- Widening. When the centroid moves from c to c', the triangle inequality
  gives |d' − d| ≤ μ = ‖c' − c‖. ``_movement`` bounds μ by
  ``√(m2 + _distance_bound(m, √m2))``, where m2 is μ² computed directly, so
  its T is relative to m2: E ≥ T plus two roundings. ``lo − μ`` and
  ``hi + μ`` are each rounded one step outward (``np.nextafter``): an
  interval carried across any number of searches would otherwise add up
  their rounding past any fixed margin. A row written since the last
  search, and every row of a cluster not queried on it, gets ``[0, ∞]``.
- Reading. Let U be a column's least upper end, the ``hi`` of some row k. A
  row i is left unread only when ``lo_i > √(U² + E)`` as computed, so
  ``lo_i² > U² + 2T`` (E ≥ 2T plus three roundings of values below r², as
  ``lo_i ≤ d_i ≤ r``) and ``D_i ≥ d_i² − T ≥ lo_i² − T > U² + T ≥ d_k² + T
  ≥ D_k``. The column's direct minimum and all its exact ties are read, so
  the tie rule (the newest of them) picks the same row.

Every comparison is written so that NaN reads the row. The engine's inputs
are bounded by ``MAX_MAGNITUDE``, so its products are finite.
"""

from __future__ import annotations

import math

import numpy as np

from .clustering import _distance_bound
from .model import MemoryConfig

# A PooledRing carries its intervals when a buffer row is at least this many
# bytes (a pooled row is p_tem**2 * D float64 values), and below it takes the
# one full product and keeps none. The carried path costs about 0.1 ms more
# Python per call, which pays once a row is more than about 8 KB. Per call,
# carried against full, on the engine's own state over frames 320-800 (dims
# 16 and 64: 320-1100, interleaved) of a FrameSource stream (seed 1, p_tem=4,
# 2-vCPU VM, median ms), BLAS threads unset / OPENBLAS_NUM_THREADS=1:
#   dim 16 (2 KB rows):    0.18 vs 0.06  /  0.18 vs 0.06
#   dim 64 (8 KB):         0.22 vs 0.21  /  0.22 vs 0.22
#   dim 128 (16 KB):       0.38 vs 0.52  /  0.34 vs 0.79
#   dim 256 (32 KB):       0.49 vs 0.91  /  0.42 vs 1.22
#   dim 512 (64 KB):       0.74 vs 1.77  /  0.88 vs 2.44
#   dim 1024 (128 KB):     1.38 vs 3.51  /  1.72 vs 6.56
# So the temporal bank's 64 KB _SHARE_BYTES would leave dims 128 and 256 on
# the slower path, and dim 16, where carrying costs 2.9x, needs the rule.
_CARRY_BYTES = 1 << 14

# A gap of unread rows between two runs is read with them when its bytes are
# at most this many. A run's product has a fixed cost of about 20 us, about
# what reading two 128 KB rows takes. At dim 1024 (FrameSource seed 1, frames
# 320-800) merging gaps of up to 256 KB took runs per frame from 4.6 to 3.0
# (p95 12 to 4), rows read from 90.4 to 91.9, and retrieval, timed
# interleaved on the same state, from 1.33 to 1.28 ms.
_GAP_BYTES = 1 << 18


def retrieve_key_features(
    ring: PooledRing,
    temporal: np.ndarray,
    temporal_weights: np.ndarray,
    config: MemoryConfig,
) -> list[int]:
    """Return the slots of ``ring``'s rows nearest the top-weight temporal centroids.

    Selects the min(n_ret, bank size) heaviest clusters (weight ties go to the
    lower cluster index), finds for each the written row minimizing the
    squared Euclidean distance ``np.sum((row - centroid) ** 2)`` (exact ties
    go to the newest of the minima), and returns those slots ordered by
    descending cluster weight. The same row may serve several clusters. A
    matrix product ranks the rows the ring's carried intervals do not rule
    out; rows within its rounding margin of the minimum are re-ranked by the
    direct distance, so the picks are exact. The ring holds at least one row,
    and the bank at least one float centroid of the ring's row width once
    flattened, with a float weight each.
    """
    k = len(temporal)
    flat_centroids = temporal.reshape(k, -1)
    # Stable sort on negated weights: descending weight, ties to lower index.
    order = np.argsort(-temporal_weights, kind="stable")[: min(config.n_ret, k)]
    # The centroids are a copy, which the bank's later writes cannot reach.
    return ring._nearest(flat_centroids[order], order.tolist()).tolist()


class PooledRing:
    """The buffer that retrieval searches: each buffered frame pooled to p_tem
    and flattened, one float64 row per slot, with the row's squared norm and
    the carried intervals on its distance to each queried centroid (module
    docstring). Frame t goes in slot ``-t % n_buff``, so the written rows are
    the tail ``[n_buff - t:]`` until the ring is full, and from the newest
    frame's slot on, cyclically, each next slot holds the next older frame.

    The one rule that keeps the intervals sound: a row changes only through
    ``write``, which sets that row's interval to ``[0, ∞]`` in every carried
    column, so any writes may come between two searches. On rows under
    ``_CARRY_BYTES`` each search takes ``_nearest_rows``'s one product and
    keeps no intervals; on wider rows only the first does, the second reads
    every written row, and later ones carry. ``rows_read`` and
    ``full_passes`` count the rows read and the searches that read every
    written row.
    """

    def __init__(self, config: MemoryConfig) -> None:
        # Rows are read only after they are written, hence np.empty.
        self._rows = np.empty((config.n_buff, config.p_tem**2 * config.dim))
        self._sq_norms = np.empty(config.n_buff)
        self._t = 0  # the newest frame written
        self.rows_read = self.full_passes = 0
        # The last search's queried cluster indices, their centroids as it
        # read them, and the (columns, slots) interval ends; no columns after
        # a first search on wide rows, and None before it or on narrow rows.
        self._clusters: list = []
        self._centroids = self._lo = self._hi = None

    def write(self, t: int, row: np.ndarray) -> int:
        """Store frame ``t``'s pooled ``row`` and its squared norm in slot
        ``-t % n_buff``, set that slot's interval to ``[0, ∞]`` in every
        carried column, and return the slot. ``t`` is a frame the ring holds
        or the next one, and ``row`` a (p_tem**2 * D,) float64 array."""
        slot = -t % len(self._rows)
        self._rows[slot] = row
        self._sq_norms[slot] = row @ row
        if self._lo is not None:
            self._lo[:, slot] = 0.0
            self._hi[:, slot] = np.inf
        self._t = max(self._t, t)
        return slot

    def _nearest(self, centroids: np.ndarray, clusters: list) -> np.ndarray:
        """The slots ``_nearest_rows`` picks over the written rows, where row j
        of ``centroids`` is cluster ``clusters[j]``, reading only the rows the
        carried intervals cannot rule out. ``centroids`` must be a copy that
        no one writes later: it is kept as the next search's old centroids."""
        n, m = self._rows.shape
        first = n - min(self._t, n)  # the first written slot
        points, sq_norms = self._rows[first:], self._sq_norms[first:]
        start = -self._t % n - first
        if self._lo is None:
            if m * points.itemsize >= _CARRY_BYTES:
                self._lo = self._hi = np.zeros((0, n))  # the next search reads every row
            self.rows_read += len(points)
            self.full_passes += 1
            return _nearest_rows(points, sq_norms, centroids, start) + first
        norms = np.einsum("ij,ij->i", centroids, centroids)
        bound = _distance_bound(m, _radius(sq_norms, centroids))
        lo = np.zeros((len(clusters), n))
        hi = np.full((len(clusters), n), np.inf)
        column = {cluster: i for i, cluster in enumerate(self._clusters)}
        for j, cluster in enumerate(clusters):
            i = column.get(cluster)
            if i is not None:
                moved = _movement(centroids[j], self._centroids[i])
                lo[j] = np.nextafter(self._lo[i] - moved, -np.inf)
                hi[j] = np.nextafter(self._hi[i] + moved, np.inf)
        written_lo, written_hi = lo[:, first:], hi[:, first:]  # views

        least = written_hi.min(axis=1)
        reach = np.sqrt(least * least + bound)
        read = ~(written_lo > reach[:, None]).all(axis=0)
        runs = _runs(read, _GAP_BYTES // (m * points.itemsize))
        score = np.concatenate(
            [sq_norms[a:b, None] - 2.0 * (points[a:b] @ centroids.T) for a, b in runs]
        )
        rows = np.concatenate([np.arange(a, b) for a, b in runs])
        expanded = score + norms
        expanded = np.where(np.isfinite(expanded), expanded, np.nan).T
        written_lo[:, rows] = np.sqrt(np.fmax(expanded - bound, 0.0))
        written_hi[:, rows] = np.sqrt(np.fmin(expanded + bound, np.inf))

        self._clusters, self._centroids, self._lo, self._hi = clusters, centroids, lo, hi
        self.rows_read += len(rows)
        self.full_passes += len(rows) == len(points)
        return _settle(points, score, bound, centroids, start, rows) + first


def _radius(sq_norms: np.ndarray, centroids: np.ndarray) -> float:
    """A bound on ‖x‖ + ‖c‖ over the rows and centroids: the Frobenius norm of
    all centroids bounds each one's norm."""
    return math.sqrt(sq_norms.max()) + math.sqrt(np.vdot(centroids, centroids))


def _movement(new: np.ndarray, old: np.ndarray) -> float:
    """An upper bound on the exact ‖new − old‖ (module docstring)."""
    diff = new - old
    sq = float(diff @ diff)
    return math.sqrt(sq + _distance_bound(len(diff), math.sqrt(sq)))


def _runs(read: np.ndarray, gap: int) -> list:
    """The ``(start, stop)`` runs of the True entries of ``read``, with runs
    at most ``gap`` entries apart joined with the gap between them."""
    rows = np.flatnonzero(read)
    cuts = np.flatnonzero(np.diff(rows) > gap + 1)
    starts = rows[np.concatenate(([0], cuts + 1))].tolist()
    stops = (rows[np.concatenate((cuts, [len(rows) - 1]))] + 1).tolist()
    return list(zip(starts, stops))


def _nearest_rows(
    points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray, start: int
) -> np.ndarray:
    """Per centroid row, the point row at least direct squared distance.

    The direct distance is ``np.sum((points[i] - c) ** 2)``, and exact ties go
    to the first row in cyclic order from row ``start``. ``sq_norms`` holds
    each point row's squared norm. One product ranks every row by the expanded
    distance ``‖x‖² − 2·x·c`` (``‖c‖²`` is the same for all rows).
    """
    score = sq_norms[:, None] - 2.0 * (points @ centroids.T)
    bound = _distance_bound(points.shape[1], _radius(sq_norms, centroids))
    return _settle(points, score, bound, centroids, start)


def _settle(
    points: np.ndarray,
    score: np.ndarray,
    bound: float,
    centroids: np.ndarray,
    start: int,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Per centroid, the row of ``points`` at least direct distance, given
    ``score``, whose column j holds the expanded distance ``‖x‖² − 2·x·c_j``
    of each of ``rows`` (ascending; by default every row), which must include
    that row and its exact ties. A row's score is within T of d² − ‖c_j‖²
    and its direct distance within T of d², so the direct minimum and its
    ties score at most the column minimum plus E, the ``bound``: E ≥ 4T plus
    one rounding (``_distance_bound``). A column with one such row is
    settled; the others are re-ranked by ``_rerank``.
    """
    limit = score.min(axis=0) + bound
    # NaN compares false, so a column with a NaN limit keeps every row, and
    # every column keeps at least its minimum.
    near = ~(score > limit)
    best = score.argmin(axis=0)
    if rows is not None:
        best = rows[best]
    if np.count_nonzero(near) == near.shape[1]:
        return best  # each column's minimum is its only near row
    for j in np.flatnonzero(near.sum(axis=0) != 1):
        # A limit of -inf (the product overflowed) certifies nothing either.
        if not np.isfinite(limit[j]):
            candidates = np.arange(len(points))
        else:
            candidates = np.flatnonzero(near[:, j])
            if rows is not None:
                candidates = rows[candidates]
        best[j] = _rerank(points, centroids[j], candidates, start)
    return best


def _rerank(points: np.ndarray, centroid: np.ndarray, rows: np.ndarray, start: int) -> int:
    """The row of ``rows`` (ascending) nearest ``centroid`` by the direct
    distance; ties to the first in cyclic order from ``start``."""
    rows = np.roll(rows, -int(np.searchsorted(rows, start)))
    d2 = np.sum((points[rows] - centroid) ** 2, axis=1)
    return int(rows[np.argmin(d2)])  # argmin keeps the first minimum
