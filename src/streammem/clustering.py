"""Weighted k-means over feature rows, and the temporal bank.

The temporal bank summarizes the whole stream as at most n_tem weighted
centroids. Each new frame either extends the bank (while it is filling) or is
merged by re-clustering the previous centroids plus the new point, carrying
the old centroid weights so long-lived clusters stay heavy.

That re-clustering is ``weighted_kmeans``, warm-started from the bank. On
almost every frame its run is one merge: the first assignment keeps each
carried centroid as its own cluster and puts the new row in its nearest one,
and the second assignment moves nothing. ``_merge_step`` computes that result
from the bank's k×k Gram matrix and two matrix-vector products, in place of
the run's two distance matrices and per-cluster updates. It first certifies
the run, as the assignment bounds of Elkan (ICML 2003) and Hamerly (SDM 2010)
do: a point cannot move while its own centroid is nearer than every rival by
more than the error in the distances. Here that error is the rounding bound
(Higham's gamma_m) of both the certificate's dots and ``_squared_distances``,
``_distance_bound``, which retrieval's nearest-row search uses too.
When the certificate fails, including on any non-finite value,
``temporal_update`` runs ``weighted_kmeans``, so both paths give the same
centroids, weights and assignments bit for bit.

``TemporalBank`` holds the bank as a ``TemporalFold``: the weights, the Gram
matrix, the rows holding a -0.0, and the read-only row blocks that snapshots
list, which are its one copy of the rows: one block per row when a row
reaches ``_SHARE_BYTES``, else one block of the whole bank, and the snapshot
keeps them as they are. ``temporal_update`` computes a frame's fold without
writing the bank, and ``TemporalBank.apply`` makes it the bank's. A merge
into centroid j replaces the block of row j, and those of the rows holding a
-0.0 with ``c + 0.0``, since re-centring any other carried singleton keeps
its bytes. It carries the Gram: the certificate's product
``C @ merged``, with entry j set to ``merged @ merged``, is the new bank's
Gram column j. So every Gram entry is one direct dot of its two rows' current
values, never an accumulated update, and it lies within ``_distance_bound``
as a fresh ``C @ C.T`` does. While the bank fills, each frame appends one
row; the frame that fills it computes the Gram afresh, and so does a
fallback frame, which replaces every block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import MemoryConfig, _frozen, _joined

__all__ = ["ClusterState"]

_MAX_ITERS = 10  # Lloyd update steps per weighted_kmeans call

# A bank whose rows are this many bytes or more keeps one block per row, so a
# merge replaces one row's block and the snapshot hashes that block alone; a
# smaller bank keeps one block for the whole bank. Both sides were measured:
# one block per row at dim 16 (2 KB rows) cost pipe-16 13% of its ingest_fps,
# since each block costs a CRC join and lookups in Python, and one block for
# the whole bank at dim 1024 would copy and hash 3.2 MB per frame.
_SHARE_BYTES = 1 << 16

# -0.0 read as an int64 is the sign bit alone, the least int64, so a float64
# row holds a -0.0 exactly when its int64 view's minimum is this value.
_NEGATIVE_ZERO = np.iinfo(np.int64).min


@dataclass(frozen=True, eq=False)
class ClusterState:
    """Result of one weighted k-means run.

    ``blocks`` are read-only row blocks whose rows, in order, are the (k, m)
    centroids; ``centroids`` joins them on each read and keeps nothing.
    ``weighted_kmeans`` gives its centroids as one block, and the merge path
    gives the new bank's blocks, the objects the engine's snapshot lists.
    weights[i] is the total point weight merged into centroid i.
    objective_history holds the weighted within-cluster squared distance
    after each update step and is non-increasing. On ``temporal_update``'s
    merge path it is computed from that path's own dots, so it may differ
    from weighted_kmeans's within rounding. converged is True when
    assignments repeated before the iteration cap ran out. The arrays are
    made read-only in place; on both paths nothing writes their memory later.
    """

    blocks: tuple = field(repr=False)
    weights: np.ndarray
    assignments: np.ndarray
    objective_history: tuple
    converged: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for arr in (*self.blocks, self.weights, self.assignments):
            arr.setflags(write=False)

    @property
    def centroids(self) -> np.ndarray:
        """The (k, m) centroid rows, read-only: ``_joined`` of the blocks."""
        return _joined(self.blocks).reshape(len(self.weights), -1)

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

    points: (n, m) float rows, n >= k >= 1, with positive finite point
    weights, frozen for the whole call.

    The centroids start at points[:k] (callers put the carried bank entries
    first), so identical inputs give bit-equal output. Iteration stops when
    assignments repeat or after _MAX_ITERS update steps.
    """
    n = points.shape[0]
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
        blocks=(centroids,),
        weights=np.bincount(assign, weights=point_weights, minlength=k),
        assignments=assign,
        objective_history=tuple(history),
        converged=converged,
    )


def _merge_step(centroids: np.ndarray, weights: np.ndarray, gram: np.ndarray, row: np.ndarray):
    """``weighted_kmeans`` of the k carried centroids plus ``row``, when a
    certificate shows that its run merges ``row`` into the nearest centroid
    j and stops; None when the certificate fails.

    ``gram`` holds a dot of each pair of centroid rows within
    ``_distance_bound``, such as ``centroids @ centroids.T``. Returns j, the
    merged row, the new bank's Gram column j and the run's objective.

    The certificate needs each point's own distance in both assignment steps
    to be below each rival's by more than twice the ``_distance_bound`` of
    both. That bound covers these dots and ``_squared_distances`` alike, so
    the run's argmins, ties included, pick the same centroids.

    Re-centring a carried singleton computes ``(0.0 + w·c) / w``. For a
    centroid that is a quotient by its weight, as in every bank
    ``temporal_update`` builds (a raw row has weight 1), that rounds to
    ``c + 0.0``: the row, with any -0.0 made +0.0
    (``test_re_centring_a_quotient_by_its_weight_is_the_identity``).
    """
    k, m = centroids.shape
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
    dots[:k, k] = column = centroids @ merged
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

    column[j] = sq_columns[k]
    # The objective after the update step: each point's second-step distance.
    moved = np.maximum(dist.diagonal(), 0.0)
    moved[j] = max(dist[j, k], 0.0)
    return j, merged, column, float(weights @ moved[:k] + moved[k])


def _negative_zero_rows(rows: np.ndarray) -> frozenset:
    """Indices of the (n, m) ``rows`` that hold a -0.0."""
    bits = rows.view(np.int64)
    if bits.min() != _NEGATIVE_ZERO:
        return frozenset()
    return frozenset(np.flatnonzero(bits.min(axis=1) == _NEGATIVE_ZERO).tolist())


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, a new array that nothing else holds, made read-only."""
    arr.setflags(write=False)
    return arr


# An empty bank's weights, which every empty bank shares, and a new row's.
_NO_WEIGHTS, _ONE = _read_only(np.zeros(0)), _read_only(np.ones(1))


class TemporalFold(NamedTuple):
    """The temporal bank after one frame, computed without writing the bank.

    ``state`` is the frame's clustering run, None while the bank fills.
    ``weights``, ``gram`` (None until the bank is full), ``blocks`` and
    ``signed_zero``, the rows holding a -0.0, are read-only, and nothing
    writes them later. The blocks' rows, in order, are the bank's centroids.
    """

    state: ClusterState | None
    weights: np.ndarray
    gram: np.ndarray | None
    blocks: tuple
    signed_zero: frozenset


_EMPTY = TemporalFold(None, _NO_WEIGHTS, None, (), frozenset())


class TemporalBank:
    """The temporal bank of up to n_tem centroids in the p_tem ring's row
    layout, (n, p_tem**2 * D), held as the last frame's ``TemporalFold``.

    ``weights``, ``gram``, ``blocks`` and ``state`` are that fold's. Its
    blocks are one per row when a row reaches ``_SHARE_BYTES`` (64 KB), else
    one for the whole bank. A filled or merged row's block owns its memory;
    a k-means fallback's row blocks view that run's one (k, m) array, which
    a snapshot keeps alive beside the rows merged since (at most twice the
    bank, ``test_snapshot_temporal_blocks_keep_alive_at_most_twice_the_bank``).
    ``centroids`` views the (n, m) matrix that ``_mirror`` derives from the
    blocks and may write in place, so read it again after each frame.
    """

    def __init__(self, config: MemoryConfig):
        self.config = config
        m = config.p_tem**2 * config.dim
        self._per_row = m * 8 >= _SHARE_BYTES
        self._matrix = np.zeros((0, m))
        self._fold = self._previous = _EMPTY

    weights = property(lambda self: self._fold.weights)
    gram = property(lambda self: self._fold.gram)
    blocks = property(lambda self: self._fold.blocks)
    state = property(lambda self: self._fold.state)

    @property
    def centroids(self) -> np.ndarray:
        view = self._matrix.view()
        view.setflags(write=False)
        return view

    def append(self, row: np.ndarray) -> TemporalFold:
        """The fold that appends ``row`` with weight 1 to a filling bank. Only
        a merge reads the Gram matrix and the -0.0 rows, so they are computed
        on the frame that fills the bank."""
        n, dim = len(self._matrix), self.config.dim
        matrix = np.concatenate((self._matrix, row[None]))
        # A filling row's block owns its memory: a view would keep this
        # frame's whole matrix alive in every snapshot that lists the row.
        new = _read_only(matrix[n].copy() if self._per_row else matrix).reshape(-1, dim)
        full = n + 1 == self.config.n_tem
        return TemporalFold(
            state=None,
            weights=_read_only(np.concatenate((self.weights, _ONE))),
            gram=_read_only(matrix @ matrix.T) if full else None,
            blocks=self.blocks + (new,) if self._per_row else (new,),
            signed_zero=_negative_zero_rows(matrix) if full else frozenset(),
        )

    def replacement(self, centroids, weights, state: ClusterState | None = None) -> TemporalFold:
        """The fold that replaces the whole bank with ``centroids`` and
        ``weights``, with ``state`` as the run that gave them."""
        rows = _frozen(centroids)
        dim = self.config.dim
        blocks = [row.reshape(-1, dim) for row in rows] if self._per_row else [rows.reshape(-1, dim)]
        return TemporalFold(
            state=state,
            weights=_frozen(weights),
            gram=_read_only(rows @ rows.T),
            blocks=tuple(blocks),
            signed_zero=_negative_zero_rows(rows),
        )

    def merge(self, row: np.ndarray) -> TemporalFold | None:
        """The fold that merges ``row`` into its nearest centroid, when
        ``_merge_step`` certifies it; else None."""
        step = _merge_step(self._matrix, self.weights, self.gram, row)
        if step is None:
            return None
        j, merged, column, objective = step
        k = len(self._matrix)
        gram = self.gram.copy()
        gram[j] = gram[:, j] = column
        weights = self.weights.copy()
        weights[j] += 1.0
        # Each new block views a new array, read-only at its base, so the
        # snapshot shares it without a copy.
        dim = self.config.dim
        if self._per_row:
            blocks = list(self.blocks)
            blocks[j] = _read_only(merged).reshape(-1, dim)
            for i in self._fold.signed_zero - {j}:
                blocks[i] = _read_only(self._matrix[i] + 0.0).reshape(-1, dim)
        else:
            bank = self._matrix + 0.0
            bank[j] = merged
            blocks = [_read_only(bank).reshape(-1, dim)]
        assignments = np.arange(k + 1)
        assignments[k] = j
        state = ClusterState(
            blocks=blocks,
            weights=weights,
            assignments=assignments,
            objective_history=(objective,),
            converged=True,
        )
        return TemporalFold(
            state=state,
            weights=weights,
            gram=_read_only(gram),
            blocks=state.blocks,
            signed_zero=frozenset([j]) if _negative_zero_rows(merged[None]) else frozenset(),
        )

    def _mirror(self, fold: TemporalFold) -> None:
        """Make the matrix hold ``fold``'s rows: the one whole-bank block
        itself; or, with a block per row, the matrix with each row whose block
        changed copied in, or a new matrix when the row count changes."""
        k, m = len(fold.weights), self._matrix.shape[1]
        if not k:
            self._matrix = np.zeros((0, m))
        elif not self._per_row:
            self._matrix = fold.blocks[0].reshape(k, m)
        elif k != len(self._matrix):
            self._matrix = np.concatenate(fold.blocks).reshape(k, m)
        else:
            for i, (new, old) in enumerate(zip(fold.blocks, self._fold.blocks)):
                if new is not old:
                    self._matrix[i] = new.reshape(m)

    def apply(self, fold: TemporalFold) -> None:
        """Make ``fold``, computed from this bank as it is now, the bank's."""
        self._mirror(fold)
        self._previous, self._fold = self._fold, fold

    def revert(self) -> None:
        """Undo the last ``apply``."""
        self._mirror(self._previous)
        self._fold = self._previous


def temporal_update(bank: TemporalBank, pooled_row: np.ndarray) -> TemporalFold:
    """Fold one frame into the temporal bank; ``bank.apply`` makes the result its own.

    ``pooled_row`` is a ``FrameFeature``'s tokens pooled to p_tem and
    flattened, so its values lie within ``MAX_MAGNITUDE``. While the bank
    holds fewer than n_tem centroids the row is appended with weight 1 and no
    clustering runs (the fold's state is None). Once full, the previous
    centroids plus the new row are re-clustered back down to n_tem,
    warm-started from the previous centroids; total weight grows by exactly 1
    per frame.

    The re-clustering is ``weighted_kmeans``'s result. When ``_merge_step``
    certifies that its run merges the row x into the nearest centroid j and
    then stops, the merge path builds that result directly: row j becomes
    ``(w_j·c_j + x) / (w_j + 1)``, weight j grows by 1, every other row and
    weight is kept, and the state reports one iteration, converged.
    Otherwise ``weighted_kmeans`` runs. On a bank this function built, whose
    every centroid is a quotient by its weight, both paths agree bit for bit.
    """
    k = bank.config.n_tem
    centroids = bank.centroids
    if len(centroids) < k:
        return bank.append(pooled_row)
    fold = bank.merge(pooled_row)
    if fold is None:
        points = np.concatenate([centroids, pooled_row[None]], axis=0)
        state = weighted_kmeans(points, np.concatenate([bank.weights, _ONE]), k)
        fold = bank.replacement(state.centroids, state.weights, state)
    return fold
