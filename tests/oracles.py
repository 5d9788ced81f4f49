"""Independent reference implementations used to cross-check the package.

Everything in the first part is deliberately naive: explicit Python loops,
exhaustive enumeration, no code shared with the package beyond its public
data types. Slow on purpose; only run at toy sizes. It ends with
``seeded_params``, attention projections drawn from any seed.

The second part holds frozen copies of the engine's three per-frame stages
(``temporal_update``, ``abstract_update`` and ``retrieve_key_features``, each
with its private helpers), copied verbatim from the package before its banks
moved to row layouts. They only reshape, so they accept the row layouts
unchanged. The third holds the snapshot as it was before it shared row
blocks: it concatenates the banks and takes one CRC-32 over the header and
tokens. ``test_differential`` patches all four into a twin engine: any later
shortcut in the package must reproduce their output bit for bit.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from itertools import accumulate

import numpy as np

from streammem import AttentionParams, ClusterState, MemoryConfig, ShapeError
from streammem.model import BANK_ORDER, _is_int_at_least


def pool_loops(tokens: np.ndarray, target: int) -> np.ndarray:
    """Block-average a (P, P, D) grid to (target, target, D) with bare loops."""
    p, _, d = tokens.shape
    block = p // target
    out = np.zeros((target, target, d))
    for i in range(target):
        for j in range(target):
            acc = np.zeros(d)
            for bi in range(block):
                for bj in range(block):
                    acc += tokens[i * block + bi, j * block + bj]
            out[i, j] = acc / (block * block)
    return out


def attention_loops(
    abstract: np.ndarray,
    new: np.ndarray,
    key_proj: np.ndarray,
    query_proj: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Scalar-loop transcription of the attention update."""
    n_abs, d = abstract.shape
    n = new.shape[0]
    keys = np.zeros((n, d))
    for i in range(n):
        for r in range(d):
            keys[i, r] = sum(key_proj[r, c] * new[i, c] for c in range(d))
    queries = np.zeros((n_abs, d))
    for i in range(n_abs):
        for r in range(d):
            queries[i, r] = sum(query_proj[r, c] * abstract[i, c] for c in range(d))
    scores = np.zeros((n_abs, n))
    for i in range(n_abs):
        for j in range(n):
            scores[i, j] = sum(queries[i, c] * keys[j, c] for c in range(d))
    weights = np.zeros((n_abs, n))
    for i in range(n_abs):
        m = max(scores[i, j] for j in range(n))
        exps = [np.exp(scores[i, j] - m) for j in range(n)]
        total = sum(exps)
        for j in range(n):
            weights[i, j] = exps[j] / total
    out = np.zeros((n_abs, d))
    for i in range(n_abs):
        for c in range(d):
            mixed = sum(weights[i, j] * new[j, c] for j in range(n))
            out[i, c] = (1.0 - alpha) * abstract[i, c] + mixed
    return out


def retrieve_bruteforce(
    buffer_pooled: list[np.ndarray],
    centroids: np.ndarray,
    weights: np.ndarray,
    n_ret: int,
) -> list[int]:
    """Buffer indices chosen by a double-loop nearest-neighbor scan.

    buffer_pooled holds each buffer entry already pooled to the centroid grid,
    newest first. Clusters ranked by weight descending, ties to the lower
    cluster index; distances compared with strict less-than so the first
    (lowest, newest) buffer index wins ties.
    """
    k = centroids.shape[0]
    ranked = sorted(range(k), key=lambda c: (-weights[c], c))[: min(n_ret, k)]
    picks = []
    for c in ranked:
        target = centroids[c].reshape(-1)
        best, best_d2 = None, None
        for idx, entry in enumerate(buffer_pooled):
            v = entry.reshape(-1)
            d2 = 0.0
            for a, b in zip(v, target):
                d2 += (a - b) ** 2
            if best is None or d2 < best_d2:
                best, best_d2 = idx, d2
        picks.append(best)
    return picks


def partition_objective(
    points: np.ndarray, weights: np.ndarray, assign: np.ndarray, k: int
) -> float:
    """Weighted within-cluster cost with each cluster at its weighted mean."""
    flat = points.reshape(points.shape[0], -1)
    total = 0.0
    for c in range(k):
        members = [i for i in range(len(assign)) if assign[i] == c]
        if not members:
            continue
        w = weights[list(members)]
        mean = np.zeros(flat.shape[1])
        for i in members:
            mean += weights[i] * flat[i]
        mean /= w.sum()
        for i in members:
            total += weights[i] * float(np.sum((flat[i] - mean) ** 2))
    return total


def exhaustive_best_objective(
    points: np.ndarray, weights: np.ndarray, k: int
) -> float:
    """Global optimum objective over every one of the k^n assignments."""
    n = points.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        best = min(best, partition_objective(points, weights, np.array(assign), k))
    return best


def finite_difference(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, elementwise."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = f()
        xf[i] = orig - eps
        lo = f()
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def seeded_params(dim: int, seed: int) -> AttentionParams:
    """Gaussian projections, std 1/sqrt(dim), drawn from default_rng(seed) as
    ``AttentionParams.seeded(dim)`` draws them from default_rng(0)."""
    rng = np.random.default_rng(seed)
    std = dim**-0.5
    return AttentionParams(
        key_proj=rng.normal(0.0, std, (dim, dim)),
        query_proj=rng.normal(0.0, std, (dim, dim)),
    )


# -- frozen stage copies ------------------------------------------------------


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
        blocks=(centroids.reshape((k,) + trailing),),
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
    state = weighted_kmeans(points, point_weights, config.n_tem)
    return state.centroids, state.weights, state


def _check_attention_shapes(
    abstract: np.ndarray, new_features: np.ndarray, params: AttentionParams
) -> tuple[np.ndarray, np.ndarray]:
    abstract = np.asarray(abstract, dtype=np.float64)
    new_features = np.asarray(new_features, dtype=np.float64)
    d = params.dim
    if abstract.ndim != 2 or abstract.shape[1] != d:
        raise ShapeError(f"abstract must be (n_abs, {d}), got {abstract.shape}")
    if new_features.ndim != 2 or new_features.shape[1] != d:
        raise ShapeError(f"new_features must be (n, {d}), got {new_features.shape}")
    if new_features.shape[0] == 0:
        raise ShapeError("new_features is empty; attention needs at least one token")
    return abstract, new_features


def _row_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _attend(
    abstract: np.ndarray, new_features: np.ndarray, params: AttentionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys, queries and the row-softmax attention of one forward pass."""
    keys = new_features @ params.key_proj.T
    queries = abstract @ params.query_proj.T
    return keys, queries, _row_softmax(queries @ keys.T)


def semantic_attention(
    abstract: np.ndarray,
    new_features: np.ndarray,
    params: AttentionParams,
    decay_alpha: float,
) -> np.ndarray:
    """One attention update of the abstract slots against incoming tokens.

    K = new_features @ key_proj.T, Q = abstract @ query_proj.T, and each slot's
    attention row is softmax over the incoming-token axis of Q @ K.T (scores
    are not divided by sqrt(D)). Output is
    (1 - decay_alpha) * abstract + attention @ new_features. The decay is used
    as given, so edge values such as 1 (full decay) can be probed here; the
    engine passes its config's range-checked decay.
    """
    abstract, new_features = _check_attention_shapes(abstract, new_features, params)
    _, _, attn = _attend(abstract, new_features, params)
    return (1.0 - decay_alpha) * abstract + attn @ new_features


def abstract_update(
    abstract_bank: np.ndarray,
    pooled_frame: np.ndarray,
    params: AttentionParams,
    config: MemoryConfig,
) -> np.ndarray:
    """Fold one frame, pooled to p_abs, into the abstract bank; bank shape never changes.

    The (p_abs, p_abs, D) tokens of ``pooled_frame`` are the incoming set, and
    every slot token of the (n_abs, p_abs, p_abs, D) bank attends to them.
    """
    slots = abstract_bank.reshape(-1, config.dim)
    updated = semantic_attention(
        slots, pooled_frame.reshape(-1, config.dim), params, config.decay_alpha
    )
    return updated.reshape(abstract_bank.shape)


class WarmupError(RuntimeError):
    """The frozen retrieval was given an empty buffer or temporal bank."""


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
    if not 0 <= newest < n:
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


# -- frozen snapshot ----------------------------------------------------------
# Copied verbatim from the package while the snapshot still concatenated its
# banks into one array and took one CRC-32 over it. ``snapshot`` drops the
# ``previous`` keyword, which this copy predates.


def _checksum(version: int, timestamp_frame: int, offsets, tokens: np.ndarray) -> int:
    header = struct.pack("<qq", version, timestamp_frame)
    header += struct.pack("<8q", *(v for pair in offsets for v in pair))
    crc = zlib.crc32(header)
    return zlib.crc32(tokens, crc)  # tokens are C-contiguous: see MemorySnapshot


@dataclass(frozen=True, eq=False)
class MemorySnapshot:
    """Immutable, versioned flattening of the four banks into one token sequence.

    ``banks`` maps each BANK_ORDER name to a list or tuple of (n, D) row
    blocks; the snapshot concatenates them, in BANK_ORDER and then in list
    order, into ``tokens``, a new read-only (total, D) float64 array. It
    derives ``bank_lengths`` (each bank's token count), ``bank_offsets`` (each
    bank's (start, length) in tokens) and the checksum. The checksum covers
    version, timestamp, offsets and token bytes and lets readers detect a torn
    publication (there should never be one). Building one raises ValueError
    listing BANK_ORDER for a missing or unknown bank name, and ShapeError for
    a block that is not 2-D, blocks of different widths or none at all, or a
    version or timestamp that is not a count the checksum header can hold.
    """

    version: int
    timestamp_frame: int
    banks: InitVar[Mapping]  # BANK_ORDER name -> (n, D) row blocks
    tokens: np.ndarray = field(init=False)  # the blocks, concatenated
    bank_lengths: tuple = field(init=False)  # token count per bank, in BANK_ORDER
    bank_offsets: tuple = field(init=False)  # (start, length) per bank
    checksum: int = field(init=False)  # computed from the fields above

    def __post_init__(self, banks: Mapping) -> None:
        for name in ("version", "timestamp_frame"):
            value = getattr(self, name)
            if not (_is_int_at_least(value, 0) and value < 1 << 63):  # a "<q" header field
                raise ShapeError(f"{name} must be an integer in [0, 2**63), got {value!r}")
        if not (isinstance(banks, Mapping) and set(banks) == set(BANK_ORDER)):
            got = list(banks) if isinstance(banks, Mapping) else type(banks).__name__
            raise ValueError(f"banks must map exactly the names {BANK_ORDER}, got {got}")
        if not all(isinstance(banks[name], (list, tuple)) for name in BANK_ORDER):
            raise ShapeError("each bank must be a list or tuple of (n, D) row blocks")
        blocks = [[np.asarray(m, dtype=np.float64) for m in banks[name]] for name in BANK_ORDER]
        rows = [m for bank in blocks for m in bank]
        if len({m.shape[1:] for m in rows}) != 1 or rows[0].ndim != 2:
            raise ShapeError(
                "snapshot row blocks must be 2-D (n, D) and share one width D, got shapes "
                f"{[m.shape for m in rows]}"
            )
        lengths = tuple(sum(len(m) for m in bank) for bank in blocks)
        offsets = tuple(zip(accumulate(lengths[:-1], initial=0), lengths))
        # A new C-contiguous array, which no block aliases and _checksum needs.
        arr = np.concatenate(rows, out=np.empty((sum(lengths), rows[0].shape[1])))
        arr.setflags(write=False)
        object.__setattr__(self, "tokens", arr)
        object.__setattr__(self, "bank_lengths", lengths)
        object.__setattr__(self, "bank_offsets", offsets)
        checksum = _checksum(self.version, self.timestamp_frame, offsets, arr)
        object.__setattr__(self, "checksum", checksum)

    @property
    def token_count(self) -> int:
        return self.tokens.shape[0]

    def bank(self, name: str) -> np.ndarray:
        """Token rows of one bank, by name from BANK_ORDER."""
        if name not in BANK_ORDER:
            raise ValueError(f"bank name must be one of {BANK_ORDER}, got {name!r}")
        start, length = self.bank_offsets[BANK_ORDER.index(name)]
        return self.tokens[start : start + length]

    def verify_checksum(self) -> bool:
        return self.checksum == _checksum(
            self.version, self.timestamp_frame, self.bank_offsets, self.tokens
        )


def snapshot(*, previous=None, **kwargs) -> MemorySnapshot:
    """The frozen snapshot, called without the engine's previous snapshot."""
    return MemorySnapshot(**kwargs)
