"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: explicit Python loops, exhaustive
enumeration, no code shared with the package beyond its public data types.
Slow on purpose; only run at toy sizes.
"""

from __future__ import annotations

import itertools

import numpy as np


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
