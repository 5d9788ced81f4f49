"""Semantic attention over the abstract bank: forward, analytic backward, file IO.

The abstract bank is a fixed set of slots that keeps absorbing new features
through a small attention step with exponential decay: each slot queries the
incoming tokens, mixes them in, and forgets a fraction alpha of what it held.
Gradients are provided analytically so the projections can be sanity-trained
at desk scale.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import MemoryConfig, ShapeError, _check_magnitude

__all__ = [
    "AttentionParams",
    "AttentionGrads",
    "semantic_attention",
    "semantic_attention_grad",
    "abstract_update",
    "save_attention_params",
    "load_attention_params",
]


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Bias-free square projections for keys and queries.

    Matrices are D x D, read-only float64, every entry within
    ``model.MAX_MAGNITUDE`` (the float32 range). The decay rate is not a
    learned weight: it lives in ``MemoryConfig`` and is passed per call.
    """

    key_proj: np.ndarray
    query_proj: np.ndarray

    def __post_init__(self) -> None:
        for name in ("key_proj", "query_proj"):
            mat = np.array(getattr(self, name), dtype=np.float64, order="C", copy=True)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ShapeError(f"{name} must be square, got shape {mat.shape}")
            _check_magnitude(mat, name)
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        if self.key_proj.shape != self.query_proj.shape:
            raise ShapeError(
                f"projection shapes differ: {self.key_proj.shape} vs {self.query_proj.shape}"
            )

    @property
    def dim(self) -> int:
        return self.key_proj.shape[0]

    @classmethod
    def seeded(cls, dim: int, seed: int = 0) -> "AttentionParams":
        """Gaussian init, std 1/sqrt(dim), deterministic in the seed."""
        rng = np.random.default_rng(seed)
        std = dim**-0.5
        return cls(
            key_proj=rng.normal(0.0, std, (dim, dim)),
            query_proj=rng.normal(0.0, std, (dim, dim)),
        )


@dataclass(frozen=True, eq=False)
class AttentionGrads:
    """Gradients of a scalar loss w.r.t. every semantic_attention input."""

    key_proj: np.ndarray
    query_proj: np.ndarray
    abstract: np.ndarray
    new_features: np.ndarray


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


def semantic_attention_grad(
    abstract: np.ndarray,
    new_features: np.ndarray,
    params: AttentionParams,
    decay_alpha: float,
    upstream: np.ndarray,
) -> AttentionGrads:
    """Analytic gradients of sum(upstream * output) w.r.t. all inputs.

    Chain rule through the decay term, the attention-weighted sum, the row
    softmax, and both projections. Shapes mirror the forward inputs.
    """
    abstract, new_features = _check_attention_shapes(abstract, new_features, params)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != abstract.shape:
        raise ShapeError(
            f"upstream must match abstract shape {abstract.shape}, got {upstream.shape}"
        )
    keys, queries, attn = _attend(abstract, new_features, params)

    d_attn = upstream @ new_features.T
    d_scores = attn * (d_attn - np.sum(d_attn * attn, axis=1, keepdims=True))
    d_queries = d_scores @ keys
    d_keys = d_scores.T @ queries
    return AttentionGrads(
        key_proj=d_keys.T @ new_features,
        query_proj=d_queries.T @ abstract,
        abstract=(1.0 - decay_alpha) * upstream + d_queries @ params.query_proj,
        new_features=attn.T @ upstream + d_keys @ params.key_proj,
    )


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


_MAGIC = b"ATP2"
_HEADER = struct.Struct("<4sI")  # magic, dim u32 LE


def save_attention_params(params: AttentionParams, path) -> None:
    """Write params in the ATP2 layout (see README): header, then the key and
    query matrices each prefixed by a one-byte role tag, row-major f64 LE."""
    d = params.dim
    blob = bytearray(_HEADER.pack(_MAGIC, d))
    blob += b"K" + np.ascontiguousarray(params.key_proj, dtype="<f8").tobytes()
    blob += b"Q" + np.ascontiguousarray(params.query_proj, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_attention_params(path) -> AttentionParams:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError(f"attention params file too short: {len(data)} bytes")
    magic, dim = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad attention params magic: {magic!r}")
    if dim < 1:
        raise ValueError(f"bad attention params dim: {dim}")
    mat_bytes = dim * dim * 8
    expected = _HEADER.size + 2 * (1 + mat_bytes)
    if len(data) != expected:
        raise ValueError(
            f"attention params file is {len(data)} bytes, expected {expected} for dim {dim}"
        )
    offset = _HEADER.size
    mats = []
    for role in (b"K", b"Q"):
        tag = data[offset : offset + 1]
        if tag != role:
            raise ValueError(f"expected matrix role tag {role!r} at offset {offset}, got {tag!r}")
        offset += 1
        mat = np.frombuffer(data, dtype="<f8", count=dim * dim, offset=offset)
        mats.append(mat.reshape(dim, dim).astype(np.float64))
        offset += mat_bytes
    key_proj, query_proj = mats
    return AttentionParams(key_proj=key_proj, query_proj=query_proj)
