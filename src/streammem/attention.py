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

from .model import FrameFeature, MemoryConfig, ShapeError
from .pooling import average_pool

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
    """Bias-free square projections for keys and queries, plus the decay rate.

    Matrices are D x D, finite, read-only float64. The decay is stored as
    given so edge values (alpha = 1, full decay) remain probeable in isolation;
    the engine accepts params only with its config's (range-checked) decay.
    """

    key_proj: np.ndarray
    query_proj: np.ndarray
    decay_alpha: float = 0.1

    def __post_init__(self) -> None:
        for name in ("key_proj", "query_proj"):
            mat = np.array(getattr(self, name), dtype=np.float64, order="C", copy=True)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ShapeError(f"{name} must be square, got shape {mat.shape}")
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} contains non-finite values")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        if self.key_proj.shape != self.query_proj.shape:
            raise ShapeError(
                f"projection shapes differ: {self.key_proj.shape} vs {self.query_proj.shape}"
            )
        if not np.isfinite(self.decay_alpha):
            raise ValueError(f"decay_alpha must be finite, got {self.decay_alpha!r}")

    @property
    def dim(self) -> int:
        return self.key_proj.shape[0]

    @classmethod
    def seeded(cls, dim: int, seed: int = 0, decay_alpha: float = 0.1) -> "AttentionParams":
        """Gaussian init, std 1/sqrt(dim), deterministic in the seed."""
        rng = np.random.default_rng(seed)
        std = dim**-0.5
        return cls(
            key_proj=rng.normal(0.0, std, (dim, dim)),
            query_proj=rng.normal(0.0, std, (dim, dim)),
            decay_alpha=decay_alpha,
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
    abstract: np.ndarray, new_features: np.ndarray, params: AttentionParams, scale: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys, queries and the row-softmax attention of one forward pass."""
    keys = new_features @ params.key_proj.T
    queries = abstract @ params.query_proj.T
    scores = queries @ keys.T
    if scale:
        scores = scores / np.sqrt(params.dim)
    return keys, queries, _row_softmax(scores)


def semantic_attention(
    abstract: np.ndarray,
    new_features: np.ndarray,
    params: AttentionParams,
    *,
    scale: bool = False,
) -> np.ndarray:
    """One attention update of the abstract slots against incoming tokens.

    K = new_features @ key_proj.T, Q = abstract @ query_proj.T, and each slot's
    attention row is softmax over the incoming-token axis of Q @ K.T. Output is
    (1 - alpha) * abstract + attention @ new_features. Scores are not divided
    by sqrt(D) unless ``scale`` is set; the unscaled product is the reference
    behavior, scaling is an ablation knob.
    """
    abstract, new_features = _check_attention_shapes(abstract, new_features, params)
    _, _, attn = _attend(abstract, new_features, params, scale)
    return (1.0 - params.decay_alpha) * abstract + attn @ new_features


def semantic_attention_grad(
    abstract: np.ndarray,
    new_features: np.ndarray,
    params: AttentionParams,
    upstream: np.ndarray,
    *,
    scale: bool = False,
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
    keys, queries, attn = _attend(abstract, new_features, params, scale)

    d_attn = upstream @ new_features.T
    d_scores = attn * (d_attn - np.sum(d_attn * attn, axis=1, keepdims=True))
    if scale:
        d_scores = d_scores / np.sqrt(params.dim)
    d_queries = d_scores @ keys
    d_keys = d_scores.T @ queries
    return AttentionGrads(
        key_proj=d_keys.T @ new_features,
        query_proj=d_queries.T @ abstract,
        abstract=(1.0 - params.decay_alpha) * upstream + d_queries @ params.query_proj,
        new_features=attn.T @ upstream + d_keys @ params.key_proj,
    )


def abstract_update(
    abstract_bank: np.ndarray,
    feature: FrameFeature,
    params: AttentionParams,
    config: MemoryConfig,
) -> np.ndarray:
    """Fold one frame into the abstract bank; bank shape never changes.

    The frame is pooled to p_abs, its tokens become the incoming set, and every
    slot token of the (n_abs, p_abs, p_abs, D) bank attends to them.
    """
    pooled = average_pool(feature.tokens, config.p_abs)
    slots = abstract_bank.reshape(-1, config.dim)
    updated = semantic_attention(slots, pooled.reshape(-1, config.dim), params)
    return updated.reshape(abstract_bank.shape)


_MAGIC = b"ATP1"
_HEADER = struct.Struct("<4sId")  # magic, dim u32 LE, decay_alpha f64 LE


def save_attention_params(params: AttentionParams, path) -> None:
    """Write params in the ATP1 layout (see README): header, then the key and
    query matrices each prefixed by a one-byte role tag, row-major f64 LE."""
    d = params.dim
    blob = bytearray(_HEADER.pack(_MAGIC, d, float(params.decay_alpha)))
    blob += b"K" + np.ascontiguousarray(params.key_proj, dtype="<f8").tobytes()
    blob += b"Q" + np.ascontiguousarray(params.query_proj, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_attention_params(path) -> AttentionParams:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError(f"attention params file too short: {len(data)} bytes")
    magic, dim, alpha = _HEADER.unpack_from(data, 0)
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
    mats = {}
    for _ in range(2):
        tag = data[offset : offset + 1]
        if tag not in (b"K", b"Q"):
            raise ValueError(f"unknown matrix role tag {tag!r} at offset {offset}")
        if tag in mats:
            raise ValueError(f"duplicate matrix role tag {tag!r}")
        offset += 1
        mat = np.frombuffer(data, dtype="<f8", count=dim * dim, offset=offset)
        mats[tag] = mat.reshape(dim, dim).astype(np.float64)
        offset += mat_bytes
    return AttentionParams(key_proj=mats[b"K"], query_proj=mats[b"Q"], decay_alpha=alpha)
