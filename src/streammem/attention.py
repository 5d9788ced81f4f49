"""Semantic attention over the abstract bank: forward, analytic backward, file IO.

The abstract bank is a fixed set of slots that keeps absorbing new features
through a small attention step with exponential decay: each slot queries the
incoming tokens, mixes them in, and forgets a fraction alpha of what it held.
Gradients are provided analytically so the projections can be sanity-trained
at desk scale.

With one incoming token (``p_abs=1``, the default) the attention row is
exactly [1.0] whatever the projections: the one score is finite, so the
softmax is exp(0) / exp(0). It is finite because frame and projection entries
lie within ``model.MAX_MAGNITUDE`` (M), the bank grows by at most M per frame,
and ``model.MAX_BUFFER_BYTES`` caps the dim D below 32768. A score is at most
D**3 * |bank| * M**3, about 5e167 for a bank within M, far from the float64
limit of 1.8e308. ``abstract_update`` therefore folds such a frame as
(1 - alpha) * bank + token without computing attention or reading params.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (MAX_BUFFER_BYTES, MemoryConfig, ShapeError, _check_magnitude, _check_real,
                    _is_int_at_least)

__all__ = ["AttentionParams", "save_attention_params", "load_attention_params"]


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Bias-free square projections for keys and queries.

    Matrices are D x D, read-only float64, every entry real and within
    ``model.MAX_MAGNITUDE`` (the float32 range). The decay rate is not a
    learned weight: it lives in ``MemoryConfig`` and is passed per call.
    """

    key_proj: np.ndarray
    query_proj: np.ndarray

    def __post_init__(self) -> None:
        for name in ("key_proj", "query_proj"):
            _check_real(getattr(self, name), name)
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
    def seeded(cls, dim: int) -> "AttentionParams":
        """Gaussian init, std 1/sqrt(dim), drawn from default_rng(0); a dim that is not
        an int >= 1 whose two projections fit ``MAX_BUFFER_BYTES`` is a ShapeError."""
        if not (_is_int_at_least(dim, 1) and 2 * 8 * int(dim) ** 2 <= MAX_BUFFER_BYTES):
            raise ShapeError(f"dim must be an int >= 1 within the byte limit, got {dim!r}")
        rng = np.random.default_rng(0)
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
    softmax, and both projections. Shapes mirror the forward inputs, and
    ``upstream`` has the shape of ``abstract``.
    """
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
    params: AttentionParams | None,
    config: MemoryConfig,
) -> np.ndarray:
    """Fold one frame, pooled to p_abs, into the abstract bank; bank shape never changes.

    The (p_abs, p_abs, D) tokens of ``pooled_frame`` are the incoming set, and
    every token row of the (n_abs * p_abs**2, D) bank attends to them.

    At ``p_abs=1`` the one token's attention weight is exactly 1.0 (see the
    module docstring), so the result is (1 - decay_alpha) * bank + token,
    byte for byte what ``semantic_attention`` returns, and ``params`` is not
    read (it may be None; other p_abs need AttentionParams). The ``+ 0.0``
    matches the attention product, which sums from +0.0: a -0.0 token entry
    becomes +0.0, as it does there.
    """
    if config.p_abs == 1:
        token = pooled_frame.reshape(1, config.dim) + 0.0
        return (1.0 - config.decay_alpha) * abstract_bank + token
    return semantic_attention(
        abstract_bank, pooled_frame.reshape(-1, config.dim), params, config.decay_alpha
    )


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
    """Read an ATP2 file, reading at most one byte more than its header declares."""
    with open(path, "rb") as f:
        data = bytearray(f.read(_HEADER.size))
        if len(data) < _HEADER.size:
            raise ValueError(f"attention params file too short: {len(data)} bytes")
        magic, dim = _HEADER.unpack(data)
        if magic != _MAGIC:
            raise ValueError(f"bad attention params magic: {magic!r}")
        if dim < 1:
            raise ValueError(f"bad attention params dim: {dim}")
        mat_bytes = dim * dim * 8
        expected = _HEADER.size + 2 * (1 + mat_bytes)
        # In pieces: read(n) allocates n bytes before it reads, and a u32 dim
        # can declare far more bytes than the file holds.
        while len(data) <= expected and (piece := f.read(min(expected + 1 - len(data), 1 << 20))):
            data += piece
    if len(data) != expected:
        size = len(data) if len(data) < expected else f"over {expected}"
        raise ValueError(
            f"attention params file is {size} bytes, expected {expected} for dim {dim}"
        )
    offset = _HEADER.size
    mats = []
    for role in (b"K", b"Q"):
        tag = bytes(data[offset : offset + 1])
        if tag != role:
            raise ValueError(f"expected matrix role tag {role!r} at offset {offset}, got {tag!r}")
        offset += 1
        mat = np.frombuffer(data, dtype="<f8", count=dim * dim, offset=offset)
        mats.append(mat.reshape(dim, dim).astype(np.float64))
        offset += mat_bytes
    key_proj, query_proj = mats
    return AttentionParams(key_proj=key_proj, query_proj=query_proj)
