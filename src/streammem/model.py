"""Shared domain types: frame features, configuration, snapshots, errors.

Everything here is a value type; the engine's mutable state lives in
``engine.MemoryEngine`` and is confined to its single writer.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ConfigError",
    "ShapeError",
    "WarmupError",
    "ConcurrentWriteError",
    "FrameFeature",
    "MemoryConfig",
    "MemorySnapshot",
    "BANK_ORDER",
    "default_config",
    "max_tokens",
    "validate_config",
]


class ConfigError(ValueError):
    """A memory configuration violates one of its named constraints."""


class ShapeError(ValueError):
    """A feature's grid or token dimension does not match what was expected."""


class WarmupError(RuntimeError):
    """An operation was asked to run before the memory holds enough state."""


class ConcurrentWriteError(RuntimeError):
    """A second writer entered the engine while another write was in progress."""


# Snapshot bank concatenation order. Fixed so outputs are bit-reproducible.
BANK_ORDER = ("spatial", "temporal", "abstract", "retrieved")


@dataclass(frozen=True, eq=False)
class FrameFeature:
    """One frame's square grid of feature tokens.

    ``tokens`` has shape (grid_size, grid_size, dim), float64, row-major and
    read-only. All values must be finite; non-finite frames are rejected at
    construction so they can never enter the engine. Instances compare by
    identity; the engine copies a frame's tokens into its buffer and keeps no
    reference to the frame itself.
    """

    grid_size: int
    dim: int
    tokens: np.ndarray

    def __post_init__(self) -> None:
        p, d = self.grid_size, self.dim
        if p < 1 or d < 1:
            raise ShapeError(f"grid_size and dim must be positive, got ({p}, {d})")
        arr = np.array(self.tokens, dtype=np.float64, order="C", copy=True)
        if arr.shape != (p, p, d):
            raise ShapeError(f"tokens shape {arr.shape} != expected {(p, p, d)}")
        if not np.isfinite(arr).all():
            raise ValueError("tokens contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "tokens", arr)

    @classmethod
    def from_array(cls, tokens: np.ndarray) -> "FrameFeature":
        tokens = np.asarray(tokens)
        if tokens.ndim != 3 or tokens.shape[0] != tokens.shape[1]:
            raise ShapeError(f"expected a (P, P, D) array, got shape {tokens.shape}")
        return cls(grid_size=tokens.shape[0], dim=tokens.shape[2], tokens=tokens)

    @property
    def token_matrix(self) -> np.ndarray:
        """Tokens flattened to (grid_size**2, dim), row-major."""
        return self.tokens.reshape(self.grid_size * self.grid_size, self.dim)


@dataclass(frozen=True)
class MemoryConfig:
    """Budget and shape hyperparameters for the memory engine.

    Construction never validates (so budget arithmetic can be probed with
    degenerate values); :func:`validate_config` enforces the invariants at the
    engine boundary.
    """

    p_spa: int = 8
    p_tem: int = 4
    p_abs: int = 1
    n_buff: int = 300
    n_spa: int = 1
    n_tem: int = 25
    n_abs: int = 25
    n_ret: int = 3
    dim: int = 1024  # stand-in encoder width; tests use smaller
    kmeans_max_iters: int = 10
    decay_alpha: float = 0.1
    rng_seed: int = 0  # seeds the attention projections

    def with_overrides(self, **kwargs) -> "MemoryConfig":
        return replace(self, **kwargs)


def default_config(**overrides) -> MemoryConfig:
    """The default configuration, optionally with field overrides."""
    return MemoryConfig(**overrides)


def max_tokens(config: MemoryConfig) -> int:
    """Total token budget: (n_spa+n_ret)*p_spa^2 + n_tem*p_tem^2 + n_abs*p_abs^2.

    Exact integer arithmetic; assumes a valid config but does not check one.
    """
    return (
        (config.n_spa + config.n_ret) * config.p_spa**2
        + config.n_tem * config.p_tem**2
        + config.n_abs * config.p_abs**2
    )


def _is_int_at_least(value, least: int) -> bool:
    """An int or numpy integer, bools excluded, of at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


_POSITIVE_INT_FIELDS = (
    "p_spa",
    "p_tem",
    "p_abs",
    "n_buff",
    "n_spa",
    "n_tem",
    "n_abs",
    "n_ret",
    "dim",
    "kmeans_max_iters",
)


def validate_config(config: MemoryConfig) -> None:
    """Check every config invariant, raising ConfigError naming the first violation.

    Whether a frame's grid pools exactly to each bank grid is a property of
    the frame, not the config: ``average_pool`` checks it.
    """
    for name in _POSITIVE_INT_FIELDS:
        value = getattr(config, name)
        if not _is_int_at_least(value, 1):
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    if config.n_spa > config.n_buff:
        raise ConfigError(
            f"spatial exceeds buffer: n_spa={config.n_spa} > n_buff={config.n_buff}"
        )
    if config.n_ret > config.n_tem:
        raise ConfigError(
            f"retrieval exceeds temporal: n_ret={config.n_ret} > n_tem={config.n_tem}"
        )
    if not (config.p_abs <= config.p_tem <= config.p_spa):
        raise ConfigError(
            "bank grid order violated: require p_abs <= p_tem <= p_spa, got "
            f"({config.p_abs}, {config.p_tem}, {config.p_spa})"
        )
    seed = config.rng_seed
    if not _is_int_at_least(seed, 0):
        raise ConfigError(f"rng_seed must be a non-negative integer, got {seed!r}")
    alpha = config.decay_alpha
    if not isinstance(alpha, (int, float, np.floating)) or not np.isfinite(alpha):
        raise ConfigError(f"decay out of range: decay_alpha must be a finite real, got {alpha!r}")
    if not (0.0 < float(alpha) < 1.0):
        raise ConfigError(f"decay out of range: decay_alpha must lie in (0, 1), got {alpha}")


def _checksum(version: int, timestamp_frame: int, offsets, tokens: np.ndarray) -> int:
    header = struct.pack("<qq", version, timestamp_frame)
    header += struct.pack("<8q", *(v for pair in offsets for v in pair))
    crc = zlib.crc32(header)
    return zlib.crc32(tokens, crc)  # tokens are C-contiguous: see MemorySnapshot


@dataclass(frozen=True, eq=False)
class MemorySnapshot:
    """Immutable, versioned flattening of the four banks into one token sequence.

    ``tokens`` is (total, dim) float64, banks concatenated in BANK_ORDER;
    ``bank_offsets`` maps each bank name to its (start, length) in tokens.
    The checksum covers version, timestamp, offsets and token bytes and lets
    readers detect a torn publication (there should never be one).
    """

    version: int
    timestamp_frame: int
    tokens: np.ndarray
    bank_offsets: tuple  # ((start, length) per bank, in BANK_ORDER)
    checksum: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.tokens, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"snapshot tokens must be 2-D, got shape {arr.shape}")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "tokens", arr)
        offsets = tuple(tuple(int(v) for v in pair) for pair in self.bank_offsets)
        if len(offsets) != 4:
            raise ShapeError("bank_offsets must hold four (start, length) pairs")
        pos = 0
        for start, length in offsets:
            if start != pos or length < 0:
                raise ShapeError(f"bank_offsets do not partition tokens: {offsets}")
            pos += length
        if pos != arr.shape[0]:
            raise ShapeError(
                f"bank_offsets cover {pos} tokens but snapshot holds {arr.shape[0]}"
            )
        object.__setattr__(self, "bank_offsets", offsets)
        object.__setattr__(
            self,
            "checksum",
            _checksum(self.version, self.timestamp_frame, offsets, arr),
        )

    @property
    def token_count(self) -> int:
        return self.tokens.shape[0]

    def bank(self, name: str) -> np.ndarray:
        """Token rows of one bank, by name from BANK_ORDER."""
        start, length = self.bank_offsets[BANK_ORDER.index(name)]
        return self.tokens[start : start + length]

    def verify_checksum(self) -> bool:
        return self.checksum == _checksum(
            self.version, self.timestamp_frame, self.bank_offsets, self.tokens
        )
