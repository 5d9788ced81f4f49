"""Shared domain types: frame features, configuration, snapshots, errors.

Everything here is a value type; the engine's mutable state lives in
``engine.MemoryEngine`` and is confined to its single writer.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from itertools import accumulate

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
    "MAX_MAGNITUDE",
    "MAX_BUFFER_BYTES",
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

# Largest |value| of a frame token or attention projection entry: the float32
# range, which FVS1 files cannot exceed anyway. Under it the products and
# squared distances the engine forms stay finite; NaN and inf fail it too.
MAX_MAGNITUDE = float(np.finfo(np.float32).max)

# Largest float64 state a config may preallocate: the feature buffer's two
# rings, the abstract bank and the two D x D attention projections. The
# defaults at dim 1024 need 214 MB.
MAX_BUFFER_BYTES = 1 << 34


def _check_magnitude(arr: np.ndarray, name: str) -> None:
    """Raise ValueError unless every value satisfies |v| <= MAX_MAGNITUDE."""
    # Two reductions and no temporary array; a NaN propagates and fails both.
    if arr.size and not (arr.max() <= MAX_MAGNITUDE and arr.min() >= -MAX_MAGNITUDE):
        raise ValueError(
            f"{name} must satisfy |v| <= {MAX_MAGNITUDE!r} (float32 max); "
            "got non-finite or larger values"
        )


@dataclass(frozen=True, eq=False)
class FrameFeature:
    """One frame's square grid of feature tokens.

    ``tokens`` has shape (grid_size, grid_size, dim), float64, row-major and
    read-only. Every value must satisfy |v| <= MAX_MAGNITUDE, so no other frame
    can ever enter the engine. Instances compare by identity; the engine
    copies a frame's tokens into its buffer and keeps no reference to the
    frame itself.
    """

    grid_size: int
    dim: int
    tokens: np.ndarray

    def __post_init__(self) -> None:
        p, d = self.grid_size, self.dim
        if not (_is_int_at_least(p, 1) and _is_int_at_least(d, 1)):
            raise ShapeError(f"grid_size and dim must be positive integers, got ({p!r}, {d!r})")
        arr = np.array(self.tokens, dtype=np.float64, order="C", copy=True)
        if arr.shape != (p, p, d):
            raise ShapeError(f"tokens shape {arr.shape} != expected {(p, p, d)}")
        _check_magnitude(arr, "tokens")
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
    n_buff, p_spa, p_tem, n_abs, p_abs, dim = map(  # Python ints: no numpy wrap
        int, (config.n_buff, config.p_spa, config.p_tem, config.n_abs, config.p_abs, config.dim)
    )
    nbytes = (n_buff * (p_spa**2 + p_tem**2) + n_abs * p_abs**2 + 2 * dim) * dim * 8
    if nbytes > MAX_BUFFER_BYTES:
        raise ConfigError(
            f"buffer too large: the config preallocates {nbytes} bytes, "
            f"over the {MAX_BUFFER_BYTES}-byte limit"
        )
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
    ``bank_lengths`` holds each bank's token count, and ``bank_offsets`` each
    bank's (start, length) in tokens, derived from them. The checksum covers
    version, timestamp, offsets and token bytes and lets readers detect a torn
    publication (there should never be one).
    """

    version: int
    timestamp_frame: int
    tokens: np.ndarray
    bank_lengths: tuple  # token count per bank, in BANK_ORDER
    bank_offsets: tuple = field(init=False)  # (start, length) per bank
    checksum: int = field(init=False)  # computed from the fields above

    def __post_init__(self) -> None:
        arr = np.asarray(self.tokens, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"snapshot tokens must be 2-D, got shape {arr.shape}")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "tokens", arr)
        lengths = tuple(int(n) for n in self.bank_lengths)
        if len(lengths) != 4 or min(lengths) < 0 or sum(lengths) != arr.shape[0]:
            raise ShapeError(
                "bank_lengths must be four non-negative counts summing to the "
                f"{arr.shape[0]} token rows, got {lengths}"
            )
        offsets = tuple(zip(accumulate(lengths[:-1], initial=0), lengths))
        object.__setattr__(self, "bank_lengths", lengths)
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
