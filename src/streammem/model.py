"""Shared domain types: frame features, configuration, snapshots, errors.

Everything here is a value type; the engine's mutable state lives in
``engine.MemoryEngine`` and is confined to its single writer. Two decisions
live here alone: ``MemoryConfig`` stores its counts as Python ints and its
decay as a Python float, so no caller's numpy scalar type reaches the
engine's arithmetic; and ``MemorySnapshot`` lays out the row blocks it is
given by bank name in ``BANK_ORDER``, so no caller orders or counts banks.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field, fields
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

# Largest float64 state a config may hold: the feature buffer's two rings, the
# temporal bank at n_tem centroids, the abstract bank, one snapshot at budget
# and the two D x D attention projections, which an engine holds only at
# p_abs > 1 or when they are passed in. The defaults at dim 1024 need 222 MB.
# The engine bounds the snapshots it retains by the same limit.
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


def _is_int_at_least(value, least: int) -> bool:
    """An int or numpy integer, bools excluded, of at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


@dataclass(frozen=True)
class MemoryConfig:
    """Budget and shape hyperparameters for the memory engine.

    Every instance is valid: construction, also through ``default_config`` or
    ``dataclasses.replace``, raises ConfigError naming the first violated
    rule. Whether a frame's grid pools exactly to each bank grid is a property
    of the frame, not the config: ``average_pool`` checks it.
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
    decay_alpha: float = 0.1

    def __post_init__(self) -> None:
        # Every int field is a count or a size. Annotations are strings here
        # (the __future__ import), so f.type is "int". Each is stored as a
        # Python int and decay_alpha as a Python float, so no rule below and
        # no product the engine forms wraps or rounds in a numpy type.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if not _is_int_at_least(value, 1):
                    raise ConfigError(f"{f.name} must be a positive integer, got {value!r}")
                object.__setattr__(self, f.name, int(value))
        rows = (self.n_buff * (self.p_spa**2 + self.p_tem**2) + self.n_tem * self.p_tem**2
                + self.n_abs * self.p_abs**2)
        nbytes = (rows + max_tokens(self) + 2 * self.dim) * self.dim * 8
        if nbytes > MAX_BUFFER_BYTES:
            raise ConfigError(
                f"buffer too large: the config holds up to {nbytes} bytes, "
                f"over the {MAX_BUFFER_BYTES}-byte limit"
            )
        if self.n_spa > self.n_buff:
            raise ConfigError(
                f"spatial exceeds buffer: n_spa={self.n_spa} > n_buff={self.n_buff}"
            )
        if self.n_ret > self.n_tem:
            raise ConfigError(
                f"retrieval exceeds temporal: n_ret={self.n_ret} > n_tem={self.n_tem}"
            )
        if not (self.p_abs <= self.p_tem <= self.p_spa):
            raise ConfigError(
                "bank grid order violated: require p_abs <= p_tem <= p_spa, got "
                f"({self.p_abs}, {self.p_tem}, {self.p_spa})"
            )
        alpha = self.decay_alpha
        if not isinstance(alpha, (int, float, np.floating)) or not np.isfinite(alpha):
            raise ConfigError(
                f"decay out of range: decay_alpha must be a finite real, got {alpha!r}"
            )
        object.__setattr__(self, "decay_alpha", float(alpha))
        if not (0.0 < self.decay_alpha < 1.0):
            raise ConfigError(f"decay out of range: decay_alpha must lie in (0, 1), got {alpha}")


def default_config(**overrides) -> MemoryConfig:
    """The default configuration, optionally with field overrides."""
    return MemoryConfig(**overrides)


def max_tokens(config: MemoryConfig) -> int:
    """Total token budget: (n_spa+n_ret)*p_spa^2 + n_tem*p_tem^2 + n_abs*p_abs^2."""
    c = config
    return (c.n_spa + c.n_ret) * c.p_spa**2 + c.n_tem * c.p_tem**2 + c.n_abs * c.p_abs**2


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
