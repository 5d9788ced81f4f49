"""Shared domain types: frame features, configuration, snapshots, errors.

Everything here is a value type; the engine's mutable state lives in
``engine.MemoryEngine`` and is confined to its single writer. Two decisions
live here alone: ``MemoryConfig`` stores its counts as Python ints and its
decay as a Python float, so no caller's numpy scalar type reaches the
engine's arithmetic; and ``MemorySnapshot`` lays out the row blocks it is
given by bank name in ``BANK_ORDER``, so no caller orders or counts banks.
It keeps them one for one as shared read-only blocks and joins its checksum
from one CRC-32 per block, so a snapshot that differs from the previous one
in a few blocks costs a hash of those blocks alone.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field, fields
from functools import lru_cache
from itertools import accumulate, chain

import numpy as np

__all__ = [
    "ConfigError",
    "ShapeError",
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


class ConcurrentWriteError(RuntimeError):
    """A second writer entered the engine while another write was in progress."""


# Snapshot bank order. Fixed so outputs are bit-reproducible.
BANK_ORDER = ("spatial", "temporal", "abstract", "retrieved")

# Largest |value| of a frame token or attention projection entry: the float32
# range, which FVS1 files cannot exceed anyway. Under it the products and
# squared distances the engine forms stay finite; NaN and inf fail it too.
MAX_MAGNITUDE = float(np.finfo(np.float32).max)

# Largest float64 state a config may hold: the feature buffer's two rings, the
# temporal bank at n_tem centroids, the abstract bank, one snapshot at budget
# and the two D x D attention projections, which an engine holds only at
# p_abs > 1 or when they are passed in. The defaults at dim 1024 need 222 MB.
# That is a float64 upper bound: the engine's p_spa ring holds each float32-exact
# frame that the latest snapshot does not list in float32, about 79 MB less at
# those defaults when all are.
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


def _check_real(value, name: str) -> None:
    """Raise ValueError unless ``value`` has a bool, integer or real float
    dtype: a float64 cast would drop a complex value's imaginary part, parse
    strings as numbers and fail on objects with a bare TypeError."""
    dtype = value.dtype if isinstance(value, np.ndarray) else np.asarray(value).dtype
    if dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real values, got dtype {dtype}")


@dataclass(frozen=True, eq=False)
class FrameFeature:
    """One frame's square grid of feature tokens.

    ``tokens`` has shape (grid_size, grid_size, dim), float64, row-major and
    read-only for good: it is a copy of the input held in an immutable
    ``bytes`` object, so neither it nor its base can be made writable again.
    Every value must be real and satisfy |v| <= MAX_MAGNITUDE, so no other
    frame can ever enter the engine. Instances compare by identity; the
    engine may keep a frame's tokens in its buffer, since they cannot change,
    but keeps no reference to the frame itself.
    """

    grid_size: int
    dim: int
    tokens: np.ndarray

    def __post_init__(self) -> None:
        p, d = self.grid_size, self.dim
        if not (_is_int_at_least(p, 1) and _is_int_at_least(d, 1)):
            raise ShapeError(f"grid_size and dim must be positive integers, got ({p!r}, {d!r})")
        _check_real(self.tokens, "tokens")
        arr = np.asarray(self.tokens, dtype=np.float64)
        if arr.shape != (p, p, d):
            raise ShapeError(f"tokens shape {arr.shape} != expected {(p, p, d)}")
        arr = np.frombuffer(arr.tobytes(), dtype=np.float64).reshape(p, p, d)
        _check_magnitude(arr, "tokens")
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
    of the frame, not the config: ``MemoryEngine`` checks it as it takes the
    frame in.
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
    if not isinstance(config, MemoryConfig):
        raise ConfigError(f"expected MemoryConfig, got {type(config).__name__}")
    c = config
    return (c.n_spa + c.n_ret) * c.p_spa**2 + c.n_tem * c.p_tem**2 + c.n_abs * c.p_abs**2


_HEADER = struct.Struct("<qq8q")


def _header(version: int, timestamp_frame: int, offsets) -> bytes:
    """The bytes the checksum covers ahead of the tokens."""
    return _HEADER.pack(version, timestamp_frame, *chain.from_iterable(offsets))


# CRC-32 joins, after zlib's crc32_combine (madler/zlib, crc32.c). A CRC is a
# polynomial over GF(2), stored reflected: bit 31 is x^0. For byte strings a
# and b, crc32(a + b) == M(crc32(a)) ^ crc32(b), where M multiplies by
# x^(8 * len(b)) modulo the CRC polynomial. M is linear, so four 256-entry
# tables, one per byte of its argument, apply it with four lookups.
_POLY = 0xEDB88320


def _multmodp(a: int, b: int) -> int:
    """a * b modulo the CRC-32 polynomial, both reflected."""
    p = 0
    for bit in range(31, -1, -1):
        if a >> bit & 1:
            p ^= b
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1
    return p


@lru_cache(maxsize=128)
def _shift_tables(nbytes: int) -> tuple:
    """Four 256-entry tables of M for ``nbytes`` bytes, built from the 32
    images of M's basis vectors; table b maps byte b of a CRC."""
    op, square = 1 << 31, 1 << 30  # x^0, and x^1 to be squared up to x^(8 * 2^i)
    for _ in range(3):
        square = _multmodp(square, square)
    while nbytes:
        if nbytes & 1:
            op = _multmodp(square, op)
        nbytes >>= 1
        square = _multmodp(square, square)
    basis = [_multmodp(op, 1 << i) for i in range(32)]
    tables = []
    for b in range(4):
        table = [0] * 256
        for v in range(1, 256):
            low = v & -v
            table[v] = table[v ^ low] ^ basis[8 * b + low.bit_length() - 1]
        tables.append(array("I", table))  # 1 KB, where a list of ints takes 10
    return tuple(tables)


def _crc_join(crc_a: int, crc_b: int, len_b: int) -> int:
    """crc32(a + b) from crc32(a), crc32(b) and len(b), without reading a or b."""
    if not len_b:
        return crc_a
    t0, t1, t2, t3 = _shift_tables(len_b)
    return t0[crc_a & 255] ^ t1[crc_a >> 8 & 255] ^ t2[crc_a >> 16 & 255] ^ t3[crc_a >> 24] ^ crc_b


def _joined(blocks) -> np.ndarray:
    """Read-only row blocks of one width, in order, as one array: the one
    block itself, or a new read-only array of their rows, never cached."""
    if len(blocks) == 1:
        return blocks[0]
    arr = np.concatenate(blocks, out=np.empty((sum(map(len, blocks)), blocks[0].shape[1])))
    arr.setflags(write=False)
    return arr


def _frozen(block) -> np.ndarray:
    """``block`` itself when it is a C-contiguous float64 array that is
    read-only all the way to the array, or the immutable ``bytes``, owning
    its memory; else a read-only C-contiguous float64 copy of the real
    array-like ``block``."""
    if isinstance(block, np.ndarray) and block.dtype == np.float64 and block.flags.c_contiguous:
        owner = block
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if owner is None or isinstance(owner, bytes):
            return block
    _check_real(block, "banks")
    copy = np.array(block, dtype=np.float64, order="C")
    copy.setflags(write=False)
    return copy


@dataclass(frozen=True, eq=False)
class MemorySnapshot:
    """Immutable, versioned sequence of the four banks' tokens.

    ``banks`` maps each BANK_ORDER name to a list or tuple of (n, D) row
    blocks. The token sequence is those blocks in BANK_ORDER and then in list
    order. The snapshot keeps them one for one, in that order, as ``blocks``:
    one tuple of read-only C-contiguous float64 blocks per bank, never joined.
    A block that is read-only all the way to the array, or the immutable
    ``bytes``, owning its memory is shared, and copied once if not; so the
    caller must not make such an owner writable again, and it may publish the
    same block in many snapshots. ``tokens``, the (total, D) sequence, and
    ``bank(name)`` are ``_joined`` on each read and never kept.

    The snapshot derives ``bank_lengths`` (each bank's token count),
    ``bank_offsets`` (each bank's (start, length) in tokens) and the
    checksum. The checksum is CRC-32 over the version, timestamp and offsets
    packed as ``<qq8q`` and then the token bytes; readers check it with
    ``verify_checksum`` to detect a torn publication (there should never be
    one). It is joined from one CRC per block, and a block that also appears
    in ``previous``, a snapshot whose blocks are read-only too, keeps the CRC
    computed there. Building one raises ValueError listing BANK_ORDER for a
    missing or unknown bank name, ValueError for a complex block, and
    ShapeError for a block that is not 2-D, blocks of different widths or
    none at all, or a version or timestamp that is not a count the checksum
    header can hold.
    """

    version: int
    timestamp_frame: int
    banks: InitVar[Mapping]  # BANK_ORDER name -> (n, D) row blocks
    previous: InitVar[MemorySnapshot | None] = None  # whose block CRCs to reuse
    blocks: tuple = field(init=False, repr=False)  # per bank, its read-only blocks
    bank_lengths: tuple = field(init=False)  # token count per bank, in BANK_ORDER
    bank_offsets: tuple = field(init=False)  # (start, length) per bank
    checksum: int = field(init=False)  # computed from the fields above
    _block_crcs: dict = field(init=False, repr=False)  # id(block) -> its CRC-32

    def __post_init__(self, banks: Mapping, previous: MemorySnapshot | None) -> None:
        for name in ("version", "timestamp_frame"):
            value = getattr(self, name)
            if not (_is_int_at_least(value, 0) and value < 1 << 63):  # a "<q" header field
                raise ShapeError(f"{name} must be an integer in [0, 2**63), got {value!r}")
        if not (isinstance(banks, Mapping) and set(banks) == set(BANK_ORDER)):
            got = list(banks) if isinstance(banks, Mapping) else type(banks).__name__
            raise ValueError(f"banks must map exactly the names {BANK_ORDER}, got {got}")
        if not all(isinstance(banks[name], (list, tuple)) for name in BANK_ORDER):
            raise ShapeError("each bank must be a list or tuple of (n, D) row blocks")
        if not (previous is None or isinstance(previous, MemorySnapshot)):
            raise ValueError(f"previous must be a MemorySnapshot or None, got {previous!r}")
        # An object whose id is a key of ``known`` is a block of ``previous``,
        # which keeps it alive: it is frozen, and its CRC there is its CRC.
        known = {} if previous is None else previous._block_crcs
        blocks = tuple([
            tuple([m if id(m) in known else _frozen(m) for m in banks[name]])
            for name in BANK_ORDER
        ])
        rows = [m for bank in blocks for m in bank]
        if len({m.shape[1:] for m in rows}) != 1 or rows[0].ndim != 2:
            raise ShapeError(
                "snapshot row blocks must be 2-D (n, D) and share one width D, got shapes "
                f"{[m.shape for m in rows]}"
            )
        lengths = tuple([sum(map(len, bank)) for bank in blocks])
        offsets = tuple(zip(accumulate(lengths[:-1], initial=0), lengths))
        crcs = {}  # id(block) -> CRC-32 of the block
        checksum = zlib.crc32(_header(self.version, self.timestamp_frame, offsets))
        for bank in blocks:
            for m in bank:
                key = id(m)
                crc = crcs.get(key)
                if crc is None:
                    crc = known.get(key)
                    crcs[key] = crc = zlib.crc32(m) if crc is None else crc
                checksum = _crc_join(checksum, crc, m.nbytes)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "bank_lengths", lengths)
        object.__setattr__(self, "bank_offsets", offsets)
        object.__setattr__(self, "checksum", checksum)
        object.__setattr__(self, "_block_crcs", crcs)

    @property
    def tokens(self) -> np.ndarray:
        """Every block in order as one read-only (total, D) array."""
        return _joined([m for bank in self.blocks for m in bank])

    @property
    def token_count(self) -> int:
        return sum(self.bank_lengths)

    def bank(self, name: str) -> np.ndarray:
        """Token rows of one bank, by name from BANK_ORDER, read-only."""
        if name not in BANK_ORDER:
            raise ValueError(f"bank name must be one of {BANK_ORDER}, got {name!r}")
        bank = self.blocks[BANK_ORDER.index(name)]
        # An empty bank reads as no rows of another bank's block, for the width.
        return _joined(bank or [next(m for b in self.blocks for m in b)[:0]])

    def verify_checksum(self) -> bool:
        """Recompute the checksum from every block's bytes: a full read that
        shares nothing with the CRCs the snapshot was built from."""
        crc = zlib.crc32(_header(self.version, self.timestamp_frame, self.bank_offsets))
        for bank in self.blocks:
            for m in bank:
                crc = zlib.crc32(m, crc)
        return crc == self.checksum
