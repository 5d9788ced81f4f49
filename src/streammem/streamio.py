"""Binary feature-stream format (FVS1) and a deterministic synthetic generator.

FVS1 layout, all little-endian:
    bytes 0-3   magic "FVS1"
    bytes 4-7   grid side P, u32
    bytes 8-11  token dim D, u32
    bytes 12-19 frame count, u64 (0 = unbounded / unknown, e.g. pipes)
    byte  20    dtype tag, u8; 0 (float32) is the only one, and the reader checks it
    then frames back to back, each P*P*D float32 values, row-major.

Files carry float32; the engine works in float64 (converted on read). The
synthetic generator quantizes to float32 before handing frames out, so frames
consumed directly and frames round-tripped through a file are bit-identical.
"""

from __future__ import annotations

import struct
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass, field
from itertools import combinations
from numbers import Real
from pathlib import Path

import numpy as np

from .model import FrameFeature, _is_int_at_least

__all__ = [
    "MAX_FRAME_BYTES",
    "StreamFormatError",
    "StreamHeader",
    "read_header",
    "open_endpoint",
    "open_stream",
    "write_stream",
    "SyntheticStream",
    "synth_stream",
]

MAGIC = b"FVS1"
_HEADER = struct.Struct("<4sIIQB")
DTYPE_F32 = 0
# Largest frame a header may declare (P*P*D*4 bytes): 256 MiB, e.g. P=64 at
# D=16384. The reader asks for one whole frame per read(), so a corrupt header
# must not be able to request more.
MAX_FRAME_BYTES = 1 << 28


class StreamFormatError(ValueError):
    """The byte stream does not follow the FVS1 layout."""


@dataclass(frozen=True)
class StreamHeader:
    """Parsed FVS1 header; frame_count 0 means length unknown up front."""

    grid_side: int
    dim: int
    frame_count: int = 0

    def __post_init__(self) -> None:
        if not (_is_int_at_least(self.grid_side, 1) and _is_int_at_least(self.dim, 1)):
            raise StreamFormatError(
                f"grid_side and dim must be integers >= 1, got ({self.grid_side!r}, {self.dim!r})"
            )
        if self.frame_bytes > MAX_FRAME_BYTES:
            raise StreamFormatError(
                f"frame size {self.frame_bytes} bytes for grid {self.grid_side}, "
                f"dim {self.dim} exceeds the {MAX_FRAME_BYTES}-byte limit"
            )
        if not (_is_int_at_least(self.frame_count, 0) and self.frame_count < 1 << 64):
            raise StreamFormatError(
                f"frame count must be an integer in [0, 2**64), got {self.frame_count!r}"
            )

    @property
    def frame_bytes(self) -> int:
        p, d = int(self.grid_side), int(self.dim)  # Python ints: no numpy wrap
        return p * p * d * 4

    def pack(self) -> bytes:
        return _HEADER.pack(MAGIC, self.grid_side, self.dim, self.frame_count, DTYPE_F32)


@contextmanager
def open_endpoint(target, mode: str):
    """Yield the file for a path, '-' or a file object, in open() mode.

    '-' is stdin or stdout (their .buffer in a binary mode), looked up at call
    time. Use with `with`: on exit it closes the file only if it opened it.
    """
    reading = "r" in mode
    if hasattr(target, "read" if reading else "write"):
        yield target
    elif target == "-":
        std = sys.stdin if reading else sys.stdout
        yield std.buffer if "b" in mode else std
    else:
        with open(Path(target), mode) as f:
            yield f


def read_header(source) -> StreamHeader:
    with open_endpoint(source, "rb") as f:
        raw = f.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise StreamFormatError(
            f"short read: header needs {_HEADER.size} bytes, got {len(raw)}"
        )
    magic, grid, dim, count, tag = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if tag != DTYPE_F32:
        raise StreamFormatError(f"unknown dtype tag {tag}")
    return StreamHeader(grid_side=grid, dim=dim, frame_count=count)


def _header_then_frames(source) -> Iterator[StreamHeader | FrameFeature]:
    with open_endpoint(source, "rb") as f:
        header = read_header(f)
        yield header
        p, d = header.grid_side, header.dim
        per_frame = header.frame_bytes
        offset = _HEADER.size
        produced = 0
        while header.frame_count == 0 or produced < header.frame_count:
            chunk = f.read(per_frame)
            if not chunk and header.frame_count == 0:
                return
            if len(chunk) < per_frame:
                raise StreamFormatError(
                    f"truncated frame at byte offset {offset}: "
                    f"needed {per_frame} bytes, got {len(chunk)}"
                )
            tokens = np.frombuffer(chunk, dtype="<f4").reshape(p, p, d)
            try:
                frame = FrameFeature(grid_size=p, dim=d, tokens=tokens)  # to float64
            except ValueError as exc:
                raise StreamFormatError(
                    f"{exc} in frame starting at byte offset {offset}"
                ) from None
            yield frame
            offset += per_frame
            produced += 1


def open_stream(source) -> tuple[StreamHeader, Iterator[FrameFeature]]:
    """Parse the header now; return it plus a lazy frame iterator.

    source may be a path, '-' for standard input, or a binary file object.
    The iterator owns the file from this call on: a file opened here is
    closed when iteration finishes, fails, or the iterator is dropped.
    """
    frames = _header_then_frames(source)
    return next(frames), frames


def write_stream(
    dest,
    frames: Iterable[FrameFeature],
    *,
    grid_side: int,
    dim: int,
) -> int:
    """Write frames of the given shape as FVS1; returns the number written.

    The frame count is taken from len(frames) when available; otherwise 0 is
    written first and patched in afterwards when dest is seekable (pipes keep
    0 = unbounded).
    """
    known = len(frames) if hasattr(frames, "__len__") else None
    with open_endpoint(dest, "wb") as f:
        header_pos = f.tell() if f.seekable() else None
        f.write(StreamHeader(grid_side, dim, known or 0).pack())
        written = 0
        for frame in frames:
            f.write(_frame_bytes(frame, grid_side, dim))
            written += 1
        if known is None and header_pos is not None:
            end = f.tell()
            f.seek(header_pos)
            f.write(StreamHeader(grid_side, dim, written).pack())
            f.seek(end)
        return written


def _frame_bytes(frame: FrameFeature, grid_side: int, dim: int) -> bytes:
    if frame.grid_size != grid_side or frame.dim != dim:
        raise StreamFormatError(
            f"frame shape ({frame.grid_size}, {frame.dim}) does not match "
            f"header ({grid_side}, {dim})"
        )
    return np.ascontiguousarray(frame.tokens, dtype="<f4").tobytes()


# -- synthetic scene-structured streams ---------------------------------------


@dataclass(frozen=True, eq=False)
class SyntheticStream:
    """Deterministic stream of n_frames across n_scenes contiguous scenes.

    Building one checks every argument and draws the scene anchors: standard
    normal, re-drawn (bounded, deterministic) until every pair of anchors is at
    least 5x farther apart than an upper bound on the distance between two
    frames of the same scene, so scene structure is unambiguous by
    construction. separation_ratio is that least ratio. noise_rel scales
    per-token noise relative to the anchor's RMS value; 0 gives identical
    frames per scene. Each frame is its anchor plus seeded noise, quantized to
    float32. Frame i is reproducible in isolation (frame(i)), so iteration,
    random access, and file round-trips all agree bit-exactly; the stream is
    iterable any number of times and costs O(n_scenes) memory at any length.
    """

    seed: int
    n_frames: int
    n_scenes: int
    grid_side: int
    dim: int
    _: KW_ONLY
    noise_rel: float = 0.05
    anchors: np.ndarray = field(init=False)  # (n_scenes, P, P, D) float64, f32-quantized
    separation_ratio: float = field(init=False)  # min anchor gap / intra-scene bound

    def __post_init__(self) -> None:
        seed, n_frames, n_scenes = self.seed, self.n_frames, self.n_scenes
        grid_side, dim, noise_rel = self.grid_side, self.dim, self.noise_rel
        # len() of the stream is a Py_ssize_t.
        if not (_is_int_at_least(n_frames, 1) and n_frames <= sys.maxsize):
            raise StreamFormatError(f"n_frames must lie in [1, {sys.maxsize}], got {n_frames!r}")
        if not (_is_int_at_least(n_scenes, 1) and n_scenes <= n_frames):
            raise StreamFormatError(
                f"need 1 <= n_scenes <= n_frames, got {n_scenes!r} scenes, {n_frames} frames"
            )
        frame_bytes = StreamHeader(grid_side, dim).frame_bytes
        if n_scenes * frame_bytes > MAX_FRAME_BYTES:
            raise StreamFormatError(
                f"{n_scenes} scene anchors of {frame_bytes} bytes each exceed the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        if not _is_int_at_least(seed, 0):
            raise StreamFormatError(f"seed must be a non-negative integer, got {seed!r}")
        real = isinstance(noise_rel, Real) and not isinstance(noise_rel, bool)
        if not (real and 0 <= noise_rel and np.isfinite(noise_rel)):
            raise StreamFormatError(f"noise_rel must be a finite real >= 0, got {noise_rel!r}")

        n_elems = grid_side * grid_side * dim
        for attempt in range(100):
            rng = np.random.default_rng([seed, 0, attempt])
            anchors = rng.normal(0.0, 1.0, (n_scenes, grid_side, grid_side, dim))
            anchors = anchors.astype(np.float32).astype(np.float64)
            # Two same-scene frames differ by two independent noise draws;
            # bound that distance with a generous ~4-sigma tail on the noise norm.
            worst_rms = max(_rms(a) for a in anchors)
            intra_bound = 2.0 * noise_rel * worst_rms * (np.sqrt(n_elems) + 4.0)
            flat = anchors.reshape(n_scenes, -1)
            # One scene, or no noise, separates perfectly: the ratio is inf.
            # Dividing by a positive constant keeps order under rounding, so
            # the least ratio is the least gap's, and a pair under 5x ends it.
            ratio = np.inf
            pairs = combinations(range(n_scenes), 2) if intra_bound > 0 else ()
            for a, b in pairs:
                ratio = min(ratio, float(np.linalg.norm(flat[a] - flat[b])) / intra_bound)
                if ratio < 5.0:
                    break
            if ratio >= 5.0:
                break
        else:
            raise StreamFormatError(
                f"could not separate {n_scenes} anchors by 5x the intra-scene "
                f"spread at shape ({grid_side}, {grid_side}, {dim}); "
                "increase dim or lower noise_rel"
            )
        anchors.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "separation_ratio", float(ratio))

    def __len__(self) -> int:
        return self.n_frames

    def __iter__(self) -> Iterator[FrameFeature]:
        for i in range(self.n_frames):
            yield self.frame(i)

    def scene_of(self, i: int) -> int:
        """Scene of frame i, i * n_scenes // n_frames: contiguous, near-equal runs."""
        if not (_is_int_at_least(i, 0) and i < self.n_frames):
            raise IndexError(f"frame {i!r} out of range [0, {self.n_frames})")
        return i * self.n_scenes // self.n_frames

    def frame(self, i: int) -> FrameFeature:
        anchor = self.anchors[self.scene_of(i)]
        std = self.noise_rel * _rms(anchor)
        rng = np.random.default_rng([self.seed, 1, i])
        tokens = anchor + rng.normal(0.0, std, anchor.shape) if std > 0 else anchor
        tokens = tokens.astype(np.float32).astype(np.float64)
        return FrameFeature(grid_size=self.grid_side, dim=self.dim, tokens=tokens)


# The name callers build streams by; it is the class, so every stream is checked.
synth_stream = SyntheticStream


def _rms(arr: np.ndarray) -> float:
    return float(np.sqrt(np.mean(arr**2)))
