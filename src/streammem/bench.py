"""Desk-scale measurement harness: flat-latency check and PCA export.

A "read" here verifies the checksum of a snapshot of the sink's memory, so
every read hashes every token the snapshot holds. For the engine that count
is capped by the budget, so read cost stays flat as frames stream past; the
keep-all baseline's snapshot lists every frame it stored, so its reads and
token counts grow linearly. The contrast is the point of the bench.
"""

from __future__ import annotations

import csv
import io
import itertools
import statistics
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .engine import MemoryEngine
from .model import BANK_ORDER, FrameFeature, MemoryConfig, MemorySnapshot, _is_int_at_least
from .pooling import average_pool
from .streamio import synth_stream

__all__ = [
    "BenchRow",
    "BenchReport",
    "PcaExport",
    "bench_latency",
    "export_memory_pca",
]


# Scenes of the bench stream, and the PCA rank cut-off: a second eigenvalue
# at or below _PCA_RANK_TOL * max(first, 1) counts as rank < 2.
_BENCH_SCENES = 4
_PCA_RANK_TOL = 1e-9


def _csv_line(values) -> str:
    """One CSV row ending in '\\n'. csv quotes the characters of its row end, so
    writing with its default '\\r\\n' end quotes a lone '\\r' as well as '\\n'."""
    out = io.StringIO()
    csv.writer(out).writerow(values)
    return out.getvalue()[:-2] + "\n"


def _rss_mb() -> float:
    """Peak resident set in MB: ru_maxrss counts KiB on Linux, bytes on macOS."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except Exception:
        return float("nan")
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


@dataclass(frozen=True)
class BenchRow:
    mode: str  # "engine" or "keep-all"
    frames: int
    queries: int
    median_read_ms: float
    p95_read_ms: float
    ingest_fps: float
    bank_tokens: int
    resident_tokens: int
    rss_mb: float


@dataclass(frozen=True)
class BenchReport:
    """Latency/footprint rows plus the flatness verdict across frame counts."""

    rows: tuple

    def flatness_ratio(self) -> float:
        """max / min median read latency across the engine's frame counts."""
        medians = [r.median_read_ms for r in self.rows if r.mode == "engine"]
        if not medians or min(medians) <= 0:
            return float("nan")
        return max(medians) / min(medians)

    def to_csv(self) -> str:
        lines = [_csv_line(f.name for f in fields(BenchRow))]
        for r in self.rows:
            lines.append(_csv_line((
                r.mode, r.frames, r.queries, f"{r.median_read_ms:.6f}",
                f"{r.p95_read_ms:.6f}", f"{r.ingest_fps:.1f}", r.bank_tokens,
                r.resident_tokens, f"{r.rss_mb:.1f}",
            )))
        return "".join(lines)


class _KeepAllBaseline:
    """No-compression reference: keeps every pooled frame.

    Mirrors the engine's interface far enough for the bench loop; its
    snapshot's spatial bank lists every frame kept, the other banks are
    empty. Token count after t frames is exactly t * p_spa**2, i.e. linear.
    """

    def __init__(self, config: MemoryConfig):
        self._config = config
        self._frames: list[np.ndarray] = []

    def ingest_frame(self, feature: FrameFeature) -> int:
        pooled = average_pool(feature.tokens, self._config.p_spa)
        self._frames.append(pooled.reshape(-1, self._config.dim))
        return len(self._frames)

    def read_snapshot(self) -> MemorySnapshot:
        t = len(self._frames)
        banks = {**dict.fromkeys(BANK_ORDER, ()), "spatial": self._frames}
        return MemorySnapshot(version=t, timestamp_frame=t, banks=banks)

    def resident_token_count(self) -> int:
        return len(self._frames) * self._config.p_spa**2


def bench_latency(
    config: MemoryConfig,
    frame_counts,
    queries_per_point: int,
    *,
    seed: int = 0,
    keep_all: bool = False,
) -> BenchReport:
    """Ingest a synthetic stream once into one sink, then time its reads at each count.

    When the sink reaches a frame count, the bench records that count's
    columns and keeps its read: verify_checksum of the snapshot the sink
    gives then (snapshots are immutable). keep_all swaps the engine for the
    no-compression baseline, whose snapshot lists every frame it kept. The
    kept reads are then timed in queries_per_point rounds on the calling
    thread, one read per count in each round, so a change of machine speed
    during the run hits every count alike; the row keeps the median and 95th
    percentile. ingest_fps is the rate of the frames since the previous
    count, and rss_mb the process's peak resident set so far. Timing and
    rss_mb columns vary run to run; the token columns are seed-deterministic.
    """
    counts = list(frame_counts) if isinstance(frame_counts, Iterable) else []
    if not counts or not all(_is_int_at_least(c, 1) for c in counts):
        raise ValueError(
            f"frame_counts must be an iterable of positive integers, got {frame_counts!r}"
        )
    if not _is_int_at_least(queries_per_point, 1):
        raise ValueError(f"queries_per_point must be an integer >= 1, got {queries_per_point!r}")
    counts = sorted(set(counts))

    stream = iter(
        synth_stream(seed, counts[-1], min(_BENCH_SCENES, counts[-1]), config.p_spa, config.dim)
    )
    sink = _KeepAllBaseline(config) if keep_all else MemoryEngine(config)
    columns, reads = [], []
    for previous, count in zip([0] + counts, counts):
        ingest_s = 0.0
        for frame in itertools.islice(stream, count - previous):
            t0 = time.perf_counter()
            sink.ingest_frame(frame)
            ingest_s += time.perf_counter() - t0
        snapshot = sink.read_snapshot()
        reads.append(snapshot.verify_checksum)
        columns.append(dict(
            frames=count,
            ingest_fps=(count - previous) / ingest_s if ingest_s > 0 else float("inf"),
            bank_tokens=snapshot.token_count,
            resident_tokens=sink.resident_token_count(),
            rss_mb=_rss_mb(),
        ))

    read_ms = [[] for _ in counts]
    for q in range(queries_per_point):
        for j in range(len(counts)):
            i = (q + j) % len(counts)  # rotate which count reads first
            t0 = time.perf_counter()
            if not reads[i]():
                raise AssertionError(f"torn snapshot observed at frame {counts[i]}")
            read_ms[i].append((time.perf_counter() - t0) * 1000.0)

    mode = "keep-all" if keep_all else "engine"
    return BenchReport(rows=tuple(
        BenchRow(
            mode=mode,
            queries=queries_per_point,
            median_read_ms=statistics.median(ms),
            p95_read_ms=float(np.percentile(ms, 95)),
            **cols,
        )
        for cols, ms in zip(columns, read_ms)
    ))


# -- 2-D PCA export of memory vs raw tokens ------------------------------------


@dataclass(frozen=True, eq=False)
class PcaExport:
    """Top-2 principal projection of memory tokens and raw tokens together.

    coords[i] pairs with labels[i] ("memory" or "raw") and banks[i] (bank name
    for memory rows, "raw" otherwise). degenerate is set when the combined
    tokens have rank < 2 (second axis carries no variance); coordinates are
    still emitted.
    """

    coords: np.ndarray
    labels: tuple
    banks: tuple
    degenerate: bool

    def to_csv(self) -> str:
        lines = ["# degenerate_axes=true\n"] if self.degenerate else []
        lines.append(_csv_line(("x", "y", "label", "bank")))
        for (x, y), label, bank in zip(self.coords, self.labels, self.banks):
            lines.append(_csv_line((repr(float(x)), repr(float(y)), label, bank)))
        return "".join(lines)


def export_memory_pca(snapshot: MemorySnapshot, raw_frames) -> PcaExport:
    """Project memory tokens and raw-frame tokens onto their shared top-2 PCA.

    raw_frames is an iterable of FrameFeature at any grid. The combined set
    (memory rows first, in bank order) is centered once; principal directions
    come from an eigen-decomposition of its covariance, ordered by decreasing
    eigenvalue, each direction's sign fixed so its largest-magnitude entry is
    positive. Needs at least 3 tokens total.
    """
    mem_tokens = snapshot.tokens
    banks: list[str] = []
    for name, length in zip(BANK_ORDER, snapshot.bank_lengths):
        banks.extend([name] * length)
    raw_rows = [f.tokens.reshape(-1, f.dim) for f in raw_frames]
    raw = (
        np.concatenate(raw_rows, axis=0)
        if raw_rows
        else np.zeros((0, mem_tokens.shape[1]))
    )
    if raw.shape[0] and raw.shape[1] != mem_tokens.shape[1]:
        raise ValueError(
            f"raw token dim {raw.shape[1]} != memory token dim {mem_tokens.shape[1]}"
        )
    combined = np.concatenate([mem_tokens, raw], axis=0)
    n = combined.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 tokens for a 2-D projection, got {n}")
    labels = tuple(["memory"] * mem_tokens.shape[0] + ["raw"] * raw.shape[0])
    banks = tuple(banks + ["raw"] * raw.shape[0])

    centered = combined - combined.mean(axis=0, keepdims=True)
    cov = (centered.T @ centered) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    d = cov.shape[0]
    top = np.zeros((d, 2))
    kept = min(2, d)
    top[:, :kept] = evecs[:, :kept]
    lam = [float(evals[i]) if i < d else 0.0 for i in range(2)]
    for j in range(kept):
        pivot = int(np.argmax(np.abs(top[:, j])))
        if top[pivot, j] < 0:
            top[:, j] = -top[:, j]
    degenerate = d < 2 or lam[1] <= _PCA_RANK_TOL * max(lam[0], 1.0)
    coords = centered @ top
    return PcaExport(coords=coords, labels=labels, banks=banks, degenerate=degenerate)
