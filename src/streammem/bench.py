"""Desk-scale measurement harness: flat-latency check, budget sweeps, PCA export.

A "read" here fetches the current memory tokens and verifies their checksum,
so every read does work proportional to the token count it returns. For the
engine that count is capped by the budget, so read cost stays flat as frames
stream past; the keep-all baseline concatenates everything it stored, so its
reads and token counts grow linearly. The contrast is the point of the bench.
"""

from __future__ import annotations

import csv
import io
import itertools
import statistics
import time
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .engine import MemoryEngine
from .model import (
    BANK_ORDER,
    ConfigError,
    FrameFeature,
    MemoryConfig,
    MemorySnapshot,
    ShapeError,
    max_tokens,
)
from .pooling import average_pool
from .streamio import StreamFormatError, synth_stream

__all__ = [
    "BenchRow",
    "BenchReport",
    "SweepCell",
    "SweepReport",
    "PcaExport",
    "bench_latency",
    "sweep_ablation",
    "export_memory_pca",
]


# Scenes of the bench and sweep streams, and the PCA rank cut-off: a second
# eigenvalue at or below _PCA_RANK_TOL * max(first, 1) counts as rank < 2.
_BENCH_SCENES = 4
_SWEEP_SCENES = 3
_PCA_RANK_TOL = 1e-9


def _csv_line(values) -> str:
    """One CSV row ending in '\\n'. csv quotes the characters of its row end, so
    writing with its default '\\r\\n' end quotes a lone '\\r' as well as '\\n'."""
    out = io.StringIO()
    csv.writer(out).writerow(values)
    return out.getvalue()[:-2] + "\n"


def _rss_mb() -> float:
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        return float("nan")


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
        lines = [",".join(f.name for f in fields(BenchRow))]
        for r in self.rows:
            lines.append(
                f"{r.mode},{r.frames},{r.queries},{r.median_read_ms:.6f},"
                f"{r.p95_read_ms:.6f},{r.ingest_fps:.1f},{r.bank_tokens},"
                f"{r.resident_tokens},{r.rss_mb:.1f}"
            )
        return "\n".join(lines) + "\n"


class _KeepAllBaseline:
    """No-compression reference: keeps every pooled frame, reads concatenate all.

    Mirrors the engine's interface shape far enough for the bench loop. Token
    count after t frames is exactly t * p_spa**2, i.e. linear growth.
    """

    def __init__(self, config: MemoryConfig):
        self._config = config
        self._frames: list[np.ndarray] = []

    def ingest_frame(self, feature: FrameFeature) -> int:
        pooled = average_pool(feature.tokens, self._config.p_spa)
        self._frames.append(pooled.reshape(-1, self._config.dim))
        return len(self._frames)

    def read_tokens(self) -> np.ndarray:
        if not self._frames:
            return np.zeros((0, self._config.dim))
        return np.concatenate(self._frames, axis=0)

    def bank_token_count(self) -> int:
        return len(self._frames) * self._config.p_spa**2

    def resident_token_count(self) -> int:
        return self.bank_token_count()


def _timed_engine_read(engine: MemoryEngine) -> float:
    t0 = time.perf_counter()
    snapshot = engine.read_snapshot()
    if not snapshot.verify_checksum():
        raise AssertionError(f"torn snapshot observed at version {snapshot.version}")
    return (time.perf_counter() - t0) * 1000.0


def _timed_baseline_read(baseline: _KeepAllBaseline) -> float:
    t0 = time.perf_counter()
    tokens = baseline.read_tokens()
    zlib.crc32(tokens)  # C-contiguous, as the engine's checksum reads it
    return (time.perf_counter() - t0) * 1000.0


def bench_latency(
    config: MemoryConfig,
    frame_counts=(1000, 10000),
    queries_per_point: int = 32,
    *,
    seed: int = 0,
    keep_all: bool = False,
) -> BenchReport:
    """Ingest a synthetic stream into one sink per frame count, then time reads.

    Each sink stops at its own count. The reads are then timed in
    queries_per_point rounds on the calling thread, one read per count in
    each round, so a change of machine speed during the run hits every count
    alike; the row keeps the median and 95th percentile. ingest_fps is the
    rate of the frames since the previous count. keep_all swaps the engine
    for the no-compression baseline. Timing columns vary run to run; every
    other column is seed-deterministic.
    """
    counts = sorted(set(int(c) for c in frame_counts))
    if not counts or counts[0] < 1:
        raise ValueError(f"frame_counts must be positive, got {frame_counts}")
    if queries_per_point < 1:
        raise ValueError(f"queries_per_point must be >= 1, got {queries_per_point}")

    stream = synth_stream(
        seed, counts[-1], min(_BENCH_SCENES, counts[-1]), config.p_spa, config.dim
    )
    if keep_all:
        sinks = [_KeepAllBaseline(config) for _ in counts]
        timed_read = _timed_baseline_read
        mode = "keep-all"
    else:
        sinks = [MemoryEngine(config) for _ in counts]
        timed_read = _timed_engine_read
        mode = "engine"

    starts = [0] + counts[:-1]
    ingest_s = [0.0] * len(counts)
    rss = [0.0] * len(counts)
    for done, frame in enumerate(stream, start=1):
        for i, sink in enumerate(sinks):
            if done > counts[i]:
                continue
            t0 = time.perf_counter()
            sink.ingest_frame(frame)
            if done > starts[i]:
                ingest_s[i] += time.perf_counter() - t0
            if done == counts[i]:
                rss[i] = _rss_mb()

    read_ms = [[] for _ in counts]
    for q in range(queries_per_point):
        for j in range(len(sinks)):
            i = (q + j) % len(sinks)  # rotate which count reads first
            read_ms[i].append(timed_read(sinks[i]))

    rows = []
    for i, count in enumerate(counts):
        sink = sinks[i]
        if keep_all:
            bank = sink.bank_token_count()
        else:
            bank = sink.read_snapshot().token_count
        segment = count - starts[i]
        rows.append(
            BenchRow(
                mode=mode,
                frames=count,
                queries=queries_per_point,
                median_read_ms=statistics.median(read_ms[i]),
                p95_read_ms=float(np.percentile(read_ms[i], 95)),
                ingest_fps=segment / ingest_s[i] if ingest_s[i] > 0 else float("inf"),
                bank_tokens=bank,
                resident_tokens=sink.resident_token_count(),
                rss_mb=rss[i],
            )
        )
    return BenchReport(rows=tuple(rows))


# -- budget/shape ablation sweep ----------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    overrides: tuple  # sorted (field, value) pairs applied to the base config
    ok: bool
    reason: str  # empty when ok; first violated constraint otherwise
    budget: int  # max_tokens of the cell's config (0 when skipped)
    final_tokens: int  # snapshot tokens after the run (0 when skipped)
    invariants_ok: bool  # budget cap + weight conservation held every frame
    ingest_fps: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple

    def to_csv(self) -> str:
        lines = [_csv_line(f.name for f in fields(SweepCell))]
        for r in self.rows:
            spec = ";".join(f"{k}={v}" for k, v in r.overrides)
            lines.append(_csv_line((
                spec, int(r.ok), r.reason, r.budget, r.final_tokens,
                int(r.invariants_ok), f"{r.ingest_fps:.1f}",
            )))
        return "".join(lines)


def _sweep_invariants_hold(engine: MemoryEngine, budget: int) -> bool:
    """Tokens within budget, and temporal weights summing to the frame count."""
    t = engine.frames_ingested
    weights_sum = float(np.sum(engine.temporal_weights))
    return engine.read_snapshot().token_count <= budget and abs(weights_sum - t) <= 1e-9 * t


def sweep_ablation(
    grid: dict,
    base_config: MemoryConfig,
    *,
    frames: int = 120,
    seed: int = 0,
) -> SweepReport:
    """Run every config in the Cartesian product of the grid's value lists.

    grid maps MemoryConfig field names to candidate values, e.g.
    {"p_tem": [2, 4], "n_tem": [8, 25]}. Cells whose config is invalid or
    whose stream cannot be built are reported as skipped with the reason,
    never raised. Valid cells ingest a short synthetic stream while checking
    the budget cap and weight conservation after every frame.
    """
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    valid_fields = set(MemoryConfig.__dataclass_fields__)
    for key in grid:
        if key not in valid_fields:
            raise ConfigError(f"unknown config field in grid: {key!r}")
    names = sorted(grid)
    rows = []
    for values in itertools.product(*(grid[n] for n in names)):
        overrides = tuple(zip(names, values))
        cfg = replace(base_config, **dict(overrides))
        # synth_stream checks the stream's shape; the engine checks the config
        # when built and each bank's pooling on the first frame (grid p_spa).
        try:
            stream = iter(
                synth_stream(seed, frames, min(_SWEEP_SCENES, frames), cfg.p_spa, cfg.dim)
            )
            engine = MemoryEngine(cfg)
            t0 = time.perf_counter()
            engine.ingest_frame(next(stream))
        except (ConfigError, ShapeError, StreamFormatError) as err:
            rows.append(SweepCell(overrides, False, str(err), 0, 0, False, 0.0))
            continue
        budget = max_tokens(cfg)
        invariants_ok = _sweep_invariants_hold(engine, budget)
        for frame in stream:
            engine.ingest_frame(frame)
            invariants_ok &= _sweep_invariants_hold(engine, budget)
        elapsed = time.perf_counter() - t0
        rows.append(
            SweepCell(
                overrides=overrides,
                ok=True,
                reason="",
                budget=budget,
                final_tokens=engine.read_snapshot().token_count,
                invariants_ok=invariants_ok,
                ingest_fps=frames / elapsed if elapsed > 0 else float("inf"),
            )
        )
    return SweepReport(rows=tuple(rows))


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
        lines = []
        if self.degenerate:
            lines.append("# degenerate_axes=true")
        lines.append("x,y,label,bank")
        for (x, y), label, bank in zip(self.coords, self.labels, self.banks):
            lines.append(f"{float(x)!r},{float(y)!r},{label},{bank}")
        return "\n".join(lines) + "\n"


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
    raw_rows = [f.token_matrix for f in raw_frames]
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
