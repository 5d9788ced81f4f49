"""Single-writer memory engine with wait-free versioned snapshot reads.

Write path per frame, in order, each step seeing the previous step's output
for the same frame: pooling to each bank's grid, temporal clustering,
abstract attention, FIFO buffer write, key-frame retrieval. After all five
the writer publishes a fresh immutable snapshot by swapping one reference,
so readers never observe a half-written state and never block the writer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams, abstract_update
from .clustering import ClusterState, temporal_update
from .model import (
    BANK_ORDER,
    ConcurrentWriteError,
    FrameFeature,
    MemoryConfig,
    MemorySnapshot,
    ShapeError,
    _is_int_at_least,
    default_config,
    validate_config,
)
from .pooling import average_pool
from .retrieval import retrieve_key_features

__all__ = ["MemoryEngine", "QueryResult"]


@dataclass(frozen=True)
class QueryResult:
    """A timestamped read: the newest retained snapshot at or before the
    requested frame. ``stale`` flags that no retained version was old enough
    and the current snapshot was substituted."""

    question_id: str
    snapshot: MemorySnapshot
    stale: bool


def _empty_snapshot(dim: int) -> MemorySnapshot:
    return MemorySnapshot(
        version=0,
        timestamp_frame=0,
        tokens=np.zeros((0, dim)),
        bank_lengths=(0, 0, 0, 0),
    )


class MemoryEngine:
    """Bounded-budget streaming memory over frame features.

    Exactly one writer may call ingest_frame at a time; a second writer that
    enters while the first is inside gets ConcurrentWriteError. Any number of
    threads may call read_snapshot / query_at concurrently at any time. Reads
    cost O(1) in the number of frames ever ingested: they return the
    already-built snapshot.
    """

    def __init__(
        self,
        config: MemoryConfig | None = None,
        params: AttentionParams | None = None,
        *,
        ring_depth: int = 8,
    ):
        if config is None:
            config = default_config()
        # The config is frozen, so this one check holds for every frame.
        validate_config(config)
        if not _is_int_at_least(ring_depth, 1):
            raise ValueError(f"ring_depth must be a positive integer, got {ring_depth!r}")
        if params is None:
            params = AttentionParams.seeded(config.dim, config.rng_seed)
        if params.dim != config.dim:
            raise ShapeError(
                f"attention params dim {params.dim} != config dim {config.dim}"
            )
        self._config = config
        self._params = params
        self._ring_depth = ring_depth
        self._writer = threading.Lock()
        # The feature buffer, as two rings written in the same row: frame t
        # pooled to p_spa, and frame t pooled to p_tem and flattened, which is
        # what retrieval compares. Frame t goes in row (-t) % n_buff, so before
        # the rings fill the valid rows are the tail [n_buff - t:], newest
        # first. Rows are read only after they are written, hence np.empty.
        self._spatial_ring = np.empty((config.n_buff, config.p_spa**2, config.dim))
        self._pooled_ring = np.empty((config.n_buff, config.p_tem**2 * config.dim))
        self._temporal = np.zeros((0, config.p_tem, config.p_tem, config.dim))
        self._temporal_weights = np.zeros(0)
        self._abstract = np.zeros((config.n_abs, config.p_abs, config.p_abs, config.dim))
        self._last_cluster_state: ClusterState | None = None
        # Retained snapshots, oldest first; the last is the latest. The writer
        # swaps in a whole new tuple, so one read of it is consistent.
        self._published = (_empty_snapshot(config.dim),)

    @property
    def config(self) -> MemoryConfig:
        return self._config

    @property
    def params(self) -> AttentionParams:
        return self._params

    @property
    def frames_ingested(self) -> int:
        return self._published[-1].timestamp_frame

    @property
    def last_cluster_state(self) -> ClusterState | None:
        """Diagnostics from the most recent clustering run, if any ran."""
        return self._last_cluster_state

    @property
    def temporal_weights(self) -> np.ndarray:
        """Copy of the temporal cluster weights (writer-side view)."""
        return self._temporal_weights.copy()

    # -- write path -----------------------------------------------------------

    def ingest_frame(self, feature: FrameFeature) -> int:
        """Fold one frame into all four banks and publish a new version.

        Returns the committed version number. Invalid frames raise before any
        state changes; the previously published snapshot stays readable.
        """
        if not self._writer.acquire(blocking=False):
            raise ConcurrentWriteError(
                "ingest_frame entered while another writer is inside it"
            )
        try:
            return self._ingest(feature)
        finally:
            self._writer.release()

    def _ingest(self, feature: FrameFeature) -> int:
        if not isinstance(feature, FrameFeature):
            raise ShapeError(f"expected FrameFeature, got {type(feature).__name__}")
        cfg = self._config
        if feature.dim != cfg.dim:
            raise ShapeError(f"frame dim {feature.dim} != config dim {cfg.dim}")

        # Everything that can reject the frame runs before the first ring
        # write: pooling raises ShapeError for a grid some bank cannot pool
        # exactly. That write goes to the row of the oldest buffered frame,
        # which this frame evicts in any case.
        spa_frame = average_pool(feature.tokens, cfg.p_spa)
        tem_frame = average_pool(feature.tokens, cfg.p_tem)
        abs_frame = average_pool(feature.tokens, cfg.p_abs)
        new_temporal, new_weights, cluster_state = temporal_update(
            self._temporal, self._temporal_weights, tem_frame, cfg
        )
        new_abstract = abstract_update(self._abstract, abs_frame, self._params, cfg)

        latest = self._published[-1]
        n = cfg.n_buff
        t = latest.timestamp_frame + 1
        slot = -t % n
        self._spatial_ring[slot] = spa_frame.reshape(-1, cfg.dim)
        self._pooled_ring[slot] = tem_frame.reshape(-1)

        # Retrieval sees the new frame and this frame's refreshed clusters.
        first = n - min(t, n)  # first valid row
        picks = retrieve_key_features(
            self._pooled_ring[first:], new_temporal, new_weights, cfg, newest=slot - first
        )

        # Snapshot tokens are copies: later ring writes never reach them.
        rows = self._spatial_ring
        banks = (
            [rows[(slot + i) % n] for i in range(min(cfg.n_spa, t))],
            [new_temporal.reshape(-1, cfg.dim)],
            [new_abstract.reshape(-1, cfg.dim)],
            [rows[first + i] for i in picks],
        )
        version = latest.version + 1
        snapshot = MemorySnapshot(
            version=version,
            timestamp_frame=t,
            tokens=np.concatenate([m for bank in banks for m in bank]),
            bank_lengths=[sum(m.shape[0] for m in bank) for bank in banks],
        )

        self._temporal = new_temporal
        self._temporal_weights = new_weights
        self._abstract = new_abstract
        self._last_cluster_state = cluster_state
        # Swapping the one reference is the commit point.
        self._published = (self._published + (snapshot,))[-self._ring_depth :]
        return version

    # -- read path ------------------------------------------------------------

    def read_snapshot(self) -> MemorySnapshot:
        """Latest committed snapshot; wait-free, cost independent of history."""
        return self._published[-1]

    def query_at(self, question_id: str, frame_timestamp: int) -> QueryResult:
        """Newest retained snapshot with timestamp_frame <= frame_timestamp.

        The engine retains a short ring of recent versions. A timestamp older
        than everything retained yields the current snapshot with stale=True.
        """
        published = self._published  # one read: a consistent set of versions
        for snapshot in reversed(published):
            if snapshot.timestamp_frame <= frame_timestamp:
                return QueryResult(question_id, snapshot, stale=False)
        return QueryResult(question_id, published[-1], stale=True)

    # -- accounting -----------------------------------------------------------

    def bank_token_counts(self) -> dict[str, int]:
        return dict(zip(BANK_ORDER, self._published[-1].bank_lengths))

    def resident_token_count(self) -> int:
        """Snapshot tokens plus the buffered rows of the p_spa ring (the p_tem
        ring is not counted); constant in stream length once the buffer fills."""
        latest = self._published[-1]
        buffered = min(latest.timestamp_frame, self._config.n_buff)
        return latest.token_count + buffered * self._config.p_spa**2
