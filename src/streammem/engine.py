"""Single-writer memory engine with wait-free versioned snapshot reads.

Write path per frame, in order, each step seeing the previous step's output
for the same frame: pooling to each bank's grid, temporal clustering,
abstract attention, FIFO buffer write, key-frame retrieval. After all five
the writer hands each bank's rows by name to ``MemorySnapshot``, which owns
the layout, and publishes the new immutable snapshot by swapping one
reference, so readers never observe a half-written state and never block the
writer.

The rows a snapshot lists are read-only float64 blocks that the engine never
writes again: one per listed buffered frame at p_spa, one per temporal
centroid (one for the whole bank when its rows are under the temporal bank's
64 KB ``_SHARE_BYTES``), and the abstract bank. The snapshot keeps each block
as it is given. A frame replaces the blocks it changes, so consecutive
snapshots share the rest, and each snapshot hashes only its new blocks by
reusing the previous snapshot's CRCs.

The p_spa ring is the one home of each buffered frame's rows. A slot the
latest snapshot lists holds that snapshot's float64 block, so the next
snapshot lists the same object again and reuses its CRC. Any other slot
holds its frame in float32 when that converts back to exactly the same
float64 values, as a frame read from FVS1 at grid p_spa always does, and in
float64 otherwise; at the defaults at dim 1024 that halves the largest
buffer, 150 MiB, when every frame is exact. A float32 slot is converted to
float64 once, when a later snapshot lists it.

Retrieval searches the p_tem ring, a ``retrieval.PooledRing`` that the
engine writes each frame into, as it hands the temporal bank to
``temporal_update``; the ring alone decides when its distance intervals carry
from frame to frame, and its ``write`` resets the written row's. Its slots are
the p_spa ring's, so retrieval's picks are slots of both. A failed frame may
leave its row written, but the frame after it writes the same slot, so the
engine only reverts the temporal bank.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams, abstract_update
from .clustering import ClusterState, TemporalBank, temporal_update
from .model import (
    BANK_ORDER,
    MAX_BUFFER_BYTES,
    ConcurrentWriteError,
    ConfigError,
    FrameFeature,
    MemoryConfig,
    MemorySnapshot,
    ShapeError,
    _is_int_at_least,
    max_tokens,
)
from .pooling import average_pool
from .retrieval import PooledRing, retrieve_key_features

__all__ = ["MemoryEngine", "QueryResult"]


@dataclass(frozen=True)
class QueryResult:
    """A timestamped read: the newest retained snapshot at or before the
    requested frame. ``stale`` flags that no retained version was old enough
    and the current snapshot was substituted."""

    question_id: str
    snapshot: MemorySnapshot
    stale: bool


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
        config: MemoryConfig,
        params: AttentionParams | None = None,
        *,
        ring_depth: int = 8,
    ):
        if not isinstance(config, MemoryConfig):
            raise ConfigError(f"expected MemoryConfig, got {type(config).__name__}")
        if not _is_int_at_least(ring_depth, 1):
            raise ValueError(f"ring_depth must be a positive integer, got {ring_depth!r}")
        retained = int(ring_depth) * max_tokens(config) * config.dim * 8
        if retained > MAX_BUFFER_BYTES:
            raise ValueError(
                f"ring_depth {ring_depth} retains up to {retained} snapshot bytes, "
                f"over the {MAX_BUFFER_BYTES}-byte limit"
            )
        # A one-token update never reads the projections (see
        # attention.abstract_update), so only p_abs > 1 seeds them.
        if params is None and config.p_abs > 1:
            params = AttentionParams.seeded(config.dim)
        if params is not None:
            if not isinstance(params, AttentionParams):
                raise ShapeError(f"expected AttentionParams, got {type(params).__name__}")
            if params.dim != config.dim:
                raise ShapeError(
                    f"attention params dim {params.dim} != config dim {config.dim}"
                )
        self._config = config
        self._params = params
        self._ring_depth = ring_depth
        self._writer = threading.Lock()
        # The feature buffer, as two rings written in the same slot: frame t
        # pooled to p_spa, and frame t pooled to p_tem, which is what
        # retrieval compares. Frame t goes in slot (-t) % n_buff, as
        # ``PooledRing.write`` returns it. The p_spa ring holds one read-only
        # (p_spa**2, D) block per frame, replaced, never written in place. A
        # slot in ``_listed``, the slots the latest snapshot lists, holds that
        # snapshot's float64 block; any other slot holds ``_narrowed``'s copy.
        self._spatial_ring: list = [None] * config.n_buff
        self._listed: set = set()
        self._ring = PooledRing(config)
        # The temporal bank holds centroids in the p_tem ring's row layout and
        # the snapshot blocks that list them; the abstract bank holds the
        # token rows a snapshot lists.
        self._temporal = TemporalBank(config)
        self._abstract = np.zeros((config.n_abs * config.p_abs**2, config.dim))
        # Retained snapshots, oldest first; the last is the latest. The writer
        # swaps in a whole new tuple, so one read of it is consistent.
        no_rows = np.zeros((0, config.dim))
        no_rows.setflags(write=False)  # so the four banks share it
        empty = MemorySnapshot(
            version=0, timestamp_frame=0, banks=dict.fromkeys(BANK_ORDER, [no_rows])
        )
        self._published = (empty,)

    @property
    def config(self) -> MemoryConfig:
        return self._config

    @property
    def frames_ingested(self) -> int:
        return self._published[-1].timestamp_frame

    @property
    def last_cluster_state(self) -> ClusterState | None:
        """Diagnostics from the most recent clustering run, if any ran."""
        return self._temporal.state

    @property
    def temporal_weights(self) -> np.ndarray:
        """Copy of the temporal cluster weights (writer-side view)."""
        return self._temporal.weights.copy()

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
        for p in (cfg.p_spa, cfg.p_tem, cfg.p_abs):
            if feature.grid_size % p:
                raise ShapeError(
                    f"pooling not exact: bank grid {p} does not divide frame grid "
                    f"{feature.grid_size}"
                )

        # Everything that can reject the frame runs before the first ring
        # write. That write goes to the row of the oldest buffered frame,
        # which this frame evicts in any case. The temporal bank is written
        # with it, and restored if a later step fails.
        spa_frame = average_pool(feature.tokens, cfg.p_spa)
        tem_row = average_pool(feature.tokens, cfg.p_tem).reshape(-1)
        abs_frame = average_pool(feature.tokens, cfg.p_abs)
        fold = temporal_update(self._temporal, tem_row)
        new_abstract = abstract_update(self._abstract, abs_frame, self._params, cfg)

        latest = self._published[-1]
        n = cfg.n_buff
        t = latest.timestamp_frame + 1
        slot = self._ring.write(t, tem_row)
        # The frame's own tokens, which cannot change, when its grid is p_spa;
        # else the pooled array, which nothing else holds.
        spa_frame.setflags(write=False)
        ring = self._spatial_ring
        ring[slot] = spa_frame.reshape(-1, cfg.dim)
        bank = self._temporal
        bank.apply(fold)
        try:
            # Retrieval sees the new frame and this frame's refreshed clusters.
            retrieved = retrieve_key_features(self._ring, bank.centroids, bank.weights, cfg)
            spatial = [(slot + i) % n for i in range(min(cfg.n_spa, t))]
            # A float64 block per listed slot: the one the ring holds, which
            # for a slot the latest snapshot lists is that snapshot's block,
            # or a copy converted from float32. A slot that leaves the listing
            # is narrowed. Both allocate; the ring is written at the commit.
            listed = {s: _widened(ring[s]) for s in spatial + retrieved}
            unlisted = {s: _narrowed(ring[s]) for s in self._listed.difference(listed)}
            new_abstract.setflags(write=False)
            version = latest.version + 1
            snapshot = MemorySnapshot(
                version=version,
                timestamp_frame=t,
                banks={
                    "spatial": [listed[s] for s in spatial],
                    "temporal": bank.blocks,
                    "abstract": [new_abstract],
                    "retrieved": [listed[s] for s in retrieved],
                },
                previous=latest,
            )
        except BaseException:
            bank.revert()
            raise

        self._abstract = new_abstract
        for s, block in (unlisted | listed).items():
            ring[s] = block
        self._listed = set(listed)
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
        frame_timestamp must be a non-negative integer.
        """
        if not _is_int_at_least(frame_timestamp, 0):
            raise ValueError(
                f"frame_timestamp must be a non-negative integer, got {frame_timestamp!r}"
            )
        published = self._published  # one read: a consistent set of versions
        for snapshot in reversed(published):
            if snapshot.timestamp_frame <= frame_timestamp:
                return QueryResult(question_id, snapshot, stale=False)
        return QueryResult(question_id, published[-1], stale=True)

    # -- accounting -----------------------------------------------------------

    def resident_token_count(self) -> int:
        """Snapshot tokens plus the buffered rows of the p_spa ring (the p_tem
        ring is not counted); constant in stream length once the buffer fills."""
        latest = self._published[-1]
        buffered = min(latest.timestamp_frame, self._config.n_buff)
        return latest.token_count + buffered * self._config.p_spa**2


def _narrowed(block: np.ndarray) -> np.ndarray:
    """A read-only float32 copy of ``block`` when it converts back to exactly
    the same values (so the same bytes: the cast keeps a zero's sign), else
    ``block`` itself."""
    narrow = block.astype(np.float32)
    if not np.array_equal(narrow, block):
        return block
    narrow.setflags(write=False)
    return narrow


def _widened(block: np.ndarray) -> np.ndarray:
    """``block`` itself when it is float64, else a new read-only float64 copy."""
    if block.dtype == np.float64:
        return block
    wide = block.astype(np.float64)
    wide.setflags(write=False)
    return wide
