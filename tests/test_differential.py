"""Differential harness: the engine against a twin running the frozen stage copies.

Each stream is ingested twice: once by the package's engine, and once by an
engine whose ``streammem.engine`` stage names (``temporal_update``,
``abstract_update``, ``retrieve_key_features``) and ``MemorySnapshot`` are
patched to the verbatim copies in ``oracles``. After every frame the two must
agree bit for bit on ``frame_record`` (snapshot bytes, offsets, checksum and
version; k-means assignments, centroids and weights; temporal weights) and
on the retrieval picks. The picks are recorded separately because exact
duplicate frames give the same snapshot bytes whichever of them is picked.
Every engine here runs with retrieval's ``_CARRY_BYTES`` at 0, so after
its first two frames the package engine's retrieval reads only the rows its
ring's carried distance bounds cannot rule out, at every width, while the
twin ranks every row. The frozen retrieval takes an array of rows, so the
twin calls it through a wrapper that passes its ring's written rows and
returns the picks as ring slots, as the package's retrieval does. The frozen
``temporal_update`` takes the bank's centroids and weights and returns the
new ones, so the twin calls it through a wrapper that hands them to its
``TemporalBank`` as a fold that replaces the whole bank.

The twin also builds its snapshots with the frozen copy, which concatenates
the banks and takes one CRC-32, so the package's shared blocks and joined
checksum must match it byte for byte. Half the examples set the temporal
bank's ``clustering._SHARE_BYTES`` to 0. By default a temporal row under
64 KB, as at every width here, goes into one block of the whole bank; at 0
the engine lists and reuses the temporal rows one by one. After every frame,
each engine's snapshot must hold its temporal bank's bytes, and after a
frame with a k-means run that run's centroids, which catches a reused
temporal block that the run changed or a row the bank wrote in place
wrongly. The bank's carried
Gram matrix must be within twice ``_distance_bound`` of a fresh ``C @ C.T``,
entry by entry. Separate cases run at dim 512 and p_tem=4, where a temporal
row reaches the real ``_SHARE_BYTES``, and hold a state and a snapshot for 20
frames to show that the bank's in-place writes never reach them. Others run
the carried bounds at dims 512 and 1024 through a 40-frame buffer, filling
and full, on scene changes, duplicates, signed zeros, a reordering of the
heaviest clusters and a failed frame, after which the retry carries the
failed frame's intervals; one more counts through the ring's own counters
that each of its full passes happens, and that the retry after a failed
frame takes none.

The streams aim at the decisions an exact shortcut could get wrong: exact
duplicates, power-of-two patterns and their midpoints (so ties are exact),
constant, one-scene and noise-free streams, tokens at +-MAX_MAGNITUDE, tiny
tokens whose products fall below the normal range, +-0.0 and +-2**-1074
tokens whose means underflow to a signed zero, and rings small enough to
wrap. A second run gives the package engine no params, as the CLI does,
against a twin holding the seeded projections or, at ``p_abs=1``, projections
at +-MAX_MAGNITUDE: the one-token abstract update must not depend on them. Two
more tests count, through module-name patches, the frames on which each exact
shortcut takes its slow way: retrieval's re-rank, and temporal clustering's
fallback from the certified merge to ``weighted_kmeans``.
"""

from __future__ import annotations

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import streammem.clustering as clustering_module
import streammem.engine as engine_module
import streammem.retrieval as retrieval_module
from streammem import AttentionParams, FrameFeature, MemoryEngine, default_config, synth_stream
from streammem.model import MAX_MAGNITUDE
from test_behaviour_trace import frame_record

GRID = 4
STAGES = ("temporal_update", "abstract_update", "retrieve_key_features", "MemorySnapshot")
PACKAGE = {name: getattr(engine_module, name) for name in STAGES}
FROZEN = {name: getattr(oracles, name) for name in STAGES[:-1]}
FROZEN["MemorySnapshot"] = oracles.snapshot


def _frozen_retrieval(ring, *args):
    """The frozen retrieval over the ring's written rows, newest first, with
    its picks given as ring slots."""
    n = len(ring._rows)
    first = n - min(ring._t, n)
    newest = -ring._t % n - first
    return [first + i for i in oracles.retrieve_key_features(ring._rows[first:], *args, newest)]


FROZEN["retrieve_key_features"] = _frozen_retrieval


def _frozen_temporal(bank, pooled_row):
    """The frozen temporal update, as a fold that replaces the whole bank."""
    new = oracles.temporal_update(bank.centroids, bank.weights, pooled_row, bank.config)
    return bank.replacement(*new)


FROZEN["temporal_update"] = _frozen_temporal


def _pool(rng, kind: str, dim: int) -> list[np.ndarray]:
    """A few (GRID, GRID, dim) patterns for the pattern-based stream kinds."""
    shape = (int(rng.integers(1, 4)), GRID, GRID, dim)
    if kind == "duplicates":
        return list(rng.normal(size=shape))
    if kind == "pow2":
        patterns = rng.choice([-1.0, 1.0], shape) * 2.0 ** rng.integers(-2, 3, shape)
        # Midpoints of power-of-two values are exact, so distances tie exactly.
        mids = [(a + b) / 2 for a in patterns for b in patterns]
        return list(patterns) + mids
    if kind == "constant":
        return [np.full(shape[1:], rng.normal())]
    if kind == "tiny":
        # At 2**-1000 every product underflows to zero, so all distances tie;
        # at 2**-530 the products are subnormal and keep only a few bits.
        return list(rng.normal(size=shape) * 2.0 ** rng.choice([-1000, -530], shape))
    if kind == "signed_zero":
        # +-0.0 and +-2**-1074 entries beside a few +-1.0 ones, in 30 frames
        # that seldom repeat: pooled means and merged rows of the tiny entries
        # underflow to -0.0 or +0.0, while the larger ones keep the frames
        # apart, so most frames merge into one centroid and keep the rest.
        shape = (30, *shape[1:])
        tiny = rng.choice([0.0, -0.0, 2.0**-1074, -(2.0**-1074)], shape)
        return list(np.where(rng.random(shape) < 0.1, rng.choice([-1.0, 1.0], shape), tiny))
    assert kind == "extreme"
    return list(MAX_MAGNITUDE * rng.choice([-1.0, 1.0], shape))


def _stream(kind: str, seed: int, n_frames: int, dim: int) -> list[FrameFeature]:
    rng = np.random.default_rng(seed)
    if kind in ("one_scene", "noise_free", "scenes"):
        scenes = 1 if kind == "one_scene" else int(rng.integers(1, min(4, n_frames) + 1))
        noise = 0.0 if kind == "noise_free" else 0.05
        return list(synth_stream(seed, n_frames, scenes, GRID, dim, noise_rel=noise))
    pool = _pool(rng, kind, dim)
    return [FrameFeature.from_array(pool[i]) for i in rng.integers(0, len(pool), n_frames)]


@st.composite
def cases(draw):
    p_spa = draw(st.sampled_from([1, 2, 4]))
    p_tem = draw(st.sampled_from([p for p in (1, 2) if p <= p_spa]))
    n_buff = draw(st.integers(1, 8))
    n_tem = draw(st.integers(1, 6))
    config = default_config(
        dim=draw(st.integers(1, 32)),
        p_spa=p_spa,
        p_tem=p_tem,
        p_abs=draw(st.sampled_from([p for p in (1, 2) if p <= p_tem])),
        n_buff=n_buff,
        n_spa=draw(st.integers(1, n_buff)),
        n_tem=n_tem,
        n_abs=draw(st.integers(1, 3)),
        n_ret=draw(st.integers(1, min(3, n_tem))),
    )
    kind = draw(
        st.sampled_from(
            [
                "duplicates",
                "pow2",
                "constant",
                "extreme",
                "tiny",
                "signed_zero",
                "one_scene",
                "noise_free",
                "scenes",
            ]
        )
    )
    frames = _stream(kind, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 30)), config.dim)
    return config, frames


def _assert_gram_within_bound(bank, t: int) -> None:
    """The bank's Gram matrix against a fresh ``C @ C.T``: each is within
    ``_distance_bound`` of the exact dots, so they differ by at most twice it.
    A filling bank computes its Gram on the frame that fills it."""
    if bank.gram is None:
        assert len(bank.weights) < bank.config.n_tem, f"no Gram at frame {t}"
        return
    rows = bank.centroids
    fresh = rows @ rows.T
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    bound = 2.0 * clustering_module._distance_bound(rows.shape[1], norms[:, None] + norms)
    assert (np.abs(bank.gram - fresh) <= bound).all(), f"Gram off at frame {t}"


class _Injected(Exception):
    """A failure the tests inject into building a frame's snapshot."""


def _run(config, params, frames, stages, share_all=False, fail_at=None) -> tuple[list, list]:
    """Per-frame records and retrieval picks of one engine using ``stages``.
    Retrieval's ``_CARRY_BYTES`` is 0, so the engine's distance bounds carry
    at every width. ``share_all`` sets the temporal bank's
    ``_SHARE_BYTES`` to 0, so the engine lists each temporal row as its own
    block even at these small widths. With ``fail_at`` t, building frame t's
    snapshot fails once, after its retrieval, and the frame is ingested
    again, so the picks hold one more call."""
    picks = []
    share_bytes = 0 if share_all else clustering_module._SHARE_BYTES

    def recording_retrieval(*args, **kwargs):
        got = stages["retrieve_key_features"](*args, **kwargs)
        picks.append(list(got))
        return got

    def snapshot(*args, **kwargs):
        if len(picks) == fail_at:
            raise _Injected
        return stages["MemorySnapshot"](*args, **kwargs)

    with (
        patch.object(engine_module, "temporal_update", stages["temporal_update"]),
        patch.object(engine_module, "abstract_update", stages["abstract_update"]),
        patch.object(engine_module, "retrieve_key_features", recording_retrieval),
        patch.object(engine_module, "MemorySnapshot", snapshot),
        patch.object(retrieval_module, "_CARRY_BYTES", 0),
        patch.object(clustering_module, "_SHARE_BYTES", share_bytes),
    ):
        engine = MemoryEngine(config, params)
        records = []
        for t, frame in enumerate(frames, start=1):
            if t == fail_at:
                with pytest.raises(_Injected):
                    engine.ingest_frame(frame)
            engine.ingest_frame(frame)
            records.append(frame_record(engine))
            # Reused temporal blocks must hold the bank's bytes, -0.0 included.
            bank, temporal = engine._temporal, engine.read_snapshot().bank("temporal")
            assert temporal.tobytes() == bank.centroids.tobytes(), f"frame {t}"
            state = engine.last_cluster_state
            if state is not None:
                assert temporal.tobytes() == state.centroids.tobytes(), f"frame {t}"
            _assert_gram_within_bound(bank, t)
    return records, picks


@settings(max_examples=300, deadline=None)
@given(case=cases(), share_all=st.booleans())
def test_engine_matches_frozen_stages_bit_for_bit(case, share_all):
    config, frames = case
    params = AttentionParams.seeded(config.dim)
    got_records, got_picks = _run(config, params, frames, PACKAGE, share_all)
    want_records, want_picks = _run(config, params, frames, FROZEN)
    assert len(got_picks) == len(want_picks) == len(frames)
    for t, (got, want) in enumerate(zip(got_picks, want_picks), start=1):
        assert got == want, f"retrieval picks differ at frame {t}"
    for t, (got, want) in enumerate(zip(got_records, want_records), start=1):
        assert got == want, f"engine state differs at frame {t}"


@st.composite
def param_cases(draw):
    """A case, the frozen twin's params (seeded, or +-MAX_MAGNITUDE entries so
    the scores are the largest finite ones) and the package engine's: None
    where the engine must seed the same projections or need none."""
    config, frames = draw(cases())
    if draw(st.booleans()):
        return config, frames, AttentionParams.seeded(config.dim), None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.choice([-1.0, 1.0], (2, config.dim, config.dim))
    frozen = AttentionParams(MAX_MAGNITUDE * signs[0], MAX_MAGNITUDE * signs[1])
    return config, frames, frozen, None if config.p_abs == 1 else frozen


@settings(max_examples=150, deadline=None)
@given(case=param_cases())
def test_engine_without_params_matches_frozen_stages_with_projections(case):
    config, frames, frozen_params, package_params = case
    got_records, got_picks = _run(config, package_params, frames, PACKAGE)
    want_records, want_picks = _run(config, frozen_params, frames, FROZEN)
    assert len(got_picks) == len(want_picks) == len(frames)
    for t, (got, want) in enumerate(zip(got_picks, want_picks), start=1):
        assert got == want, f"retrieval picks differ at frame {t}"
    for t, (got, want) in enumerate(zip(got_records, want_records), start=1):
        assert got == want, f"engine state differs at frame {t}"


def test_rerank_fires_on_exact_ties_and_keeps_the_engine_exact():
    """Duplicate frames and power-of-two midpoints tie exactly on the direct
    distance, so retrieval's product cannot settle them and the re-rank runs."""
    calls = []
    rerank = retrieval_module._rerank

    def counting_rerank(points, centroid, rows, start):
        calls.append(rows.size)
        return rerank(points, centroid, rows, start)

    config = default_config(dim=4, p_spa=4, p_tem=2, p_abs=1, n_buff=6, n_spa=2, n_tem=3, n_ret=2)
    params = AttentionParams.seeded(config.dim)
    for kind, seed in (("pow2", 3), ("duplicates", 4)):
        frames = _stream(kind, seed, 30, config.dim)
        before = len(calls)
        with patch.object(retrieval_module, "_rerank", counting_rerank):
            got = _run(config, params, frames, PACKAGE)
        assert len(calls) > before, f"no re-rank on the {kind} stream"
        assert got == _run(config, params, frames, FROZEN)
    assert min(calls) >= 2


def test_merge_path_and_fallback_both_fire_and_keep_the_engine_exact():
    """Repeated frames put exact duplicates in the temporal bank, and
    power-of-two midpoints tie exactly, so the merge certificate fails and
    weighted_kmeans runs; on a noisy scene stream the merge path runs."""
    paths = {"merge": 0, "fallback": 0}
    merge_step = clustering_module._merge_step

    def counting_merge_step(*args):
        got = merge_step(*args)
        paths["fallback" if got is None else "merge"] += 1
        return got

    config = default_config(dim=4, p_spa=4, p_tem=2, p_abs=1, n_buff=6, n_spa=2, n_tem=3, n_ret=2)
    params = AttentionParams.seeded(config.dim)
    for kind, seed, fires in (
        ("duplicates", 4, "fallback"),
        ("pow2", 3, "fallback"),
        ("constant", 5, "fallback"),
        ("scenes", 6, "merge"),
    ):
        frames = _stream(kind, seed, 30, config.dim)
        before = dict(paths)
        with patch.object(clustering_module, "_merge_step", counting_merge_step):
            got = _run(config, params, frames, PACKAGE)
        assert paths[fires] > before[fires], f"no {fires} frame on the {kind} stream"
        assert got == _run(config, params, frames, FROZEN)


# At dim 512 and p_tem=4 a temporal row is 16 * 512 * 8 bytes, 64 KB: the
# temporal bank's real ``_SHARE_BYTES``, so the engine lists, writes and
# reuses the temporal rows one by one with nothing patched.
WIDE = default_config(
    dim=512, p_spa=4, p_tem=4, p_abs=1, n_buff=3, n_spa=1, n_tem=4, n_abs=1, n_ret=2
)


@pytest.mark.parametrize(
    "kind, seed, fires",
    [("scenes", 6, "merge"), ("signed_zero", 7, "merge"), ("duplicates", 4, "fallback")],
)
def test_engine_matches_frozen_stages_at_the_real_share_size(kind, seed, fires):
    assert WIDE.p_tem**2 * WIDE.dim * 8 == clustering_module._SHARE_BYTES
    paths = {"merge": 0, "fallback": 0}
    merge_step = clustering_module._merge_step

    def counting_merge_step(*args):
        got = merge_step(*args)
        paths["fallback" if got is None else "merge"] += 1
        return got

    frames = _stream(kind, seed, WIDE.n_tem + 30, WIDE.dim)
    params = AttentionParams.seeded(WIDE.dim)
    with patch.object(clustering_module, "_merge_step", counting_merge_step):
        got = _run(WIDE, params, frames, PACKAGE)
    assert paths[fires], f"no {fires} frame on the {kind} stream"
    assert got == _run(WIDE, params, frames, FROZEN)


def _held_bytes(state, snap, centroids: bytes) -> tuple:
    arrays = (state.weights, state.assignments, snap.tokens)
    return (centroids, *(arr.tobytes() for arr in arrays), snap.checksum)


@pytest.mark.parametrize("config", [replace(WIDE, dim=16), WIDE], ids=["whole_bank", "per_row"])
def test_held_states_and_snapshots_keep_their_bytes(config):
    # The bank writes rows in place, and rewrites rows holding a -0.0 as
    # c + 0.0, which the signed_zero stream makes it do; none of that may
    # reach a state or snapshot published before. Half the states build
    # their centroids when published and half only 20 frames later.
    frames = _stream("signed_zero", 8, config.n_tem + 60, config.dim)
    engine = MemoryEngine(config)
    merge_step, merged_into = clustering_module._merge_step, []

    def recording_merge_step(*args):
        got = merge_step(*args)
        merged_into.append(None if got is None else got[0])
        return got

    held, rewrites = [], 0
    for t, frame in enumerate(frames, start=1):
        signed_zero = engine._temporal._fold.signed_zero
        merged_into.clear()
        with patch.object(clustering_module, "_merge_step", recording_merge_step):
            engine.ingest_frame(frame)
        if merged_into and merged_into[-1] is not None:
            rewrites += bool(signed_zero - {merged_into[-1]})
        state, snap = engine.last_cluster_state, engine.read_snapshot()
        if state is None:
            continue
        centroids = b"".join(block.tobytes() for block in state.blocks)
        if t % 2:
            assert state.centroids.tobytes() == centroids
        held.append((t, state, snap, _held_bytes(state, snap, centroids)))
        for t0, state0, snap0, parts0 in held:
            if t - t0 == 20:
                now = _held_bytes(state0, snap0, state0.centroids.tobytes())
                assert now == parts0, f"state or snapshot of frame {t0} changed by frame {t}"
                assert snap0.verify_checksum()
    assert rewrites, "no merge rewrote a row holding a -0.0"
    assert len(held) > 20


# At dims 512 and 1024 a p_tem=4 row is 64 or 128 KB, over retrieval's real
# ``_CARRY_BYTES``, so these cases are what the width rule carries anyway.
# The 40-frame buffer fills and wraps, and the picks are compared with the
# frozen full pass after every frame.
CARRIED = default_config(
    dim=512, p_spa=4, p_tem=4, p_abs=1, n_buff=40, n_spa=2, n_tem=3, n_abs=1, n_ret=2
)


def _reordering(dim: int) -> list[FrameFeature]:
    """Three scenes: one frame each fills the bank, one cluster per scene, and
    then runs of one scene make its cluster outweigh the others in turn. So
    after the buffer fills a cluster enters the top two (at dim 512, frames
    44 and 143) and the top two swap (frames 84, 93 and 149)."""
    stream = synth_stream(3, 3 * 64, 3, GRID, dim)
    runs = [(0, 1), (1, 1), (2, 1), (0, 40), (2, 45), (0, 10), (1, 60)]
    used = [0, 0, 0]
    frames = []
    for scene, count in runs:
        for _ in range(count):
            frames.append(stream.frame(scene * 64 + used[scene] % 64))
            used[scene] += 1
    return frames


def _wide_stream(kind: str, dim: int) -> list[FrameFeature]:
    if kind == "reordering":
        return _reordering(dim)
    if kind == "failed":
        kind = "scenes"
    return _stream(kind, 5, 2 * CARRIED.n_buff, dim)


@pytest.mark.parametrize("kind", ["scenes", "duplicates", "signed_zero", "reordering", "failed"])
@pytest.mark.parametrize("dim", [512, 1024])
def test_carried_retrieval_matches_the_full_pass_on_wide_rows(dim, kind):
    config = replace(CARRIED, dim=dim)
    n = config.n_buff
    assert config.p_tem**2 * dim * 8 >= retrieval_module._CARRY_BYTES
    fail_at = n + 7 if kind == "failed" else None
    frames = _wide_stream(kind, dim)
    calls, fallbacks = [], []
    nearest = retrieval_module.PooledRing._nearest
    merge_step = clustering_module._merge_step

    def recording_nearest(self, centroids, clusters):
        before = self.rows_read
        got = nearest(self, centroids, clusters)
        calls.append((clusters, self.rows_read - before, min(self._t, n)))
        return got

    def counting_merge_step(*args):
        got = merge_step(*args)
        fallbacks.append(got is None)
        return got

    with (
        patch.object(retrieval_module.PooledRing, "_nearest", recording_nearest),
        patch.object(clustering_module, "_merge_step", counting_merge_step),
    ):
        got = _run(config, None, frames, PACKAGE, fail_at=fail_at)
    params = AttentionParams.seeded(dim)  # the frozen update reads them; p_abs=1 does not
    assert got == _run(config, params, frames, FROZEN, fail_at=fail_at)
    # Every retrieval searches the engine's ring, and the first two frames
    # read every row. The carried path runs once the ring is full, and reads
    # fewer rows while it fills too, but in two streams. In reordering the
    # filling frames are one scene, near ties that no interval rules out; in
    # duplicates the rows ruled out sit in gaps short enough to be read with
    # the runs around them (_GAP_BYTES).
    assert len(calls) == len(got[1]) == len(frames) + (fail_at is not None)
    assert [read for _, read, _ in calls[:2]] == [1, 2], calls[:2]
    filling = any(read < rows for _, read, rows in calls[2:n])
    assert filling == (kind not in ("duplicates", "reordering")), calls[:n]
    assert any(read < n for _, read, _ in calls[n + 1 :]), "no frame took the carried path"
    if kind == "duplicates":
        assert any(fallbacks), "no k-means fallback"
    if kind == "failed":
        # calls[fail_at - 1] is the failed frame's, whose intervals carry.
        assert calls[fail_at][1] < n, "the frame after the failed one read every row"
    if kind == "reordering":
        pairs = list(zip(calls[n - 1 :], calls[n:]))
        entries = [(now, read) for (was, _, _), (now, read, _) in pairs if set(now) - set(was)]
        assert entries and all(read == n for _, read in entries)
        assert any(set(was) == set(now) and was != now for (was, _, _), (now, _, _) in pairs)


def test_engine_counts_each_route_through_the_bounds():
    """The ring's counters see the carried path and each full pass: the
    first two frames, and a cluster entering the top n_ret. The frame after a
    failed one carries the failed frame's intervals."""
    config = replace(CARRIED, dim=4, p_spa=2, p_tem=2, n_buff=12)
    n = config.n_buff
    calls, failed = [], []

    def failing_snapshot(*args, **kwargs):
        # Fail once, on the first carried frame a while after the buffer fills.
        if not failed and len(calls) > n + 5 and engine._ring.full_passes == was[1]:
            failed.append(len(calls))
            raise _Injected
        return PACKAGE["MemorySnapshot"](*args, **kwargs)

    with (
        patch.object(retrieval_module, "_CARRY_BYTES", 0),
        patch.object(engine_module, "MemorySnapshot", failing_snapshot),
    ):
        engine = MemoryEngine(config)
        ring = engine._ring
        for frame in _reordering(config.dim):
            while True:  # one call per attempt: the failed frame is ingested again
                was = (ring.rows_read, ring.full_passes, list(ring._clusters))
                try:
                    engine.ingest_frame(frame)
                except _Injected:
                    pass
                read, full = ring.rows_read - was[0], ring.full_passes - was[1]
                calls.append((read, full, was[2], list(ring._clusters)))
                if len(calls) - 1 not in failed:
                    break
    # The first frame takes the plain full pass; the second reads every row
    # and keeps the intervals, which carry while the ring fills too.
    assert [call[:2] for call in calls[:2]] == [(1, 1), (2, 1)]
    assert any(full == 0 for _, full, _, _ in calls[2:n]), "no filling frame carried"
    later = calls[n + 1 :]
    assert any(full == 0 and read < n for read, full, _, _ in later), "no carried frame"
    entries = [full for _, full, was, now in later if set(now) - set(was)]
    assert entries and all(entries), "a cluster entering the top n_ret is a full pass"
    retry = calls[failed[0] + 1] if failed else None
    assert retry and retry[1] == 0 and retry[0] < n, "the retry read every row"
