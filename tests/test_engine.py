"""Engine write path bookkeeping, snapshot reads, timestamped queries,
error containment, and a light concurrency shake-out."""

import threading
import types
from dataclasses import FrozenInstanceError, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import streammem.clustering as clustering_module
import streammem.engine as engine_module
import streammem.model as model_module
from streammem import (
    BANK_ORDER,
    AttentionParams,
    ConcurrentWriteError,
    ConfigError,
    FrameFeature,
    MemoryEngine,
    ShapeError,
    default_config,
    max_tokens,
    synth_stream,
)
from streammem.model import MAX_BUFFER_BYTES, MAX_MAGNITUDE
from streammem.pooling import average_pool
from test_behaviour_trace import DIGESTS, frame_record

CFG = default_config(dim=6)  # paper-shaped banks, small token dim for speed


def _frame(rng, grid=8, dim=6):
    return FrameFeature.from_array(rng.normal(size=(grid, grid, dim)))


def _engine(**overrides):
    return MemoryEngine(replace(CFG, **overrides) if overrides else CFG)


def test_empty_engine_snapshot():
    engine = _engine()
    snap = engine.read_snapshot()
    assert snap.version == 0
    assert snap.timestamp_frame == 0
    assert snap.token_count == 0
    assert snap.verify_checksum()


def test_token_bookkeeping_through_warmup():
    # with defaults: spatial 64 always; temporal 16t until the bank fills;
    # abstract 25 from the first frame; retrieved 64*min(3, t)
    engine = _engine()
    rng = np.random.default_rng(0)
    expected = {1: 169, 2: 249, 3: 329, 25: 681, 26: 681}
    for t in range(1, 31):
        version = engine.ingest_frame(_frame(rng))
        snap = engine.read_snapshot()
        assert version == t
        assert snap.version == t
        assert snap.timestamp_frame == t
        if t in expected:
            assert snap.token_count == expected[t], f"t={t}"
        if t >= 26:
            assert snap.token_count == 681
        assert snap.token_count <= max_tokens(engine.config)
        counts = dict(zip(BANK_ORDER, snap.bank_lengths))
        assert counts["spatial"] == 64
        assert counts["temporal"] == 16 * min(t, 25)
        assert counts["abstract"] == 25
        assert counts["retrieved"] == 64 * min(3, min(t, 25))
        assert snap.token_count == sum(counts.values())


def test_bank_offsets_and_contents():
    engine = _engine()
    rng = np.random.default_rng(1)
    frames = [_frame(rng) for _ in range(5)]
    for f in frames:
        engine.ingest_frame(f)
    snap = engine.read_snapshot()
    spatial = snap.bank("spatial")
    # spatial bank is the newest buffer entry pooled to p_spa (identity at 8)
    assert np.array_equal(spatial, frames[-1].tokens.reshape(-1, 6))
    assert snap.bank("temporal").shape == (5 * 16, 6)
    assert snap.bank("abstract").shape == (25, 6)
    assert snap.bank("retrieved").shape == (3 * 64, 6)


def test_weight_conservation_and_bank_cap():
    engine = _engine()
    rng = np.random.default_rng(2)
    for t in range(1, 60):
        engine.ingest_frame(_frame(rng))
        w = engine.temporal_weights
        assert w.shape[0] == min(t, 25)
        assert abs(w.sum() - t) < 1e-9
        assert (w >= 1).all() or t < 25  # unit weights during warm-up too


def test_same_frame_twice_versions_and_counts():
    engine = _engine()
    rng = np.random.default_rng(3)
    frame = _frame(rng)
    v1 = engine.ingest_frame(frame)
    snap1 = engine.read_snapshot()
    v2 = engine.ingest_frame(frame)
    snap2 = engine.read_snapshot()
    assert (v1, v2) == (1, 2)
    assert snap1.token_count == 169
    assert snap2.token_count == 249
    # both buffer entries hold the same values; spatial bank unchanged
    assert np.array_equal(snap1.bank("spatial"), snap2.bank("spatial"))
    assert np.array_equal(engine.temporal_weights, np.ones(2))


def test_read_twice_without_commit_is_identical():
    engine = _engine()
    engine.ingest_frame(_frame(np.random.default_rng(4)))
    a = engine.read_snapshot()
    b = engine.read_snapshot()
    assert a is b
    assert a.checksum == b.checksum


def test_query_at_boundary_equals_read_snapshot():
    engine = _engine()
    rng = np.random.default_rng(5)
    for _ in range(4):
        engine.ingest_frame(_frame(rng))
    result = engine.query_at("q", 4)
    assert result.snapshot is engine.read_snapshot()
    assert not result.stale
    assert result.question_id == "q"


def test_query_between_commits_returns_older_version():
    engine = _engine(n_buff=20)
    rng = np.random.default_rng(6)
    for _ in range(12):
        engine.ingest_frame(_frame(rng))
    result = engine.query_at("q", 7)
    assert result.snapshot.version == 7
    assert result.snapshot.timestamp_frame == 7
    assert not result.stale


def test_query_beyond_current_returns_latest():
    engine = _engine()
    rng = np.random.default_rng(7)
    for _ in range(3):
        engine.ingest_frame(_frame(rng))
    result = engine.query_at("q", 1000)
    assert result.snapshot.version == 3
    assert not result.stale


def test_query_older_than_ring_sets_stale_flag():
    engine = _engine()
    rng = np.random.default_rng(8)
    for _ in range(20):
        engine.ingest_frame(_frame(rng))
    # ring depth 8 retains versions 13..20; frame 0 and 5 are long gone
    assert not engine.query_at("a", 13).stale
    assert engine.query_at("a", 13).snapshot.version == 13
    stale = engine.query_at("b", 0)
    assert stale.stale
    assert stale.snapshot.version == 20  # current substituted
    assert engine.query_at("c", 5).stale


def test_query_before_any_frames():
    engine = _engine()
    result = engine.query_at("q", 0)
    assert result.snapshot.version == 0
    assert not result.stale  # the initial empty snapshot is retained


@pytest.mark.parametrize("bad", [1.5, True, "3", -1, None])
def test_query_at_takes_only_a_non_negative_int_timestamp(bad):
    engine = _engine()
    with pytest.raises(ValueError, match="frame_timestamp"):
        engine.query_at("q", bad)
    assert engine.query_at("q", np.int64(0)).snapshot.version == 0


def test_custom_ring_depth():
    engine = MemoryEngine(CFG, ring_depth=3)
    rng = np.random.default_rng(9)
    for _ in range(10):
        engine.ingest_frame(_frame(rng))
    assert engine.query_at("q", 8).snapshot.version == 8
    assert engine.query_at("q", 7).stale
    # Only a positive int, checked at construction: any other depth would
    # fail at the publish slice, after the banks were committed.
    for bad in (0, -1, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="ring_depth"):
            MemoryEngine(CFG, ring_depth=bad)
    numpy_depth = MemoryEngine(CFG, ring_depth=np.int64(2))
    numpy_depth.ingest_frame(_frame(rng))
    assert numpy_depth.frames_ingested == 1


def test_ring_depth_is_bounded_by_the_byte_limit():
    # The retained snapshots at budget take ring_depth * max_tokens * dim * 8
    # bytes; a depth of 10**9 once grew the process by gigabytes.
    cap = MAX_BUFFER_BYTES // (max_tokens(CFG) * CFG.dim * 8)
    MemoryEngine(CFG, ring_depth=cap)
    for bad in (cap + 1, 10**9, np.int64(2**62)):  # numpy ints must not wrap
        with pytest.raises(ValueError, match=f"ring_depth {bad} .* {MAX_BUFFER_BYTES}-byte"):
            MemoryEngine(CFG, ring_depth=bad)
    assert MAX_BUFFER_BYTES // (681 * 1024 * 8) == 3079  # the cap at the default dim


def test_retained_snapshots_survive_a_ring_wrap():
    # Snapshots share the engine's row blocks, so a later frame must replace
    # a ring row or temporal row, never write it. Every snapshot keeps the
    # bytes and checksum it was published with, whether a reader holds it or
    # query_at still reaches it. No caller can scribble on a frame's tokens
    # after the ingest: they refuse to become writable again, which is why
    # the spatial bank may share them.
    # At dim 512 a temporal row is 16 * 512 * 8 bytes, 64 KB: the least for
    # which the temporal bank keeps one block per row. Every bank's blocks
    # are read-only, so the snapshots share them all. Every other frame holds
    # float32 values, which the ring keeps in float32 from the next frame on,
    # so a snapshot lists such a frame's own rows when it is new and a
    # float64 copy made from the ring when retrieval brings it back later.
    config = replace(CFG, dim=512, n_buff=4, n_tem=3, n_ret=2)
    ring_depth = 3
    engine = MemoryEngine(config, ring_depth=ring_depth)
    rng = np.random.default_rng(12)
    published, held = {}, []
    for t in range(1, 2 * (config.n_buff + ring_depth) + 4):
        tokens = rng.normal(size=(8, 8, config.dim))
        frame = FrameFeature.from_array(tokens.astype(np.float32) if t % 2 else tokens)
        engine.ingest_frame(frame)
        snap = engine.read_snapshot()
        joined = b"".join(snap.bank(name).tobytes() for name in BANK_ORDER)
        published[snap.version] = (joined, snap.checksum)
        held.append(snap)
        with pytest.raises(ValueError, match="WRITEABLE"):
            frame.tokens.setflags(write=True)
        # So the snapshot lists the frame's own rows rather than a copy.
        assert np.shares_memory(snap.blocks[BANK_ORDER.index("spatial")][0], frame.tokens)
    reachable = [engine.query_at("q", ts).snapshot for ts in range(t + 1)]
    assert len({s.version for s in reachable}) == ring_depth
    for snap in held + reachable:
        assert (snap.tokens.tobytes(), snap.checksum) == published[snap.version]
        assert snap.verify_checksum()
    # Some held snapshot lists a copy converted back from a float32 slot: a
    # block that views no frame's bytes.
    retrieved = BANK_ORDER.index("retrieved")
    assert any(_owner(m).base is None for snap in held for m in snap.blocks[retrieved])
    # Past the fill, a frame that merges into one centroid leaves the others'
    # blocks shared with the previous snapshot.
    temporal = BANK_ORDER.index("temporal")
    shared = [
        np.shares_memory(a, b) for a, b in zip(held[-2].blocks[temporal], held[-1].blocks[temporal])
    ]
    assert len(shared) == config.n_tem and any(shared)


def _observed(engine):
    snap = engine.read_snapshot()
    state = engine.last_cluster_state
    return (
        snap.tokens.tobytes(),
        snap.bank_offsets,
        snap.checksum,
        engine.temporal_weights.tobytes(),
        None if state is None else state.assignments.tobytes(),
        engine.resident_token_count(),
    )


def test_bad_frames_abort_without_corruption(monkeypatch):
    # n_buff=5: the buffer has wrapped several times before the bad frames,
    # and the twin engine never sees them.
    engine, twin = _engine(n_buff=5), _engine(n_buff=5)
    frames = list(synth_stream(4, 32, 3, 8, 6))
    for frame in frames[:29]:
        engine.ingest_frame(frame)
        twin.ingest_frame(frame)
    before = engine.read_snapshot()
    rng = np.random.default_rng(10)

    with pytest.raises(ShapeError):
        engine.ingest_frame(_frame(rng, dim=5))  # wrong token dim
    with pytest.raises(ShapeError, match="pooling not exact"):
        engine.ingest_frame(_frame(rng, grid=12))  # 8 does not divide 12
    for bad in (np.zeros((8, 8, 6)), np.zeros((8, 8, 6)).tolist()):  # not a FrameFeature
        with pytest.raises(ShapeError, match="expected FrameFeature"):
            engine.ingest_frame(bad)

    # A failure after the buffer write (here: inside retrieval) leaves
    # nothing behind either: that write lands in the row being evicted.
    def failing_retrieval(*args, **kwargs):
        raise MemoryError("injected")

    monkeypatch.setattr(engine_module, "retrieve_key_features", failing_retrieval)
    with pytest.raises(MemoryError):
        engine.ingest_frame(_frame(rng))
    monkeypatch.undo()

    assert engine.read_snapshot() is before
    assert engine.frames_ingested == 29
    for frame in frames[29:]:  # still usable, and bit-identical to the twin
        assert engine.ingest_frame(frame) == twin.ingest_frame(frame)
        assert _observed(engine) == _observed(twin)


def test_last_cluster_state_cannot_write_into_the_temporal_bank():
    # The state's blocks are the ones the snapshot lists and its weights are
    # the bank's, not copies, so every array it exposes must refuse writes.
    engine, twin = _engine(dim=16), _engine(dim=16)
    frames = list(synth_stream(0, 41, 3, 8, 16))
    for frame in frames[:40]:
        engine.ingest_frame(frame)
        twin.ingest_frame(frame)
    state = engine.last_cluster_state
    for arr, value in ((state.centroids, 0.0), (state.weights, 5.0), (state.assignments, 0)):
        with pytest.raises(ValueError):
            arr[...] = value
    assert engine.temporal_weights.sum() == 40
    engine.ingest_frame(frames[40])
    twin.ingest_frame(frames[40])
    assert _observed(engine) == _observed(twin)
    assert engine.temporal_weights.flags.writeable  # a copy, not the bank


def test_frame_tokens_can_never_be_made_writable():
    # The checked tokens live in an immutable bytes object: no route back to
    # writable memory exists, so no NaN can follow the check into the engine.
    rng = np.random.default_rng(16)
    source = rng.normal(size=(8, 8, 6))
    frame = FrameFeature.from_array(source)
    owner, owners = frame.tokens, []
    while isinstance(owner, np.ndarray):
        owners.append(owner)
        owner = owner.base
    assert isinstance(owner, bytes)
    tokens = frame.tokens
    for arr in owners + [tokens.view(), tokens.reshape(-1), np.asarray(tokens), tokens[1:, ::2]]:
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.setflags(write=True)
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = np.nan
    strided = np.lib.stride_tricks.as_strided(tokens, writeable=True)
    assert not strided.flags.writeable
    assert memoryview(tokens).readonly
    assert not np.frombuffer(memoryview(tokens)).flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        strided[0, 0, 0] = np.nan
    with pytest.raises(FrozenInstanceError):
        frame.tokens = np.full_like(source, np.nan)
    engine, twin = _engine(), _engine()
    engine.ingest_frame(frame)
    twin.ingest_frame(FrameFeature.from_array(source))
    assert not np.isnan(engine.read_snapshot().tokens).any()
    assert engine.read_snapshot().tokens.tobytes() == twin.read_snapshot().tokens.tobytes()


def _held_bank(engine) -> tuple:
    """The temporal bank's centroids, weights, Gram, block ids and state, and
    the engine's published snapshot."""
    bank = engine._temporal
    return (
        bank.centroids.tobytes(),
        bank.weights.tobytes(),
        None if bank.gram is None else bank.gram.tobytes(),
        [id(block) for block in bank.blocks],
        bank.state,
        engine.read_snapshot(),
    )


def _failing_retrieval(*args, **kwargs):
    raise MemoryError("injected")


@pytest.mark.parametrize("dim", [16, 512])
def test_rejected_or_failed_frames_leave_the_temporal_bank_untouched(dim, monkeypatch):
    # p_spa=6 pools a 6x6 grid that p_tem=4 cannot; at dim 512 a temporal row
    # is 64 KB, so the bank lists its rows as one block each, and at dim 16
    # as one block of the whole bank.
    config = replace(CFG, dim=dim, p_spa=6, p_tem=4, n_buff=4, n_tem=3, n_ret=2)
    frames = list(synth_stream(5, 14, 2, 12, dim))
    engine, twin = MemoryEngine(config), MemoryEngine(config)
    for frame in frames[:8]:
        engine.ingest_frame(frame)
        twin.ingest_frame(frame)
    bank = engine._temporal
    before = _held_bank(engine)
    assert len(bank.blocks) == (config.n_tem if dim == 512 else 1)
    rng = np.random.default_rng(17)
    with pytest.raises(ShapeError, match="frame dim"):
        engine.ingest_frame(_frame(rng, grid=12, dim=dim + 1))
    assert _held_bank(engine) == before
    with pytest.raises(ShapeError, match="pooling not exact"):
        engine.ingest_frame(_frame(rng, grid=6, dim=dim))
    assert _held_bank(engine) == before

    # The next frame merges; at dim 512 that writes its row into the bank's
    # matrix before retrieval runs, and a failure there writes it back from
    # the blocks. Computing the fold writes nothing.
    row = average_pool(frames[8].tokens, 4).reshape(-1)
    assert clustering_module._merge_step(bank.centroids, bank.weights, bank.gram, row) is not None
    engine_module.temporal_update(bank, row)
    assert _held_bank(engine) == before

    monkeypatch.setattr(engine_module, "retrieve_key_features", _failing_retrieval)
    with pytest.raises(MemoryError):
        engine.ingest_frame(frames[8])
    monkeypatch.undo()
    assert _held_bank(engine) == before
    for frame in frames[8:]:
        engine.ingest_frame(frame)
        twin.ingest_frame(frame)
        assert frame_record(engine) == frame_record(twin)


@pytest.mark.parametrize("dim", [16, 512])
@pytest.mark.parametrize("ingested", [0, 1], ids=["first_frame", "filling_frame"])
def test_a_frame_that_fails_while_the_bank_fills_leaves_it_as_it_was(ingested, dim, monkeypatch):
    # Each frame until the bank holds n_tem rows appends one, before retrieval
    # runs; a failure there takes it back out, down to the empty bank on the
    # first frame. At dim 512 the bank lists one block per row, at dim 16 one
    # block of the whole bank.
    config = replace(CFG, dim=dim, n_buff=4, n_tem=3, n_ret=2)
    frames = list(synth_stream(5, 10, 2, 8, dim))
    engine, twin = MemoryEngine(config), MemoryEngine(config)
    for frame in frames[:ingested]:
        engine.ingest_frame(frame)
        twin.ingest_frame(frame)
    before = _held_bank(engine)
    monkeypatch.setattr(engine_module, "retrieve_key_features", _failing_retrieval)
    with pytest.raises(MemoryError):
        engine.ingest_frame(frames[ingested])
    monkeypatch.undo()
    assert _held_bank(engine) == before
    for frame in frames[ingested:]:
        engine.ingest_frame(frame)
        twin.ingest_frame(frame)
        assert frame_record(engine) == frame_record(twin)


def _owner(block: np.ndarray) -> np.ndarray:
    """The array whose memory ``block`` views."""
    while isinstance(block.base, np.ndarray):
        block = block.base
    return block


@pytest.mark.parametrize("kind", ["scenes", "duplicates"])
def test_snapshot_temporal_blocks_keep_alive_at_most_twice_the_bank(kind):
    # At dim 512 each temporal row is its own 64 KB block, and a snapshot
    # keeps alive all of the array a block views. A filling row's block must
    # own its memory, since a view of the joined bank would keep every
    # filling frame's copy alive. A k-means fallback's rows view its one
    # (k, m) result, which may stay alive beside the rows merged since.
    config = replace(CFG, dim=512, n_buff=4, n_tem=8, n_ret=2)
    frames = list(synth_stream(3, 40, 4, 8, config.dim))
    if kind == "duplicates":
        frames = [frames[0]] * len(frames)
    bank_bytes = config.n_tem * config.p_tem**2 * config.dim * 8
    assert bank_bytes // config.n_tem == clustering_module._SHARE_BYTES
    paths = {"merge": 0, "fallback": 0}
    merge_step = clustering_module._merge_step

    def counting_merge_step(*args):
        got = merge_step(*args)
        paths["fallback" if got is None else "merge"] += 1
        return got

    engine = MemoryEngine(config)
    temporal = BANK_ORDER.index("temporal")
    with patch.object(clustering_module, "_merge_step", counting_merge_step):
        for t, frame in enumerate(frames, start=1):
            engine.ingest_frame(frame)
            blocks = engine.read_snapshot().blocks[temporal]
            owners = {id(owner): owner for owner in map(_owner, blocks)}
            held = sum(owner.nbytes for owner in owners.values())
            assert held <= 2 * bank_bytes, f"frame {t}: {held / bank_bytes:.2f}x the bank"
    if kind == "duplicates":  # every clustered frame ties, so k-means runs
        assert paths == {"merge": 0, "fallback": len(frames) - config.n_tem}
    else:
        assert paths["merge"], paths


def _guard_stream(name: str):
    """(config, 200 token arrays) for one stream of the copy guard below."""
    if name in DIGESTS:
        config, grid = DIGESTS[name]
        return config, (f.tokens for f in synth_stream(7, 200, 4, grid, config.dim))
    rng = np.random.default_rng(5)
    if name == "three_patterns":  # exact repeats, so every merge certificate fails
        patterns = rng.integers(-4, 5, (3, 8, 8, 16)).astype(float)
        return default_config(dim=16), (patterns[t % 3] for t in range(200))
    # +-0.0 and +-2**-1074 tokens beside a few +-1.0 ones, so merges rewrite
    # rows holding a -0.0; at dim 512 the temporal bank keeps a block per row.
    dim = int(name.removeprefix("signed_zero"))

    def frames():
        for _ in range(200):
            tiny = rng.choice([0.0, -0.0, 2.0**-1074, -(2.0**-1074)], (8, 8, dim))
            yield np.where(rng.random(tiny.shape) < 0.1, rng.choice([-1.0, 1.0], tiny.shape), tiny)

    return default_config(dim=dim, n_buff=25), frames()


@pytest.mark.parametrize("name", [*DIGESTS, "three_patterns", "signed_zero16", "signed_zero512"])
def test_the_engine_never_makes_a_snapshot_copy_a_block(name, monkeypatch):
    # Every block the engine lists in a snapshot, and every array the temporal
    # bank freezes, is read-only all the way to its owner already, so
    # ``_frozen`` must hand each back as it is: a copy per frame would cost a
    # block's bytes and a new CRC in every snapshot.
    calls = []

    def returns_its_block(frozen):
        def guarded(block):
            got = frozen(block)
            assert got is block, f"_frozen copied a {block.shape} block"
            calls.append(block)
            return got
        return guarded

    for module in (model_module, clustering_module):
        monkeypatch.setattr(module, "_frozen", returns_its_block(module._frozen))
    paths = {"merge": 0, "fallback": 0}
    merge_step = clustering_module._merge_step

    def counting_merge_step(*args):
        got = merge_step(*args)
        paths["fallback" if got is None else "merge"] += 1
        return got

    monkeypatch.setattr(clustering_module, "_merge_step", counting_merge_step)
    config, frames = _guard_stream(name)
    engine = MemoryEngine(config)
    for tokens in frames:
        engine.ingest_frame(FrameFeature.from_array(tokens))
    assert engine.frames_ingested == 200 and len(calls) >= 200
    if name == "three_patterns":
        assert paths == {"merge": 0, "fallback": 200 - config.n_tem}


def test_re_centring_a_carried_singleton_keeps_every_bit():
    # Every carried centroid is S / w for its weight w, and re-centring it
    # alone computes (w * (S / w)) / w, which rounds back to S / w (the
    # property test below). So a cluster whose one member is a carried
    # centroid keeps that row bit for bit, whatever its weight.
    cfg = default_config(dim=16)
    engine = MemoryEngine(cfg)
    stream = synth_stream(0, 40, 4, 8, 16)
    singletons = heavy = 0
    for i in range(300):
        previous = engine.read_snapshot().bank("temporal").reshape(-1, cfg.p_tem**2 * cfg.dim)
        weights = engine.temporal_weights
        engine.ingest_frame(stream.frame((i % 4) * 10 + (i // 4) % 10))  # scenes in turn
        state = engine.last_cluster_state
        if state is None:  # the bank is still filling
            continue
        members = np.bincount(state.assignments, minlength=cfg.n_tem)
        for j, c in enumerate(state.assignments[:-1]):  # the last point is the new frame
            if members[c] == 1:
                assert state.centroids[c].tobytes() == previous[j].tobytes()
                singletons += 1
                heavy += weights[j] >= 3
    assert singletons and heavy


@settings(max_examples=500, deadline=None)
@given(
    total=st.floats(2.0**-900, 2.0**900) | st.floats(-(2.0**900), -(2.0**-900)),
    weight=st.integers(1, 2**31),
)
def test_re_centring_a_quotient_by_its_weight_is_the_identity(total, weight):
    # q = fl(S / w). fl(w * q) is the float nearest w * q, so at least as near
    # as S is, and fl(w * q) / w lies at least as near q as S / w did: it
    # rounds to q too. Where q is a power of two, w * q is exact.
    w = np.float64(weight)
    q = total / w
    assert (w * q) / w == q


def test_defaults_pool_grid_16_frames():
    # Every default grid (8, 4, 1) divides 16.
    engine = _engine()
    frame = _frame(np.random.default_rng(13), grid=16)
    engine.ingest_frame(frame)
    assert np.array_equal(
        engine.read_snapshot().bank("spatial"), average_pool(frame.tokens, 8).reshape(-1, 6)
    )


@pytest.mark.parametrize(
    "grids, good_grid, bad_grid",
    [
        ((8, 4, 1), 8, 12),  # p_spa does not divide the bad grid
        ((4, 3, 1), 12, 8),  # p_tem does not
        ((3, 3, 2), 6, 3),  # p_abs does not
    ],
    ids=["p_spa", "p_tem", "p_abs"],
)
def test_frame_some_bank_cannot_pool_is_refused_before_any_change(grids, good_grid, bad_grid):
    p_spa, p_tem, p_abs = grids
    cfg = replace(CFG, p_spa=p_spa, p_tem=p_tem, p_abs=p_abs, n_buff=4)
    engine, twin = MemoryEngine(cfg), MemoryEngine(cfg)
    rng = np.random.default_rng(14)
    good = [_frame(rng, grid=good_grid) for _ in range(6)]
    for frame in good[:3]:
        engine.ingest_frame(frame)
        twin.ingest_frame(frame)
    with pytest.raises(ShapeError, match="pooling not exact"):
        engine.ingest_frame(_frame(rng, grid=bad_grid))
    assert engine.frames_ingested == 3
    for frame in good[3:]:
        assert engine.ingest_frame(frame) == twin.ingest_frame(frame)
        assert _observed(engine) == _observed(twin)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        MemoryEngine(default_config(decay_alpha=2.0))
    with pytest.raises(ShapeError, match="dim"):
        MemoryEngine(CFG, AttentionParams.seeded(7))


def test_projections_are_seeded_only_at_p_abs_above_one(monkeypatch):
    rng = np.random.default_rng(8)
    frames = [_frame(rng, dim=4) for _ in range(5)]
    seeded = AttentionParams.seeded
    calls = []

    def counting_seeded(dim):
        calls.append(dim)
        return seeded(dim)

    def refuse(dim):
        raise AssertionError("p_abs=1 must not seed projections")

    # p_abs=1: no seeding, and params passed in are still checked.
    one = default_config(dim=4)
    monkeypatch.setattr(AttentionParams, "seeded", refuse)
    engine = MemoryEngine(one)
    for frame in frames:
        engine.ingest_frame(frame)
    with pytest.raises(ShapeError, match="expected AttentionParams, got SimpleNamespace"):
        MemoryEngine(one, types.SimpleNamespace(dim=4))
    with pytest.raises(ShapeError, match="dim 5 != config dim 4"):
        MemoryEngine(one, seeded(5))

    # p_abs=2: one seeding, the same bytes as the params passed in.
    two = default_config(dim=4, p_abs=2)
    monkeypatch.setattr(AttentionParams, "seeded", counting_seeded)
    engine, twin = MemoryEngine(two), MemoryEngine(two, seeded(4))
    assert calls == [4]
    for frame in frames:
        engine.ingest_frame(frame)
        twin.ingest_frame(frame)
        a, b = engine.read_snapshot(), twin.read_snapshot()
        assert (a.version, a.checksum) == (b.version, b.checksum)
        assert a.tokens.tobytes() == b.tokens.tobytes()
    assert calls == [4]


def test_engine_takes_only_a_memory_config():
    # A look-alike object never went through MemoryConfig's checks.
    look_alike = types.SimpleNamespace(**vars(CFG))
    with pytest.raises(ConfigError, match="expected MemoryConfig, got SimpleNamespace"):
        MemoryEngine(look_alike)


def test_retrieved_entries_live_in_buffer():
    # A long first scene keeps the heaviest cluster on frames that the
    # 4-frame buffer has already evicted; only buffered frames may come back.
    cfg = default_config(dim=4, p_spa=4, p_tem=2, n_buff=4, n_tem=3, n_abs=2, n_ret=2)
    engine = MemoryEngine(cfg)
    history = []  # every frame so far at p_spa, newest first
    for frame in synth_stream(0, 30, 2, 8, 4):  # input grid 8, pooled to 4
        engine.ingest_frame(frame)
        history.insert(0, average_pool(frame.tokens, 4).reshape(16, 4))
        retrieved = engine.read_snapshot().bank("retrieved").reshape(-1, 16, 4)
        assert len(retrieved) == min(2, len(history))
        for block in retrieved:
            assert any(np.array_equal(block, f) for f in history[: cfg.n_buff])


def test_spatial_bank_is_newest_frames_newest_first():
    engine = _engine(n_buff=4, n_spa=3)
    rng = np.random.default_rng(14)
    history = []
    for t in range(1, 12):
        frame = _frame(rng)
        engine.ingest_frame(frame)
        history.insert(0, frame.tokens.reshape(-1, 6))
        assert np.array_equal(
            engine.read_snapshot().bank("spatial"), np.concatenate(history[:3])
        )
        assert engine.read_snapshot().bank_lengths[0] == 64 * min(t, 3)


def test_distance_ties_go_to_newer_frame_after_wrap():
    # a and b pool to the same p_tem token but differ at p_spa (integer
    # tokens keep the means exact). While the temporal bank fills, every
    # centroid is that token, so every buffered frame ties and retrieval must
    # return the newest one, which is also the spatial bank.
    cfg = default_config(dim=2, p_spa=2, p_tem=1, p_abs=1, n_buff=5, n_abs=1, n_ret=1)
    a = np.arange(8.0).reshape(2, 2, 2)
    b = a.copy()
    b[0, 0] += 1.0
    b[0, 1] -= 1.0
    engine = MemoryEngine(cfg)
    for t in range(1, 4 * cfg.n_buff):
        engine.ingest_frame(FrameFeature.from_array(a if t % 2 else b))
        snap = engine.read_snapshot()
        assert np.array_equal(snap.bank("retrieved"), snap.bank("spatial")), t


def test_ring_holds_each_written_row_and_its_squared_norm_after_wrap_and_retry(monkeypatch):
    # Frame 20 fails after its ring write, with another frame's tokens, and
    # is ingested again: the retry's row and norm replace the failed one's.
    cfg = default_config(dim=16, n_buff=7)
    n = cfg.n_buff
    engine = MemoryEngine(cfg)
    frames = list(synth_stream(5, 40, 3, 8, cfg.dim))
    written = {}
    for t, frame in enumerate(frames, start=1):
        if t == 20:
            with monkeypatch.context() as m, pytest.raises(MemoryError):
                m.setattr(engine_module, "retrieve_key_features", _failing_retrieval)
                engine.ingest_frame(frames[0])
            failed = average_pool(frames[0].tokens, cfg.p_tem).reshape(-1)
            assert engine._ring._rows[-t % n].tobytes() == failed.tobytes()
        engine.ingest_frame(frame)
        written[-t % n] = average_pool(frame.tokens, cfg.p_tem).reshape(-1)
        ring = engine._ring
        for slot, row in written.items():
            assert ring._rows[slot].tobytes() == row.tobytes(), (t, slot)
            assert ring._sq_norms[slot].tobytes() == (row @ row).tobytes(), (t, slot)
    assert len(written) == n


_RETRIEVE = engine_module.retrieve_key_features


class _Picks:
    """Retrieval that records each call's picks as ages (frames back from
    the newest), or raises while ``fail`` is set."""

    def __init__(self, n_buff: int):
        self.n_buff, self.ages, self.fail = n_buff, [], False

    def __call__(self, ring, *args):
        if self.fail:
            raise MemoryError("injected")
        picks = _RETRIEVE(ring, *args)
        newest = -ring._t % self.n_buff
        self.ages.append([(i - newest) % self.n_buff for i in picks])
        return picks


def _named_blocks(snap, retrieved_ages, newest: int) -> list:
    """(index of the frame it names, block) for each spatial and retrieved
    block of ``snap``, whose newest frame has index ``newest``."""
    spatial, _, _, retrieved = snap.blocks
    ages = list(range(len(spatial))) + retrieved_ages
    return [(newest - age, block) for age, block in zip(ages, spatial + retrieved)]


def _round_trips(block: np.ndarray) -> bool:
    return block.astype(np.float32).astype(np.float64).tobytes() == block.tobytes()


def _mixed_frames(seed: int, count: int, dim: int) -> list:
    """Frames of float32 values; plain float64 ones; float32 values with a
    2**-1074 or a -0.0 token; and grid 16, random or of integers, whose
    pooled means are seldom and always float32 values."""
    rng = np.random.default_rng(seed)
    frames = []
    for kind in rng.integers(0, 6, count):
        tokens = rng.normal(size=(16 if kind >= 4 else 8,) * 2 + (dim,))
        if kind == 5:
            tokens = rng.integers(-8, 8, tokens.shape).astype(float)
        elif kind != 1:
            tokens = tokens.astype(np.float32).astype(float)
        if kind in (2, 3):
            tokens[kind - 2, 1, 1] = 2.0**-1074 if kind == 2 else -0.0
        frames.append(FrameFeature.from_array(tokens))
    return frames


def _assert_ring_rule(engine, named, refs, t: int) -> set:
    """The p_spa ring after frame ``t``: each slot the snapshot lists holds
    the block it lists (``named``, from ``_named_blocks``), and every other
    buffered slot holds its frame in float32 exactly when that round-trips;
    each is read-only with the bytes of its frame's float64 pooling
    ``refs[i]``. Returns (float32-exact, i) for each unlisted frame i."""
    n, ring = engine.config.n_buff, engine._spatial_ring
    for i, block in named:
        assert ring[-(i + 1) % n] is block, (t, i)
    listed = {i for i, _ in named}
    unlisted = set()
    for s, block in enumerate(ring):
        i = t - (s + t + 1) % n  # the frame in slot s
        if i < 0:
            continue
        assert not block.flags.writeable
        assert block.astype(np.float64).tobytes() == refs[i].tobytes(), (t, s)
        if i not in listed:
            exact = _round_trips(refs[i])
            assert block.dtype == (np.float32 if exact else np.float64), (t, s)
            unlisted.add((exact, i))
    return unlisted


def test_published_spatial_blocks_are_their_frames_pooled_in_float64(monkeypatch):
    # The ring keeps a frame that no snapshot lists in float32 when that is
    # lossless, but every spatial and retrieved block a snapshot lists must
    # be the float64 p_spa pooling of the frame it names, byte for byte, and
    # the block its ring slot holds.
    config = replace(CFG, n_buff=5, n_spa=2, n_tem=3, n_ret=2)
    engine = MemoryEngine(config)
    picks = _Picks(config.n_buff)
    monkeypatch.setattr(engine_module, "retrieve_key_features", picks)
    frames = _mixed_frames(18, 80, config.dim)
    refs = [average_pool(f.tokens, config.p_spa).reshape(-1, config.dim) for f in frames]
    stored, widened, reused, before = set(), 0, 0, set()
    for t, frame in enumerate(frames):
        engine.ingest_frame(frame)
        snap = engine.read_snapshot()
        previous = {id(m) for bank in engine.query_at("q", t).snapshot.blocks for m in bank}
        named = _named_blocks(snap, picks.ages[-1], t)
        for i, block in named:
            assert block.dtype == np.float64 and not block.flags.writeable
            assert block.tobytes() == refs[i].tobytes(), (t, i)
            if i != t and _round_trips(refs[i]):
                # The last snapshot's block when it listed frame i too, else
                # a new copy converted from the float32 slot.
                assert (id(block) in previous) == (i in before), (t, i)
                reused += i in before
                widened += i not in before
        unlisted = _assert_ring_rule(engine, named, refs, t)
        stored |= {(exact, frames[i].grid_size) for exact, i in unlisted}
        before = {i for i, _ in named}
        assert snap.verify_checksum()
    # Both storage paths, also for pooled grid-16 frames, and float32 slots
    # both converted afresh and reused from the last snapshot.
    assert stored == {(True, 8), (False, 8), (True, 16), (False, 16)}
    assert widened and reused


def test_exact_frames_are_stored_in_float32_and_listed_blocks_reused(monkeypatch):
    config = default_config(dim=16, n_buff=6, n_spa=2, n_tem=4, n_ret=3)
    engine = MemoryEngine(config)
    picks = _Picks(config.n_buff)
    monkeypatch.setattr(engine_module, "retrieve_key_features", picks)
    frames = list(synth_stream(3, 40, 3, 8, config.dim))
    refs = [f.tokens.reshape(-1, config.dim) for f in frames]
    before = {}
    for t, frame in enumerate(frames):
        engine.ingest_frame(frame)
        named = _named_blocks(engine.read_snapshot(), picks.ages[-1], t)
        for i, block in named:
            if i in before:
                assert block is before[i], (t, i)
        before = dict(named)
        assert all(exact for exact, _ in _assert_ring_rule(engine, named, refs, t))
    # Every block in float32 but the listed frames', which are the float64
    # blocks their snapshot lists.
    ring_bytes = sum(block.nbytes for block in engine._spatial_ring)
    assert ring_bytes == (config.n_buff + len(before)) * config.p_spa**2 * config.dim * 4


def test_a_failed_frame_in_a_listed_slot_leaves_later_snapshots_unchanged(monkeypatch):
    # The frame writes the slot of the oldest buffered frame before retrieval
    # fails. When the last snapshot lists that frame, its slot holds the
    # listed block, so the next frames must still publish what an engine that
    # never saw the failed frame publishes, and the ring keeps its rule.
    config = replace(CFG, n_buff=4, n_spa=1, n_tem=3, n_ret=2)
    engine, twin, n = MemoryEngine(config), MemoryEngine(config), config.n_buff
    picks = _Picks(n)
    monkeypatch.setattr(engine_module, "retrieve_key_features", picks)
    frames = _mixed_frames(19, 60, config.dim)
    refs = [average_pool(f.tokens, config.p_spa).reshape(-1, config.dim) for f in frames]
    rng, failures = np.random.default_rng(20), 0
    for t, frame in enumerate(frames):
        twin.ingest_frame(frame)
        engine.ingest_frame(frame)
        assert frame_record(engine) == frame_record(twin)
        named = _named_blocks(engine.read_snapshot(), picks.ages[-1], t)
        _assert_ring_rule(engine, named, refs, t)
        if t + 1 - n in {i for i, _ in named}:  # the oldest frame is listed
            picks.fail = True
            with pytest.raises(MemoryError):
                engine.ingest_frame(_mixed_frames(int(rng.integers(1 << 30)), 1, config.dim)[0])
            picks.fail = False
            failures += 1
    assert failures >= 3


def test_second_writer_is_refused(monkeypatch):
    engine = _engine()
    rng = np.random.default_rng(15)
    first, second = _frame(rng), _frame(rng)
    entered, release = threading.Event(), threading.Event()
    original = engine_module.temporal_update

    def blocking_update(*args):
        entered.set()
        release.wait(timeout=30)
        return original(*args)

    monkeypatch.setattr(engine_module, "temporal_update", blocking_update)
    outcome = {}

    def write(name, frame):
        try:
            outcome[name] = engine.ingest_frame(frame)
        except ConcurrentWriteError as exc:
            outcome[name] = exc

    writer = threading.Thread(target=write, args=("first", first))
    intruder = threading.Thread(target=write, args=("second", second))
    writer.start()
    try:
        assert entered.wait(timeout=30)
        intruder.start()
        intruder.join(timeout=30)
    finally:
        release.set()
        writer.join(timeout=30)
    assert not writer.is_alive() and not intruder.is_alive()
    assert isinstance(outcome["second"], ConcurrentWriteError)
    assert outcome["first"] == 1
    snap = engine.read_snapshot()
    assert snap.version == 1
    assert np.array_equal(snap.bank("spatial"), first.tokens.reshape(-1, 6))
    monkeypatch.undo()
    assert engine.ingest_frame(second) == 2  # the writer slot was released


def test_each_bank_pools_from_the_input_grid():
    # p_tem=3 divides the input grid 12 but not p_spa=4: every bank must pool
    # from the frame itself, never from another bank's grid.
    cfg = default_config(dim=8, p_spa=4, p_tem=3, n_buff=10)
    engine = MemoryEngine(cfg)
    for frame in synth_stream(0, 40, 4, 12, 8):
        engine.ingest_frame(frame)
    snap = engine.read_snapshot()
    assert dict(zip(BANK_ORDER, snap.bank_lengths)) == {
        "spatial": 16, "temporal": 225, "abstract": 25, "retrieved": 48,
    }
    assert snap.verify_checksum()


def test_resident_tokens_constant_once_buffer_full():
    engine = _engine(n_buff=15)
    rng = np.random.default_rng(12)
    sizes = []
    for _ in range(40):
        engine.ingest_frame(_frame(rng))
        sizes.append(engine.resident_token_count())
    # flat once the buffer (t=15) and the temporal bank (t=26) have both filled
    assert len(set(sizes[25:])) == 1
    assert sizes[-1] == 681 + 15 * 64


def test_scene_stream_weights_reflect_scene_lengths():
    # one long scene followed by a short one: cluster weights concentrate
    cfg = default_config(dim=4, n_tem=5, n_abs=5, n_ret=2, p_spa=4, p_tem=2, p_abs=1)
    engine = MemoryEngine(cfg)
    stream = synth_stream(3, 40, 2, 4, 4, noise_rel=0.01)
    for frame in stream:
        engine.ingest_frame(frame)
    w = engine.temporal_weights
    assert abs(w.sum() - 40) < 1e-9
    assert w.max() >= 10  # heavy cluster absorbed a whole scene's frames


def test_concurrent_readers_see_committed_monotonic_versions():
    engine = _engine(dim=4)
    stream = synth_stream(0, 2000, 3, 8, 4)
    violations = []
    stop = threading.Event()

    def reader():
        last = -1
        while not stop.is_set():
            snap = engine.read_snapshot()
            if not snap.verify_checksum():
                violations.append(("checksum", snap.version))
            if snap.version < last:
                violations.append(("regression", snap.version, last))
            last = snap.version

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for th in threads:
        th.start()
    for frame in stream:
        engine.ingest_frame(frame)
    stop.set()
    for th in threads:
        th.join()
    assert violations == []
    assert engine.read_snapshot().version == 2000


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    signs_only=st.booleans(),
    overrides=st.sampled_from(
        [{}, {"n_buff": 15, "p_abs": 2}, {"decay_alpha": 1e-6, "p_abs": 2}]
    ),
)
def test_inputs_at_the_magnitude_bound_keep_every_bank_finite(seed, signs_only, overrides):
    # Tokens and projections at +-float32 max, through the buffer wrap and
    # into k-means: no overflow anywhere, so every published bank is finite.
    cfg = default_config(dim=16, **overrides)
    rng = np.random.default_rng(seed)

    def at_bound(shape):
        unit = rng.choice([-1.0, 1.0], shape) if signs_only else rng.uniform(-1, 1, shape)
        return MAX_MAGNITUDE * unit

    params = AttentionParams(at_bound((16, 16)), at_bound((16, 16)))
    engine, twin = MemoryEngine(cfg, params), MemoryEngine(cfg, params)
    with np.errstate(over="raise", invalid="raise"):
        for _ in range(30):
            frame = FrameFeature.from_array(at_bound((8, 8, 16)))
            engine.ingest_frame(frame)
            twin.ingest_frame(frame)
            assert np.isfinite(engine.read_snapshot().tokens).all()
    beyond = at_bound((8, 8, 16))
    beyond[3, 5, 7] = np.nextafter(MAX_MAGNITUDE, np.inf)
    with pytest.raises(ValueError, match="float32 max"):
        engine.ingest_frame(FrameFeature.from_array(beyond))
    a, b = engine.read_snapshot(), twin.read_snapshot()
    assert (a.version, a.checksum) == (b.version, b.checksum)
    assert a.tokens.tobytes() == b.tokens.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["normal", "bound", "mixed"]), min_size=1, max_size=16),
    decay_alpha=st.sampled_from([0.1, 0.5, 1e-6]),
)
def test_one_token_abstract_update_is_decay_plus_frame_mean(dim, seed, kinds, decay_alpha):
    # At p_abs=1 the softmax over one incoming token is exactly 1, so every
    # abstract row must be (1 - alpha) * previous + the frame pooled to one
    # token, bit for bit: the identity a one-token shortcut relies on.
    cfg = default_config(dim=dim, decay_alpha=decay_alpha)
    assert cfg.p_abs == 1
    rng = np.random.default_rng(seed)
    draw = {
        "normal": lambda shape: rng.normal(size=shape),
        "bound": lambda shape: MAX_MAGNITUDE * rng.choice([-1.0, 1.0], shape),
        "mixed": lambda shape: rng.choice([-2.0, -0.0, 0.0, 0.5], shape),
    }
    engine = MemoryEngine(cfg)
    previous = np.zeros((1, dim))
    for kind in kinds:
        frame = FrameFeature.from_array(draw[kind]((8, 8, dim)))
        engine.ingest_frame(frame)
        expected = (1 - decay_alpha) * previous + average_pool(frame.tokens, 1).reshape(1, dim)
        bank = engine.read_snapshot().bank("abstract")
        assert bank.tobytes() == np.repeat(expected, cfg.n_abs, axis=0).tobytes()
        previous = expected
