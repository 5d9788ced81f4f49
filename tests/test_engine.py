"""Engine write path bookkeeping, snapshot reads, timestamped queries,
error containment, and a light concurrency shake-out."""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import streammem.engine as engine_module
from streammem import (
    AttentionParams,
    ConcurrentWriteError,
    ConfigError,
    FrameFeature,
    MemoryEngine,
    ShapeError,
    average_pool,
    default_config,
    max_tokens,
    synth_stream,
)
from streammem.model import MAX_MAGNITUDE

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
        counts = engine.bank_token_counts()
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
    assert np.array_equal(spatial, frames[-1].token_matrix)
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
    with pytest.raises(ShapeError):
        engine.ingest_frame(np.zeros((8, 8, 6)))  # not a FrameFeature

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
        history.insert(0, frame.token_matrix)
        assert np.array_equal(
            engine.read_snapshot().bank("spatial"), np.concatenate(history[:3])
        )
        assert engine.bank_token_counts()["spatial"] == 64 * min(t, 3)


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
    assert np.array_equal(snap.bank("spatial"), first.token_matrix)
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
    assert engine.bank_token_counts() == {
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
