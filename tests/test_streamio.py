"""FVS1 format round-trips, corruption handling, synthetic stream properties."""

import io
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streammem import (
    FrameFeature,
    StreamFormatError,
    StreamHeader,
    SyntheticStream,
    open_stream,
    synth_stream,
    write_stream,
)
from streammem.streamio import MAX_FRAME_BYTES, open_endpoint, read_header

HEADER_SIZE = 21  # 4s + u32 + u32 + u64 + u8, little-endian, packed


def _header_bytes(grid=2, dim=1, count=0, tag=0, magic=b"FVS1"):
    return struct.pack("<4sIIQB", magic, grid, dim, count, tag)


def test_header_size_arithmetic_two_frames():
    # 8 floats after a P=2, D=1 header = exactly 2 frames
    payload = np.arange(8, dtype="<f4").tobytes()
    frames = list(open_stream(io.BytesIO(_header_bytes(count=0) + payload))[1])
    assert len(frames) == 2
    assert frames[0].grid_size == 2 and frames[0].dim == 1
    assert frames[0].tokens[0, 0, 0] == 0.0
    assert frames[1].tokens[1, 1, 0] == 7.0


def test_round_trip_bit_exact_at_f32(tmp_path):
    rng = np.random.default_rng(0)
    frames = [
        FrameFeature.from_array(
            rng.normal(size=(4, 4, 3)).astype(np.float32).astype(np.float64)
        )
        for _ in range(5)
    ]
    path = tmp_path / "round.fvs"
    assert write_stream(path, frames, grid_side=4, dim=3) == 5
    header, loaded = open_stream(path)
    loaded = list(loaded)
    assert header == StreamHeader(grid_side=4, dim=3, frame_count=5)
    assert len(loaded) == 5
    for a, b in zip(frames, loaded):
        assert a.tokens.tobytes() == b.tokens.tobytes()


def test_truncated_frame_reports_exact_offset(tmp_path):
    frames = [FrameFeature.from_array(np.ones((2, 2, 2)))] * 2
    path = tmp_path / "trunc.fvs"
    write_stream(path, frames, grid_side=2, dim=2)
    frame_bytes = 2 * 2 * 2 * 4
    whole = path.read_bytes()
    cut = whole[: HEADER_SIZE + frame_bytes + 5]  # second frame cut short
    bad = tmp_path / "cut.fvs"
    bad.write_bytes(cut)
    with pytest.raises(StreamFormatError) as err:
        list(open_stream(bad)[1])
    assert str(HEADER_SIZE + frame_bytes) in str(err.value)


def test_truncation_detected_even_without_declared_count():
    frame_bytes = 2 * 2 * 1 * 4
    blob = _header_bytes(grid=2, dim=1, count=0) + b"\0" * (frame_bytes + 3)
    with pytest.raises(StreamFormatError, match=str(HEADER_SIZE + frame_bytes)):
        list(open_stream(io.BytesIO(blob))[1])


def test_declared_count_with_missing_frames_errors():
    blob = _header_bytes(grid=2, dim=1, count=3) + b"\0" * (2 * 2 * 4)  # only 1 frame
    with pytest.raises(StreamFormatError, match="truncated"):
        list(open_stream(io.BytesIO(blob))[1])


def test_reader_stops_at_declared_count():
    frame = np.zeros(4, dtype="<f4").tobytes()
    blob = _header_bytes(grid=2, dim=1, count=2) + frame * 2 + b"trailing-junk"
    assert len(list(open_stream(io.BytesIO(blob))[1])) == 2


def test_bad_magic_and_short_header():
    with pytest.raises(StreamFormatError, match="magic"):
        list(open_stream(io.BytesIO(_header_bytes(magic=b"NOPE")))[1])
    with pytest.raises(StreamFormatError, match="header"):
        list(open_stream(io.BytesIO(b"FVS1\x01"))[1])


def test_unknown_dtype_and_bad_dims_rejected():
    for tag in (1, 7, 255):
        with pytest.raises(StreamFormatError, match=f"unknown dtype tag {tag}$"):
            read_header(io.BytesIO(_header_bytes(tag=tag)))
        with pytest.raises(StreamFormatError, match=f"unknown dtype tag {tag}$"):
            list(open_stream(io.BytesIO(_header_bytes(tag=tag)))[1])
    with pytest.raises(StreamFormatError):
        list(open_stream(io.BytesIO(_header_bytes(grid=0)))[1])
    # Frames are always float32, so every header packs dtype byte 0.
    assert StreamHeader(2, 1).pack() == _header_bytes()


def test_header_fields_must_be_ints(tmp_path):
    for fields in ((2.5, 3), (2, 3.0), (True, 3), (2, 3, 1.0), (2, 3, -1)):
        with pytest.raises(StreamFormatError, match="integer"):
            StreamHeader(*fields)
    frame = FrameFeature.from_array(np.zeros((2, 2, 1)))
    with pytest.raises(StreamFormatError, match="integer"):
        write_stream(tmp_path / "s.fvs", [frame], grid_side=2.0, dim=1)
    # numpy ints are ints, and their frame size must not wrap under the limit.
    with pytest.raises(StreamFormatError, match="frame size"):
        StreamHeader(np.int64(2**31), np.int64(2**31))


def test_oversized_frame_header_rejected_before_any_frame_read(tmp_path):
    # P = D = 2**32 - 1 would make the reader ask for ~7e28 bytes per frame.
    huge = _header_bytes(grid=2**32 - 1, dim=2**32 - 1, count=1) + b"\0" * 64
    with pytest.raises(StreamFormatError, match="frame size"):
        open_stream(io.BytesIO(huge))
    path = tmp_path / "huge.fvs"
    path.write_bytes(huge)
    with pytest.raises(StreamFormatError, match="frame size"):
        open_stream(path)
    # The limit is inclusive: 8*8*D*4 bytes with D = MAX_FRAME_BYTES / 256.
    assert StreamHeader(8, MAX_FRAME_BYTES // 256).frame_bytes == MAX_FRAME_BYTES
    with pytest.raises(StreamFormatError, match="frame size"):
        StreamHeader(8, MAX_FRAME_BYTES // 256 + 1)


def test_non_finite_values_rejected_with_offset():
    payload = np.array([1.0, np.nan, 0.0, 2.0], dtype="<f4").tobytes()
    with pytest.raises(StreamFormatError, match=f"non-finite.*{HEADER_SIZE}"):
        list(open_stream(io.BytesIO(_header_bytes(grid=2, dim=1) + payload))[1])
    # A bad second frame names its own offset; the first frame is yielded.
    payload = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0, np.inf, 0.0], dtype="<f4").tobytes()
    frames = open_stream(io.BytesIO(_header_bytes(grid=2, dim=1) + payload))[1]
    assert next(frames).tokens.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(StreamFormatError, match=f"non-finite.*{HEADER_SIZE + 16}"):
        next(frames)


# Arbitrary bytes, and bytes behind a plausible header so that the frame
# reader is reached: small grid and dim, any count and dtype tag, then
# arbitrary bytes or float32 values that include NaN and infinities.
_plausible_header = st.builds(
    _header_bytes,
    grid=st.integers(0, 3),
    dim=st.integers(0, 3),
    count=st.integers(0, 2**64 - 1),
    tag=st.sampled_from([0, 0, 0, 1, 255]),
)
_f32_payload = st.lists(st.floats(width=32), max_size=64).map(
    lambda values: np.array(values, dtype="<f4").tobytes()
)
_stream_bytes = st.one_of(
    st.binary(max_size=64),
    st.builds(bytes.__add__, _plausible_header, st.one_of(st.binary(max_size=256), _f32_payload)),
)


@settings(max_examples=300, deadline=None)
@given(data=_stream_bytes)
def test_fuzz_read_header_raises_only_named_errors(data):
    try:
        header = read_header(io.BytesIO(data))
    except StreamFormatError:
        return
    assert header.frame_bytes <= MAX_FRAME_BYTES


@settings(max_examples=300, deadline=None)
@given(data=_stream_bytes)
def test_fuzz_frame_iterator_raises_only_named_errors(data):
    try:
        header, frames = open_stream(io.BytesIO(data))
        for frame in frames:
            assert frame.tokens.shape == (header.grid_side, header.grid_side, header.dim)
            assert np.isfinite(frame.tokens).all()
    except StreamFormatError:
        pass


def test_write_patches_count_for_generators(tmp_path):
    def gen():
        for i in range(3):
            yield FrameFeature.from_array(np.full((2, 2, 1), float(i)))

    path = tmp_path / "gen.fvs"
    assert write_stream(path, gen(), grid_side=2, dim=1) == 3
    header, frames = open_stream(path)
    assert header.frame_count == 3  # patched after the fact
    assert len(list(frames)) == 3


def test_write_to_non_seekable_leaves_count_zero():
    class Pipe(io.BytesIO):
        def seekable(self):
            return False

    sink = Pipe()
    frames = (FrameFeature.from_array(np.zeros((2, 2, 1))) for _ in range(2))
    write_stream(sink, frames, grid_side=2, dim=1)
    header, frames = open_stream(io.BytesIO(sink.getvalue()))
    assert header.frame_count == 0  # unbounded marker for pipes
    assert len(list(frames)) == 2


def test_write_rejects_mismatched_frames(tmp_path):
    frames = [
        FrameFeature.from_array(np.zeros((2, 2, 1))),
        FrameFeature.from_array(np.zeros((4, 4, 1))),
    ]
    with pytest.raises(StreamFormatError, match="match"):
        write_stream(tmp_path / "bad.fvs", frames, grid_side=2, dim=1)


def test_write_empty_without_shape_errors(tmp_path):
    # The shape comes from the caller, so an empty stream is legal.
    path = tmp_path / "empty2.fvs"
    assert write_stream(path, [], grid_side=2, dim=1) == 0
    header, frames = open_stream(path)
    assert header.frame_count == 0
    assert list(frames) == []


def test_synth_single_scene_zero_noise_identical_frames():
    stream = synth_stream(5, 4, 1, 2, 3, noise_rel=0.0)
    frames = list(stream)
    assert all(f.tokens.tobytes() == frames[0].tokens.tobytes() for f in frames)


def test_synth_same_seed_identical_bytes(tmp_path):
    a, b = (synth_stream(9, 12, 3, 4, 5) for _ in range(2))
    buf_a, buf_b = io.BytesIO(), io.BytesIO()
    write_stream(buf_a, a, grid_side=4, dim=5)
    write_stream(buf_b, b, grid_side=4, dim=5)
    assert buf_a.getvalue() == buf_b.getvalue()
    assert synth_stream(10, 12, 3, 4, 5) is not None  # different seed still works


def test_synth_scene_separation_self_check():
    stream = synth_stream(0, 30, 3, 4, 8)
    assert stream.separation_ratio >= 5.0
    # measured: sampled same-scene frame gaps stay far below anchor gaps
    by_scene = {}
    for i, f in enumerate(stream):
        by_scene.setdefault(stream.scene_of(i), []).append(f.tokens.reshape(-1))
    assert sorted(by_scene) == [0, 1, 2]
    intra = max(float(np.linalg.norm(fs[0] - fs[-1])) for fs in by_scene.values())
    anchors = stream.anchors.reshape(3, -1)
    inter = min(
        float(np.linalg.norm(anchors[i] - anchors[j]))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert inter >= 5.0 * intra


def test_synth_scene_ids_contiguous_partition():
    stream = synth_stream(2, 20, 3, 2, 2)
    scenes = [stream.scene_of(i) for i in range(20)]
    assert scenes == [0] * 7 + [1] * 7 + [2] * 6
    assert scenes == sorted(scenes) and set(scenes) == {0, 1, 2}


@pytest.mark.parametrize("n_frames", [1, 2, 5, 7, 20, 31])
def test_synth_scene_of_matches_a_per_frame_table(n_frames):
    # scene_of is arithmetic; the reference is the per-frame table the
    # generator used to store. Scene s starts at frame ceil(s * N / S).
    for n_scenes in range(1, n_frames + 1):
        stream = synth_stream(0, n_frames, n_scenes, 1, 1, noise_rel=0.0)
        table = [min(i * n_scenes // n_frames, n_scenes - 1) for i in range(n_frames)]
        assert [stream.scene_of(i) for i in range(n_frames)] == table
        starts = [table.index(sid) for sid in range(n_scenes)]
        assert starts == [-(-sid * n_frames // n_scenes) for sid in range(n_scenes)]
        # A float or a bool is never rounded to a frame index.
        for bad in (-1, n_frames, 0.0, 1.5, True, None):
            with pytest.raises(IndexError, match="out of range"):
                stream.scene_of(bad)
            with pytest.raises(IndexError, match="out of range"):
                stream.frame(bad)
        assert stream.scene_of(np.int64(n_frames - 1)) == table[-1]


def test_synth_stream_of_a_trillion_frames_is_built_lazily():
    n = 10**12
    t0 = time.perf_counter()
    stream = synth_stream(0, n, 4, 2, 8)
    assert time.perf_counter() - t0 < 1.0
    assert len(stream) == n
    assert stream.frame(n - 1).tokens.shape == (2, 2, 8)
    assert stream.scene_of(0) == 0 and stream.scene_of(n - 1) == 3
    for sid in range(1, 4):  # scene sid starts at frame sid * n / 4
        assert stream.scene_of(sid * n // 4 - 1) == sid - 1
        assert stream.scene_of(sid * n // 4) == sid


def test_synth_random_access_matches_iteration():
    stream = synth_stream(3, 10, 2, 2, 3)
    by_iter = [f.tokens.tobytes() for f in stream]
    by_index = [stream.frame(i).tokens.tobytes() for i in range(10)]
    assert by_iter == by_index
    with pytest.raises(IndexError):
        stream.frame(10)


def test_synth_file_round_trip_bit_exact(tmp_path):
    stream = synth_stream(4, 8, 2, 4, 4)
    path = tmp_path / "synth.fvs"
    write_stream(path, stream, grid_side=4, dim=4)
    loaded = list(open_stream(path)[1])
    for a, b in zip(stream, loaded):
        assert a.tokens.tobytes() == b.tokens.tobytes()


def test_synth_validation():
    with pytest.raises(StreamFormatError):
        synth_stream(0, 3, 5, 2, 2)  # more scenes than frames
    with pytest.raises(StreamFormatError):
        synth_stream(0, 0, 1, 2, 2)
    with pytest.raises(StreamFormatError):
        synth_stream(0, 3, 1, 0, 2)
    with pytest.raises(StreamFormatError):
        synth_stream(0, 3, 1, 2, 2, noise_rel=-0.5)


def test_frame_counts_past_their_fields_are_named_errors():
    # The header's count is a u64, and len() of a stream is a Py_ssize_t.
    assert StreamHeader(2, 2, 2**64 - 1).pack() == _header_bytes(grid=2, dim=2, count=2**64 - 1)
    with pytest.raises(StreamFormatError, match="frame count"):
        StreamHeader(2, 2, 2**64)
    assert len(synth_stream(0, sys.maxsize, 1, 2, 3)) == sys.maxsize
    with pytest.raises(StreamFormatError, match="n_frames"):
        synth_stream(0, sys.maxsize + 1, 1, 2, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": 1.5}, {"seed": -1}, {"seed": "x"}, {"seed": True}, {"seed": None},
        {"noise_rel": "x"}, {"noise_rel": True}, {"noise_rel": None},
        {"noise_rel": float("nan")}, {"noise_rel": -0.5},
    ],
)
def test_synth_checks_seed_and_noise_where_they_enter(kwargs):
    args = {"seed": 0, "noise_rel": 0.05, **kwargs}
    with pytest.raises(StreamFormatError, match=next(iter(kwargs))):
        synth_stream(args["seed"], 5, 1, 2, 2, noise_rel=args["noise_rel"])


def test_synthetic_stream_is_built_only_through_its_checks():
    # One class, one signature: the anchors and the ratio are drawn, never passed.
    assert synth_stream is SyntheticStream
    with pytest.raises(TypeError):
        SyntheticStream(seed=-3, n_frames=10, n_scenes=3, grid_side=2, dim=2,
                        noise_rel=float("nan"), anchors=np.zeros((1, 2, 2, 2)),
                        separation_ratio=-1.0)
    with pytest.raises(TypeError):
        SyntheticStream(0, 10, 3, 2, 2, 0.05)  # noise_rel is keyword-only
    with pytest.raises(StreamFormatError, match="seed"):
        SyntheticStream(-3, 10, 3, 2, 2)
    stream = SyntheticStream(0, 300, 3, 8, 16)
    assert stream.separation_ratio == 11.46715147054404  # as before the merge
    assert not stream.anchors.flags.writeable


def test_synth_anchor_check_stops_at_the_first_failing_pair(monkeypatch):
    # 120 scenes cannot be separated at dim 1: each of the 100 draws fails on
    # its first pair, so it computes one gap, not all 7140.
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    with pytest.raises(StreamFormatError, match="could not separate 120 anchors"):
        synth_stream(0, 120, 120, 1, 1)
    assert len(calls) == 100
    calls.clear()
    synth_stream(0, 20, 20, 2, 2, noise_rel=0.0)  # no noise: no gap is needed
    assert calls == []


def test_synth_refuses_oversized_anchors_before_drawing(monkeypatch):
    # Every anchor draw goes through default_rng; make reaching it an error,
    # so these shapes are never allocated.
    def no_draw(*args, **kwargs):
        raise AssertionError("synth_stream reached the anchor draw")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(StreamFormatError, match="exceeds"):
        synth_stream(0, 3, 1, 4096, 4096)  # one frame alone is 256 GiB
    # 64 x 64 x 4096 float32 is 64 MiB a frame: four scenes fit the limit
    # and go on to the draw, five do not.
    frame_bytes = 64 * 64 * 4096 * 4
    assert 4 * frame_bytes <= MAX_FRAME_BYTES < 5 * frame_bytes
    with pytest.raises(StreamFormatError, match="5 scene anchors"):
        synth_stream(0, 5, 5, 64, 4096)
    with pytest.raises(AssertionError, match="anchor draw"):
        synth_stream(0, 4, 4, 64, 4096)


def test_open_endpoint_closes_only_what_it_opens(tmp_path, monkeypatch):
    buf = io.BytesIO()
    with open_endpoint(buf, "wb") as f:
        assert f is buf
    assert not buf.closed
    write_stream(buf, synth_stream(0, 2, 1, 2, 3), grid_side=2, dim=3)
    assert not buf.closed
    assert read_header(io.BytesIO(buf.getvalue())).frame_count == 2

    out = io.TextIOWrapper(io.BytesIO())  # '-' is resolved at call time
    monkeypatch.setattr(sys, "stdout", out)
    with open_endpoint("-", "w") as f:
        assert f is out
    with open_endpoint("-", "wb") as f:
        assert f is out.buffer
    assert not out.closed

    path = tmp_path / "s.fvs"
    path.write_bytes(buf.getvalue())
    with open_endpoint(str(path), "rb") as f:
        assert read_header(f).frame_count == 2
        assert not f.closed
    assert f.closed


def test_reader_closes_its_file_when_done_failed_or_dropped(tmp_path, opened_files):
    good = tmp_path / "good.fvs"
    write_stream(good, synth_stream(0, 3, 1, 2, 3), grid_side=2, dim=3)
    cut = tmp_path / "cut.fvs"
    cut.write_bytes(good.read_bytes()[:-5])
    bad = tmp_path / "bad.fvs"
    bad.write_bytes(b"NOPE" + good.read_bytes()[4:])

    opened_files.clear()
    header, frames = open_stream(good)
    assert not opened_files[0].closed  # the header is read; frames are still to come
    assert len(list(frames)) == header.frame_count == 3
    assert opened_files[0].closed

    opened_files.clear()
    with pytest.raises(StreamFormatError, match="truncated"):
        list(open_stream(cut)[1])
    assert opened_files[0].closed

    opened_files.clear()
    with pytest.raises(StreamFormatError, match="magic"):
        open_stream(bad)
    assert opened_files[0].closed

    opened_files.clear()
    _, frames = open_stream(good)
    next(frames)
    del frames  # dropped mid-stream
    assert opened_files[0].closed
