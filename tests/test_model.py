"""Domain types, budget arithmetic, config validation, snapshot integrity."""

import dataclasses
import re
import struct
import types
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streammem import (
    BANK_ORDER,
    AttentionParams,
    ConfigError,
    FrameFeature,
    MemoryConfig,
    MemoryEngine,
    MemorySnapshot,
    ShapeError,
    StreamFormatError,
    bench_latency,
    default_config,
    max_tokens,
    synth_stream,
)
import streammem
import streammem.model as model_module
from streammem.attention import abstract_update
from streammem.model import MAX_BUFFER_BYTES, MAX_MAGNITUDE, _crc_join


def test_max_tokens_defaults_is_681():
    assert max_tokens(default_config()) == 681


def test_max_tokens_single_token_degenerate():
    # A one-token budget needs empty banks, which no config can have; the
    # smallest config that can be built holds one token per bank slot.
    with pytest.raises(ConfigError, match="n_spa"):
        MemoryConfig(n_spa=0, n_ret=0, n_tem=1, p_tem=1, n_abs=0)
    cfg = MemoryConfig(p_spa=1, p_tem=1, p_abs=1, n_buff=1, n_spa=1, n_tem=1, n_abs=1, n_ret=1)
    assert max_tokens(cfg) == 4


def test_max_tokens_hand_arithmetic():
    cfg = MemoryConfig(n_spa=2, n_ret=2, p_spa=4, n_tem=10, p_tem=2, n_abs=5, p_abs=1)
    assert max_tokens(cfg) == 4 * 16 + 10 * 4 + 5 == 109


@given(
    grids=st.lists(st.integers(1, 32), min_size=3, max_size=3).map(sorted),
    n_buff=st.integers(10, 500),
    n_spa=st.integers(1, 10),
    n_tem=st.integers(10, 50),
    n_abs=st.integers(1, 50),
    n_ret=st.integers(1, 10),
)
def test_max_tokens_is_exact_integer_arithmetic(grids, n_buff, n_spa, n_tem, n_abs, n_ret):
    # Only valid configs exist: p_abs <= p_tem <= p_spa, n_spa <= n_buff and
    # n_ret <= n_tem hold by the ranges drawn.
    p_abs, p_tem, p_spa = grids
    cfg = MemoryConfig(
        p_spa=p_spa, p_tem=p_tem, p_abs=p_abs, n_buff=n_buff,
        n_spa=n_spa, n_tem=n_tem, n_abs=n_abs, n_ret=n_ret, dim=16,
    )
    expected = (n_spa + n_ret) * p_spa**2 + n_tem * p_tem**2 + n_abs * p_abs**2
    value = max_tokens(cfg)
    assert isinstance(value, int)
    assert value == expected


def _refused(match, **overrides):
    """Every way to build a config with these overrides raises ConfigError."""
    for build in (
        lambda: MemoryConfig(**overrides),
        lambda: default_config(**overrides),
        lambda: dataclasses.replace(default_config(), **overrides),
    ):
        with pytest.raises(ConfigError, match=match):
            build()


def test_validate_decay_out_of_range():
    for alpha in (1.5, 0.0, float("nan")):
        _refused("decay out of range", decay_alpha=alpha)


def test_validate_capacity_orderings():
    _refused("n_spa", n_spa=301)
    _refused("n_ret", n_ret=26)
    _refused("bank grid order", p_tem=16)


def test_validate_positive_integer_fields():
    _refused("n_tem", n_tem=0)
    _refused("dim", dim=-4)
    # bools are ints in Python; they must still be rejected as capacities
    _refused("n_ret", n_ret=True)
    _refused("p_abs", p_abs=2.5)
    assert default_config(n_buff=np.int64(3)).n_buff == 3


@pytest.mark.parametrize("scalar", [np.float16, np.float32])
def test_config_stores_python_numbers_and_decays_in_float64(scalar):
    # A numpy scalar once reached the decay as is: with np.float16(0.1) the
    # abstract bank decayed by 0.89990234375, not by 1 - 0.0999755859375.
    alpha = scalar(0.1)
    cfg = default_config(dim=np.int64(4), n_abs=np.int32(2), decay_alpha=alpha)
    for f in dataclasses.fields(MemoryConfig):
        assert type(getattr(cfg, f.name)) is (int if f.type == "int" else float), f.name
    same = default_config(dim=4, n_abs=2, decay_alpha=float(alpha))
    assert cfg == same
    rng = np.random.default_rng(0)
    bank, frame = rng.normal(size=(2, 4)), rng.normal(size=(1, 1, 4))
    got = abstract_update(bank, frame, None, cfg)
    assert got.tobytes() == abstract_update(bank, frame, None, same).tobytes()
    decayed = abstract_update(np.ones((2, 4)), np.zeros((1, 1, 4)), None, cfg)
    assert (decayed == 1.0 - float(alpha)).all()


def test_validate_checks_every_field():
    # One bad value per field; a new field must join this table to pass.
    bad = {
        "p_spa": 0, "p_tem": -1, "p_abs": 1.0, "n_buff": 0, "n_spa": True,
        "n_tem": 0, "n_abs": 0, "n_ret": -3, "dim": 0, "decay_alpha": 1.0,
    }
    assert set(bad) == {f.name for f in dataclasses.fields(MemoryConfig)}
    for name, value in bad.items():
        _refused(name, **{name: value})


@given(
    alpha=st.floats(allow_nan=True, allow_infinity=True),
    n_tem=st.integers(-5, 50),
)
def test_validate_is_total(alpha, n_tem):
    try:
        default_config(decay_alpha=alpha, n_tem=n_tem)
    except ConfigError:
        pass  # named rejection is the only acceptable failure mode


def test_frame_feature_shape_and_finiteness():
    with pytest.raises(ShapeError):
        FrameFeature(grid_size=2, dim=3, tokens=np.zeros((2, 2, 4)))
    with pytest.raises(ShapeError):
        FrameFeature(grid_size=0, dim=3, tokens=np.zeros((0, 0, 3)))
    bad = np.zeros((2, 2, 3))
    bad[1, 1, 1] = np.nan
    with pytest.raises(ValueError):
        FrameFeature(grid_size=2, dim=3, tokens=bad)
    bad[1, 1, 1] = np.inf
    with pytest.raises(ValueError):
        FrameFeature(grid_size=2, dim=3, tokens=bad)


def test_frame_feature_shape_fields_must_be_ints():
    # A float or bool compares equal to the array's shape, but no FVS1 header
    # can hold it.
    for p, d in ((2.0, 1), (2, True), (np.float64(2), 1)):
        with pytest.raises(ShapeError, match="positive integers"):
            FrameFeature(grid_size=p, dim=d, tokens=np.zeros((2, 2, 1)))
    assert FrameFeature(grid_size=np.int64(2), dim=1, tokens=np.zeros((2, 2, 1))).dim == 1


_TINY = default_config(dim=4)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: synth_stream(0, 10.5, 2, 4, 4), StreamFormatError),
        (lambda: synth_stream(0, 10, 2.0, 4, 4), StreamFormatError),
        (lambda: bench_latency(_TINY, [2.7], 1), ValueError),
        (lambda: bench_latency(_TINY, [2], 1.5), ValueError),
        (lambda: MemoryEngine(_TINY, "x"), ShapeError),
        (lambda: _snapshot(version=1.5), ShapeError),
        (lambda: _snapshot(version=True), ShapeError),
        (lambda: _snapshot(version=-5), ShapeError),
        (lambda: _snapshot(version=2**63), ShapeError),
        (lambda: _snapshot(t=2.0), ShapeError),
        (lambda: _snapshot(t=2**63), ShapeError),
    ],
    ids=["n_frames", "n_scenes", "frame_counts",
         "queries_per_point", "params", "version_float", "version_bool", "version_negative",
         "version_over_q", "timestamp_float", "timestamp_over_q"],
)
def test_entry_points_refuse_non_integers_with_their_named_error(call, error):
    # A float count is never rounded: each entry point raises the error it
    # uses for any other bad value of that argument.
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: max_tokens(None), ConfigError, "expected MemoryConfig, got NoneType"),
    ],
    ids=["max_tokens"],
)
def test_a_config_or_bank_of_another_type_is_a_named_error(call, error, message):
    # Each once gave AttributeError on a field of None.
    with pytest.raises(error, match=message) as raised:
        call()
    assert raised.type is error


def test_public_names_are_the_engine_its_value_types_and_io():
    # The stages are reached through the engine; each module imports them.
    assert set(streammem.__all__) == {
        # the engine, its results and the model types
        "MemoryEngine", "QueryResult", "ClusterState", "FrameFeature", "MemoryConfig",
        "MemorySnapshot", "AttentionParams", "BANK_ORDER", "default_config", "max_tokens",
        # errors and bounds
        "ConfigError", "ShapeError", "ConcurrentWriteError", "StreamFormatError",
        "MAX_MAGNITUDE", "MAX_BUFFER_BYTES", "MAX_FRAME_BYTES",
        # stream IO, bench and attention-params IO
        "StreamHeader", "read_header", "open_endpoint", "open_stream", "write_stream",
        "SyntheticStream", "synth_stream", "BenchRow", "BenchReport", "PcaExport",
        "bench_latency", "export_memory_pca", "save_attention_params", "load_attention_params",
        "__version__",
    }


@given(
    over=st.one_of(st.floats(min_value=MAX_MAGNITUDE, exclude_min=True), st.just(np.nan)),
    sign=st.sampled_from([1.0, -1.0]),
    pos=st.integers(0, 15),
)
def test_tokens_and_params_are_bounded_by_float32_max(over, sign, pos):
    at_bound = sign * np.full(16, MAX_MAGNITUDE)
    assert MAX_MAGNITUDE == float(np.finfo(np.float32).max)
    FrameFeature(grid_size=2, dim=4, tokens=at_bound.reshape(2, 2, 4))
    AttentionParams(at_bound.reshape(4, 4), at_bound.reshape(4, 4))
    beyond = at_bound.copy()
    beyond[pos] = sign * over
    with pytest.raises(ValueError, match="float32 max"):
        FrameFeature(grid_size=2, dim=4, tokens=beyond.reshape(2, 2, 4))
    with pytest.raises(ValueError, match="float32 max"):
        AttentionParams(at_bound.reshape(4, 4), beyond.reshape(4, 4))


def test_validate_bounds_preallocated_bytes():
    # The feature buffer's rings, the temporal bank, the abstract bank, one
    # snapshot at budget and the two projections, in float64 bytes.
    assert (300 * (64 + 16) + 25 * 16 + 25 + 681 + 2 * 1024) * 1024 * 8 == 222_445_568
    assert 222_445_568 <= MAX_BUFFER_BYTES
    default_config(dim=1024)
    limit = f"over the {MAX_BUFFER_BYTES}-byte limit"
    _refused(limit, n_buff=10**12)
    _refused(limit, n_abs=10**12)
    _refused(limit, dim=np.int64(2**40))  # numpy ints must not wrap
    with pytest.raises(ConfigError, match=limit):  # 256 GiB of projections
        MemoryConfig(p_spa=1, p_tem=1, p_abs=1, n_buff=1, n_abs=1, n_tem=1, n_ret=1, dim=2**17)
    # Counted exactly at dim 1: 2 * n_buff ring values, one temporal centroid,
    # one abstract slot, a 4-token snapshot and two 1 x 1 projections, so
    # 2 * n_buff + 8 values; 2**34 bytes are 2**31 float64 values.
    edge = MemoryConfig(p_spa=1, p_tem=1, p_abs=1, n_buff=2**30 - 4, n_abs=1, n_spa=1,
                        n_tem=1, n_ret=1, dim=1)
    assert max_tokens(edge) == 4
    with pytest.raises(ConfigError, match=str(MAX_BUFFER_BYTES + 16)):
        dataclasses.replace(edge, n_buff=2**30 - 3)


def test_byte_limit_counts_the_temporal_bank_and_a_snapshot():
    # Neither grows with n_buff: a billion centroids once passed with a
    # ten-frame buffer, and the temporal bank grew by 4 rows a frame.
    limit = f"buffer too large: .* over the {MAX_BUFFER_BYTES}-byte limit"
    _refused(limit, n_tem=10**9, n_ret=1, dim=64, p_spa=2, p_tem=2, n_buff=10)
    # A numpy n_tem once wrapped max_tokens to 153; the rule uses Python ints.
    _refused(limit, n_tem=np.int64(2**61), n_ret=1, dim=16)
    assert max_tokens(MemoryConfig(n_tem=np.int64(25), dim=16)) == 681


def test_frame_feature_is_immutable_and_copies_input():
    src = np.arange(12, dtype=float).reshape(2, 2, 3)
    frame = FrameFeature.from_array(src)
    src[0, 0, 0] = 99.0
    assert frame.tokens[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        frame.tokens[0, 0, 0] = 1.0


def test_frame_feature_from_array_rejects_non_square():
    with pytest.raises(ShapeError):
        FrameFeature.from_array(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        FrameFeature.from_array(np.zeros((2, 2)))


def _banks(tokens, lengths=(2, 1, 0, 2)):
    """``tokens`` cut into one row block per bank, in BANK_ORDER."""
    blocks = np.split(np.asarray(tokens, dtype=float), np.cumsum(lengths)[:-1])
    return {name: [block] for name, block in zip(BANK_ORDER, blocks)}


def _snapshot(version=1, t=1, rows=5, dim=3):
    tokens = np.arange(rows * dim, dtype=float).reshape(rows, dim)
    return MemorySnapshot(version=version, timestamp_frame=t, banks=_banks(tokens))


def test_snapshot_refuses_unknown_or_missing_banks_and_bad_blocks():
    good = _banks(np.ones((5, 3)))
    listed = re.escape(str(BANK_ORDER))
    for banks in (
        {k: v for k, v in good.items() if k != "abstract"},  # missing
        {**good, "episodic": [np.ones((1, 3))]},  # unknown
        {"tem" if k == "temporal" else k: v for k, v in good.items()},  # misspelt
        list(good.values()),  # not a mapping
        5,
    ):
        with pytest.raises(ValueError, match=listed) as raised:
            MemorySnapshot(version=1, timestamp_frame=1, banks=banks)
        assert raised.type is ValueError
    for bad, match in (
        ({**good, "spatial": [np.ones(3)]}, "2-D"),  # one row, not a block
        (dict.fromkeys(BANK_ORDER, [np.ones(3)]), "2-D"),
        ({**good, "retrieved": [np.ones((1, 1, 3))]}, "2-D"),
        ({**good, "retrieved": [np.ones((1, 3)), np.ones((1, 4))]}, "share one width"),
        ({**good, "temporal": [np.ones((2, 2))]}, "share one width"),
        (dict.fromkeys(BANK_ORDER, []), "share one width"),  # no block fixes the width
        ({**good, "abstract": np.ones((1, 3))}, "list or tuple"),
        ({**good, "abstract": 5}, "list or tuple"),
    ):
        with pytest.raises(ShapeError, match=match):
            MemorySnapshot(version=1, timestamp_frame=1, banks=bad)


def test_snapshot_lays_out_banks_in_bank_order_whatever_the_mapping_order():
    rng = np.random.default_rng(0)
    blocks = {name: [rng.normal(size=(n, 2)) for n in sizes]
              for name, sizes in zip(BANK_ORDER, ((1, 2), (3,), (), (2, 1)))}
    snap = MemorySnapshot(version=2, timestamp_frame=3, banks=dict(reversed(blocks.items())))
    assert snap.bank_lengths == (3, 3, 0, 3)
    assert snap.bank_offsets == ((0, 3), (3, 3), (6, 0), (6, 3))
    want = np.concatenate([m for name in BANK_ORDER for m in blocks[name]])
    assert snap.tokens.tobytes() == want.tobytes()
    assert snap.tokens.dtype == np.float64 and snap.tokens.flags.c_contiguous
    # The tokens are a copy: writing a block afterwards does not reach them.
    blocks["spatial"][0][0, 0] = 99.0
    assert snap.tokens[0, 0] != 99.0
    assert snap.verify_checksum()


def test_snapshot_bank_slices():
    snap = _snapshot()
    assert snap.bank_lengths == (2, 1, 0, 2)
    assert snap.bank_offsets == ((0, 2), (2, 1), (3, 0), (3, 2))
    assert snap.token_count == 5
    assert snap.bank("spatial").shape == (2, 3)
    assert snap.bank("temporal").shape == (1, 3)
    assert snap.bank("abstract").shape == (0, 3)
    assert snap.bank("retrieved").shape == (2, 3)
    assert np.array_equal(snap.bank("temporal")[0], snap.tokens[2])
    with pytest.raises(ValueError, match=r"bank name must be one of \('spatial'.*got 'tem'"):
        snap.bank("tem")
    # A bank given no block at all takes its width from the other banks.
    banks = {**_banks(np.ones((3, 4)), (1, 1, 0, 1)), "abstract": []}
    empty = MemorySnapshot(version=1, timestamp_frame=1, banks=banks).bank("abstract")
    assert empty.shape == (0, 4) and empty.dtype == np.float64 and not empty.flags.writeable


def test_snapshot_checksum_detects_tampering():
    snap = _snapshot()
    assert snap.verify_checksum()
    object.__setattr__(snap, "version", snap.version + 1)
    assert not snap.verify_checksum()


def test_snapshot_checksum_covers_tokens_and_metadata():
    base = _snapshot()
    same = _snapshot()
    assert base.checksum == same.checksum
    assert _snapshot(version=2).checksum != base.checksum
    assert _snapshot(t=2).checksum != base.checksum
    other = MemorySnapshot(
        version=1,
        timestamp_frame=1,
        banks=_banks(np.arange(15, dtype=float).reshape(5, 3) + 1.0),
    )
    assert other.checksum != base.checksum


def test_snapshot_checksum_is_crc_of_header_then_token_bytes():
    # Non-contiguous input: the snapshot stores a C-contiguous copy, and the
    # checksum is CRC-32 over the packed header, then the row-major tokens.
    tokens = np.arange(15, dtype=float).reshape(3, 5).T
    assert not tokens.flags.c_contiguous
    offsets = ((0, 1), (1, 2), (3, 0), (3, 2))
    snap = MemorySnapshot(version=4, timestamp_frame=9, banks=_banks(tokens, (1, 2, 0, 2)))
    header = struct.pack("<qq", 4, 9) + struct.pack("<8q", *(v for pair in offsets for v in pair))
    assert snap.checksum == zlib.crc32(tokens.tobytes(), zlib.crc32(header))
    assert snap.verify_checksum()
    empty = MemorySnapshot(version=0, timestamp_frame=0, banks=_banks(np.zeros((0, 3)), (0,) * 4))
    assert empty.checksum == zlib.crc32(struct.pack("<qq8q", *[0] * 10))


def test_snapshot_checksum_is_computed_not_passed():
    with pytest.raises(TypeError):
        MemorySnapshot(version=1, timestamp_frame=1, banks=_banks(np.ones((1, 3)), (1, 0, 0, 0)),
                       checksum=7)
    for derived in ("tokens", "bank_lengths", "bank_offsets"):
        with pytest.raises(TypeError):
            MemorySnapshot(version=1, timestamp_frame=1, **{derived: None},
                           banks=_banks(np.ones((1, 3)), (1, 0, 0, 0)))


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def test_snapshot_shares_read_only_blocks_and_copies_the_rest():
    rows = 1 << 10  # (1024, 8) float64 blocks of 64 KB, beside blocks of a row or two
    owner = _read_only(np.arange(16.0 * rows).reshape(2 * rows, 8).copy())  # reshape is a view
    view_of_read_only = owner[rows:]
    writable = np.ones((rows, 8))
    view_of_writable = np.zeros((rows, 8))[:]
    view_of_writable.setflags(write=False)
    small = [np.full((1, 8), 1.0), np.full((2, 8), 2.0)]
    small_read_only = _read_only(np.full((1, 8), 4.0))
    banks = {
        "spatial": [owner, view_of_read_only],
        "temporal": [writable],
        "abstract": [view_of_writable, small_read_only],
        # Two small blocks, a large one that is not contiguous, a small list.
        "retrieved": [*small, owner[::2], [[3.0] * 8]],
    }
    snap = MemorySnapshot(version=1, timestamp_frame=1, banks=banks)
    spatial, temporal, abstract, retrieved = snap.blocks
    # Each bank keeps the blocks it was given, one for one: none are joined.
    assert [len(bank) for bank in snap.blocks] == [len(banks[name]) for name in BANK_ORDER]
    assert spatial[0] is owner and spatial[1] is view_of_read_only
    assert abstract[1] is small_read_only  # read-only: shared at any size
    for copied, given in ((temporal[0], writable), (abstract[0], view_of_writable),
                          (retrieved[0], small[0]), (retrieved[1], small[1]),
                          (retrieved[2], owner[::2])):
        assert not np.shares_memory(copied, given) and np.array_equal(copied, given)
    for block in (b for bank in snap.blocks for b in bank):
        assert not block.flags.writeable and block.flags.c_contiguous
        assert block.dtype == np.float64
    assert snap.bank("spatial").tobytes() == np.concatenate([owner, owner[rows:]]).tobytes()
    assert snap.bank("temporal") is temporal[0]
    assert not snap.bank("retrieved").flags.writeable
    assert snap.token_count == 6 * rows + 5
    want = np.concatenate([np.asarray(m, dtype=float) for name in BANK_ORDER for m in banks[name]])
    assert snap.tokens.tobytes() == want.tobytes() == snap.tokens.tobytes()
    assert "tokens" not in vars(snap)  # joined on each read, never kept
    assert snap.verify_checksum()


def test_snapshot_returns_one_block_itself_and_joins_several_anew():
    one = _read_only(np.arange(12.0).reshape(4, 3).copy())  # reshape is a view
    banks = {**dict.fromkeys(BANK_ORDER, ()), "temporal": [one]}
    snap = MemorySnapshot(version=1, timestamp_frame=1, banks=banks)
    assert snap.tokens is one and snap.bank("temporal") is one
    several = [one, _read_only(np.ones((2, 3))), _read_only(np.zeros((1, 3)))]
    banks = {**dict.fromkeys(BANK_ORDER, ()), "abstract": several}
    snap = MemorySnapshot(version=1, timestamp_frame=1, banks=banks)
    want = np.concatenate(several).tobytes()
    for read in (lambda: snap.tokens, lambda: snap.bank("abstract")):
        first, second = read(), read()
        assert first.tobytes() == want == second.tobytes()
        assert first is not second and not first.flags.writeable  # joined anew, never kept
        assert not any(np.shares_memory(first, block) for block in several)


def test_frame_tokens_projections_and_snapshot_blocks_refuse_complex_values():
    # A float64 cast would drop the imaginary part with a ComplexWarning.
    tokens = np.ones((2, 2, 3), dtype=complex)
    with pytest.raises(ValueError, match="tokens must hold real values, got dtype complex"):
        FrameFeature(grid_size=2, dim=3, tokens=tokens)
    with pytest.raises(ValueError, match="tokens must hold real values"):
        FrameFeature.from_array(tokens.tolist())
    real, imaginary = np.eye(2), np.eye(2) * 1j
    with pytest.raises(ValueError, match="key_proj must hold real values, got dtype complex"):
        AttentionParams(imaginary, real)
    with pytest.raises(ValueError, match="query_proj must hold real values"):
        AttentionParams(real, imaginary.tolist())
    good = _banks(np.ones((5, 3)))
    for block in (np.ones((1, 3), dtype=complex), [[1.0, 2.0, 1j]]):
        with pytest.raises(ValueError, match="banks must hold real values, got dtype complex"):
            MemorySnapshot(version=1, timestamp_frame=1, banks={**good, "retrieved": [block]})


def test_frame_tokens_and_snapshot_blocks_refuse_non_numeric_dtypes():
    # An object array, even of numbers, or a dict would reach the float64
    # cast and fail there with a bare TypeError; a string array would parse.
    for tokens in (np.array([[[1j]]], dtype=object), np.array([[[1.0]]], dtype=object), {},
                   np.array([[["1.5"]]])):
        with pytest.raises(ValueError, match="tokens must hold real values, got dtype"):
            FrameFeature(1, 1, tokens)
    for block in (np.array([[1j, 1]], dtype=object), np.array([["1", "2"]])):
        with pytest.raises(ValueError, match="banks must hold real values, got dtype"):
            model_module._frozen(block)
    for tokens in (np.ones((1, 1, 2), dtype=bool), np.ones((1, 1, 2), dtype=np.int8)):
        assert FrameFeature(1, 2, tokens).tokens.tolist() == [[[1.0, 1.0]]]


def test_snapshot_reuses_the_previous_snapshots_block_crcs(monkeypatch):
    calls = []

    def counting_crc32(data, value=0):
        calls.append(len(memoryview(data).cast("B")))
        return zlib.crc32(data, value)

    shared = _read_only(np.ones((1 << 10, 8)))  # read-only: shared, not copied
    banks = dict.fromkeys(BANK_ORDER, [shared])
    first = MemorySnapshot(version=1, timestamp_frame=1, banks=banks)
    monkeypatch.setattr(model_module, "zlib", types.SimpleNamespace(crc32=counting_crc32))
    fresh = {**banks, "abstract": [np.ones((1, 8))]}
    second = MemorySnapshot(version=2, timestamp_frame=2, banks=fresh, previous=first)
    # The header and the one new block are read; the shared block is not.
    assert sorted(calls) == [64, struct.calcsize("<qq8q")]
    again = MemorySnapshot(version=2, timestamp_frame=2, banks=fresh)
    assert second.checksum == again.checksum
    with pytest.raises(ValueError, match="previous must be a MemorySnapshot"):
        MemorySnapshot(version=2, timestamp_frame=2, banks=fresh, previous=object())


@given(
    data=st.binary(max_size=3000),
    cuts=st.lists(st.integers(0, 3000), max_size=6),
    start=st.binary(max_size=20),
)
def test_crc_join_equals_crc32_of_the_joined_bytes(data, cuts, start):
    bounds = [0, *sorted(min(c, len(data)) for c in cuts), len(data)]
    crc = zlib.crc32(start)
    for lo, hi in zip(bounds, bounds[1:]):  # repeated cuts give empty pieces
        crc = _crc_join(crc, zlib.crc32(data[lo:hi]), hi - lo)
    assert crc == zlib.crc32(start + data)


def test_crc_join_at_block_sizes_of_the_default_width():
    rng = np.random.default_rng(3)
    head = rng.bytes(56)
    for nbytes in (64 * 1024 * 8, 16 * 1024 * 8, 25 * 1024 * 8, (1 << 24) + 3):
        block = rng.bytes(nbytes)
        got = _crc_join(zlib.crc32(head), zlib.crc32(block), nbytes)
        assert got == zlib.crc32(block, zlib.crc32(head))


def test_snapshot_tokens_read_only():
    snap = _snapshot()
    with pytest.raises(ValueError):
        snap.tokens[0, 0] = 42.0


def test_readme_config_table_matches_memory_config():
    # The README's Configuration table lists every field with its default.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    documented = [(name.strip("`"), default) for name, default, _ in rows]
    expected = [(f.name, str(f.default)) for f in dataclasses.fields(MemoryConfig)]
    assert documented == expected
