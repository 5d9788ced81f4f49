"""Domain types, budget arithmetic, config validation, snapshot integrity."""

import dataclasses
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streammem import (
    ConfigError,
    FrameFeature,
    MemoryConfig,
    MemorySnapshot,
    ShapeError,
    default_config,
    max_tokens,
    validate_config,
)


def test_max_tokens_defaults_is_681():
    assert max_tokens(default_config()) == 681


def test_max_tokens_single_token_degenerate():
    cfg = MemoryConfig(n_spa=0, n_ret=0, n_tem=1, p_tem=1, n_abs=0)
    assert max_tokens(cfg) == 1


def test_max_tokens_hand_arithmetic():
    cfg = MemoryConfig(n_spa=2, n_ret=2, p_spa=4, n_tem=10, p_tem=2, n_abs=5, p_abs=1)
    assert max_tokens(cfg) == 4 * 16 + 10 * 4 + 5 == 109


@given(
    p_spa=st.integers(1, 32),
    p_tem=st.integers(1, 32),
    p_abs=st.integers(1, 32),
    n_buff=st.integers(1, 500),
    n_spa=st.integers(0, 10),
    n_tem=st.integers(0, 50),
    n_abs=st.integers(0, 50),
    n_ret=st.integers(0, 10),
)
def test_max_tokens_is_exact_integer_arithmetic(
    p_spa, p_tem, p_abs, n_buff, n_spa, n_tem, n_abs, n_ret
):
    cfg = MemoryConfig(
        p_spa=p_spa, p_tem=p_tem, p_abs=p_abs, n_buff=n_buff,
        n_spa=n_spa, n_tem=n_tem, n_abs=n_abs, n_ret=n_ret,
    )
    expected = (n_spa + n_ret) * p_spa**2 + n_tem * p_tem**2 + n_abs * p_abs**2
    value = max_tokens(cfg)
    assert isinstance(value, int)
    assert value == expected


def test_validate_decay_out_of_range():
    with pytest.raises(ConfigError, match="decay out of range"):
        validate_config(default_config(decay_alpha=1.5))
    with pytest.raises(ConfigError, match="decay out of range"):
        validate_config(default_config(decay_alpha=0.0))
    with pytest.raises(ConfigError, match="decay out of range"):
        validate_config(default_config(decay_alpha=float("nan")))


def test_validate_capacity_orderings():
    with pytest.raises(ConfigError, match="n_spa"):
        validate_config(default_config(n_spa=301))
    with pytest.raises(ConfigError, match="n_ret"):
        validate_config(default_config(n_ret=26))
    with pytest.raises(ConfigError, match="bank grid order"):
        validate_config(default_config(p_tem=16))


def test_validate_positive_integer_fields():
    with pytest.raises(ConfigError, match="n_tem"):
        validate_config(default_config(n_tem=0))
    with pytest.raises(ConfigError, match="dim"):
        validate_config(default_config(dim=-4))
    # bools are ints in Python; they must still be rejected as capacities
    with pytest.raises(ConfigError, match="n_ret"):
        validate_config(default_config(n_ret=True))
    with pytest.raises(ConfigError, match="kmeans_max_iters"):
        validate_config(default_config(kmeans_max_iters=2.5))


def test_validate_checks_every_field():
    # One bad value per field; a new field must join this table to pass.
    bad = {
        "p_spa": 0, "p_tem": -1, "p_abs": 1.0, "n_buff": 0, "n_spa": True,
        "n_tem": 0, "n_abs": 0, "n_ret": -3, "dim": 0, "kmeans_max_iters": 0,
        "decay_alpha": 1.0, "rng_seed": 1.5,
    }
    assert set(bad) == {f.name for f in dataclasses.fields(MemoryConfig)}
    for name, value in bad.items():
        with pytest.raises(ConfigError, match=name):
            validate_config(default_config(**{name: value}))


def test_validate_rng_seed_and_warm_start_types():
    for seed in (-1, 1.5, True, "0"):
        with pytest.raises(ConfigError, match="rng_seed"):
            validate_config(default_config(rng_seed=seed))
    validate_config(default_config(rng_seed=np.int64(3)))


@given(
    alpha=st.floats(allow_nan=True, allow_infinity=True),
    n_tem=st.integers(-5, 50),
)
def test_validate_is_total(alpha, n_tem):
    cfg = default_config(decay_alpha=alpha, n_tem=n_tem)
    try:
        validate_config(cfg)
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


def test_frame_feature_is_immutable_and_copies_input():
    src = np.arange(12, dtype=float).reshape(2, 2, 3)
    frame = FrameFeature.from_array(src)
    src[0, 0, 0] = 99.0
    assert frame.tokens[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        frame.tokens[0, 0, 0] = 1.0
    assert frame.token_matrix.shape == (4, 3)
    assert np.array_equal(frame.token_matrix[3], frame.tokens[1, 1])


def test_frame_feature_from_array_rejects_non_square():
    with pytest.raises(ShapeError):
        FrameFeature.from_array(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        FrameFeature.from_array(np.zeros((2, 2)))


def _snapshot(version=1, t=1, rows=5, dim=3, offsets=((0, 2), (2, 1), (3, 0), (3, 2))):
    return MemorySnapshot(
        version=version,
        timestamp_frame=t,
        tokens=np.arange(rows * dim, dtype=float).reshape(rows, dim),
        bank_offsets=offsets,
    )


def test_snapshot_offsets_must_partition():
    with pytest.raises(ShapeError):
        _snapshot(offsets=((0, 2), (2, 2), (4, 0), (4, 2)))  # covers 6 of 5
    with pytest.raises(ShapeError):
        _snapshot(offsets=((0, 2), (3, 1), (4, 0), (4, 1)))  # gap at 2
    with pytest.raises(ShapeError):
        _snapshot(offsets=((0, 2), (2, 1), (3, 2)))  # three banks


def test_snapshot_bank_slices():
    snap = _snapshot()
    assert snap.token_count == 5
    assert snap.bank("spatial").shape == (2, 3)
    assert snap.bank("temporal").shape == (1, 3)
    assert snap.bank("abstract").shape == (0, 3)
    assert snap.bank("retrieved").shape == (2, 3)
    assert np.array_equal(snap.bank("temporal")[0], snap.tokens[2])


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
        tokens=np.arange(15, dtype=float).reshape(5, 3) + 1.0,
        bank_offsets=((0, 2), (2, 1), (3, 0), (3, 2)),
    )
    assert other.checksum != base.checksum


def test_snapshot_checksum_is_crc_of_header_then_token_bytes():
    # Non-contiguous input: the snapshot stores a C-contiguous copy, and the
    # checksum is CRC-32 over the packed header, then the row-major tokens.
    tokens = np.arange(15, dtype=float).reshape(3, 5).T
    assert not tokens.flags.c_contiguous
    offsets = ((0, 1), (1, 2), (3, 0), (3, 2))
    snap = MemorySnapshot(version=4, timestamp_frame=9, tokens=tokens, bank_offsets=offsets)
    header = struct.pack("<qq", 4, 9) + struct.pack("<8q", *(v for pair in offsets for v in pair))
    assert snap.checksum == zlib.crc32(tokens.tobytes(), zlib.crc32(header))
    assert snap.verify_checksum()
    empty = MemorySnapshot(version=0, timestamp_frame=0, tokens=np.zeros((0, 3)),
                           bank_offsets=((0, 0),) * 4)
    assert empty.checksum == zlib.crc32(struct.pack("<qq8q", *[0] * 10))


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
