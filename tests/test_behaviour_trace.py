"""Behaviour trace: the engine's per-frame decisions against a recorded fixture.

For each traced config the fixture holds, per frame, the bank token counts and
resident token count, the last k-means assignments, the retrieved picks as
ages (frames back from the newest ingested frame), and the snapshot token
sum, absolute sum and sum of squares; plus the final snapshot's tokens.
Discrete fields must match exactly; floats to 1e-12 relative.

Re-record only when a change is meant to alter behaviour:

    PYTHONPATH=src python tests/test_behaviour_trace.py --record

A refactor that claims bit-identical outputs can compare, before and after,
one SHA-256 per traced config over every frame's exact bytes:

    PYTHONPATH=src python tests/test_behaviour_trace.py --digest

It also prints ``wide512``, a config the fixture does not record: at dim 512
the temporal bank keeps one block per row, which no dim-16 config reaches.
The lines also cover both ways the engine's spatial ring stores a frame that
the latest snapshot does not list: ``defaults``, ``wrap_softmax`` and
``wide512`` the float32 copy (60 of their 60 p_spa blocks are float32-exact),
``grid16`` the float64 fallback (0 of 60 are: pooling grid 16 to p_spa 8
averages four values); ``test_digest_streams_cover_both_ring_paths`` checks it.
The ``defaults`` and ``grid16`` lines depend on the numpy version, but they
matched on five OpenBLAS kernels (Prescott to SkylakeX) and on one thread or
two: retrieval and the temporal merge bound their products' rounding and
settle near ties exactly, and the k-means fallback's assignments did not move.
Only ``wrap_softmax`` (``p_abs=2``) reads attention scores straight from BLAS
products, so only its line changes with the kernel.
``data/portable_digests.txt`` records the portable lines with the numpy
version that printed them, and ``test_portable_digest_matches_record``
compares them when that version runs.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from streammem import MemoryEngine, default_config, synth_stream
from streammem.pooling import average_pool

FIXTURE = Path(__file__).with_name("data") / "behaviour_trace.npz"
PORTABLE_DIGESTS = Path(__file__).with_name("data") / "portable_digests.txt"
N_FRAMES = 60
RTOL = 1e-12

# name -> (config, input grid side); the stream is synth_stream(seed 7, 4 scenes).
TRACES = {
    "defaults": (default_config(dim=16), 8),
    "wrap_softmax": (default_config(dim=16, n_buff=15, p_abs=2), 8),
    "grid16": (default_config(dim=16, n_buff=25), 16),
}
# Configs that only --digest runs. At dim 512 a temporal row reaches the
# temporal bank's 64 KB ``_SHARE_BYTES``, so it keeps one block per row,
# a path that no dim-16 config reaches.
DIGESTS = {
    **TRACES,
    "wide512": (default_config(dim=512, n_buff=25), 8),
}


def _ages(retrieved: np.ndarray, history: list, block: int) -> list[int]:
    """Age of each retrieved frame: index of the newest matching buffer frame."""
    ages = []
    for start in range(0, retrieved.shape[0], block):
        rows = retrieved[start : start + block]
        ages.append(next((a for a, f in enumerate(history) if np.array_equal(f, rows)), -2))
    return ages


def record(config, grid: int) -> dict[str, np.ndarray]:
    engine = MemoryEngine(config)
    stream = synth_stream(7, N_FRAMES, 4, grid, config.dim)
    history: list = []  # spatial-grid token matrices of the buffer, newest first
    counts, assigns, ages, sums = [], [], [], []
    for frame in stream:
        engine.ingest_frame(frame)
        spatial = average_pool(frame.tokens, config.p_spa).reshape(-1, config.dim)
        history = [spatial] + history[: config.n_buff - 1]
        snap = engine.read_snapshot()
        counts.append(list(snap.bank_lengths) + [engine.resident_token_count()])
        state = engine.last_cluster_state
        row = np.full(config.n_tem + 1, -1)
        if state is not None:
            row[: len(state.assignments)] = state.assignments
        assigns.append(row)
        picked = _ages(snap.bank("retrieved"), history, config.p_spa**2)
        ages.append(picked + [-1] * (config.n_ret - len(picked)))
        tokens = snap.tokens
        sums.append([tokens.sum(), np.abs(tokens).sum(), (tokens**2).sum()])
    return {
        "counts": np.array(counts),
        "assignments": np.array(assigns),
        "ages": np.array(ages),
        "sums": np.array(sums),
        "final_tokens": engine.read_snapshot().tokens,
    }


def frame_record(engine) -> list[bytes]:
    """Exact bytes of the engine's state after a frame: the snapshot (tokens,
    offsets, checksum, version), the last k-means run (assignments, centroids,
    weights) and the temporal weights."""
    snap = engine.read_snapshot()
    parts = [
        snap.tokens.tobytes(),
        repr((snap.bank_offsets, snap.checksum, snap.version)).encode(),
    ]
    state = engine.last_cluster_state
    if state is not None:
        parts += [
            np.ascontiguousarray(arr).tobytes()
            for arr in (state.assignments, state.centroids, state.weights)
        ]
    parts.append(engine.temporal_weights.tobytes())
    return parts


def digest(config, grid: int) -> str:
    """SHA-256 over every frame's ``frame_record``."""
    engine = MemoryEngine(config)
    sha = hashlib.sha256()
    for frame in synth_stream(7, N_FRAMES, 4, grid, config.dim):
        engine.ingest_frame(frame)
        for part in frame_record(engine):
            sha.update(part)
    return sha.hexdigest()


@pytest.fixture(scope="module")
def fixture():
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_matches_fixture(name, fixture):
    got = record(*TRACES[name])
    want = {key: fixture[f"{name}/{key}"] for key in got}
    for key in ("counts", "assignments", "ages"):
        assert np.array_equal(got[key], want[key]), key
    assert (want["ages"] >= -1).all()  # every recorded pick was a buffer frame
    # The token sum is judged against the magnitude of its terms (absolute sum).
    scale = want["sums"][:, 1]
    assert np.all(np.abs(got["sums"][:, 0] - want["sums"][:, 0]) <= RTOL * scale)
    np.testing.assert_allclose(got["sums"][:, 1:], want["sums"][:, 1:], rtol=RTOL, atol=0)
    final = want["final_tokens"]
    np.testing.assert_allclose(
        got["final_tokens"], final, rtol=RTOL, atol=RTOL * np.abs(final).max()
    )


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_digest_streams_cover_both_ring_paths(name):
    config, grid = DIGESTS[name]
    engine = MemoryEngine(config)
    for frame in synth_stream(7, N_FRAMES, 4, grid, config.dim):
        engine.ingest_frame(frame)
    ring = engine._spatial_ring
    buffered = [s for s in range(config.n_buff) if ring[s] is not None]
    unlisted = [ring[s] for s in buffered if s not in engine._listed]
    assert len(buffered) == min(N_FRAMES, config.n_buff) and unlisted
    float32 = sum(block.dtype == np.float32 for block in unlisted)
    assert (float32 > 0) == (name != "grid16"), float32


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_digest_streams_cover_both_retrieval_paths(name):
    """Every engine's retrieval searches its ``PooledRing``. Only
    ``wide512``'s pooled rows reach retrieval's ``_CARRY_BYTES``, so only its
    intervals carry, and once its buffer is full most of its frames read fewer
    rows than the buffer holds; the others read every row on every frame."""
    config, grid = DIGESTS[name]
    engine = MemoryEngine(config)
    ring, n = engine._ring, config.n_buff
    read = []
    for frame in synth_stream(7, N_FRAMES, 4, grid, config.dim):
        before = ring.rows_read
        engine.ingest_frame(frame)
        read.append(ring.rows_read - before)
    if name != "wide512":
        assert read == [min(t, n) for t in range(1, N_FRAMES + 1)]
        assert ring.full_passes == N_FRAMES
        return
    later = read[n:]
    assert sum(r < n for r in later) > len(later) / 2, later


def _portable_digests() -> dict[str, str]:
    """``numpy`` -> the recording numpy version, and config name -> digest."""
    lines = PORTABLE_DIGESTS.read_text().splitlines()
    return dict(line.split() for line in lines if line and not line.startswith("#"))


@pytest.mark.parametrize("name", sorted(set(_portable_digests()) - {"numpy"}))
def test_portable_digest_matches_record(name):
    recorded = _portable_digests()
    if np.__version__ != recorded["numpy"]:
        pytest.skip(
            f"the digests were recorded with numpy {recorded['numpy']}; numpy "
            f"{np.__version__} may round its sums differently"
        )
    assert digest(*DIGESTS[name]) == recorded[name]


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        for name, spec in DIGESTS.items():
            print(f"{name} {digest(*spec)}")
        sys.exit(0)
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    arrays = {
        f"{name}/{key}": value
        for name, spec in TRACES.items()
        for key, value in record(*spec).items()
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez_compressed(FIXTURE, **arrays)
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
