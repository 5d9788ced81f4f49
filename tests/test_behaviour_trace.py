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
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from streammem import MemoryEngine, average_pool, default_config, synth_stream

FIXTURE = Path(__file__).with_name("data") / "behaviour_trace.npz"
N_FRAMES = 60
RTOL = 1e-12

# name -> (config, input grid side); the stream is synth_stream(seed 7, 4 scenes).
TRACES = {
    "defaults": (default_config(dim=16), 8),
    "wrap_softmax": (default_config(dim=16, n_buff=15, p_abs=2), 8),
    "grid16": (default_config(dim=16, n_buff=25), 16),
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
        counts.append(list(engine.bank_token_counts().values()) + [engine.resident_token_count()])
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


def digest(config, grid: int) -> str:
    """SHA-256 over every frame's snapshot (tokens, offsets, checksum, version),
    last k-means run (assignments, centroids, weights) and temporal weights."""
    engine = MemoryEngine(config)
    sha = hashlib.sha256()
    for frame in synth_stream(7, N_FRAMES, 4, grid, config.dim):
        engine.ingest_frame(frame)
        snap = engine.read_snapshot()
        sha.update(snap.tokens.tobytes())
        sha.update(repr((snap.bank_offsets, snap.checksum, snap.version)).encode())
        state = engine.last_cluster_state
        if state is not None:
            for arr in (state.assignments, state.centroids, state.weights):
                sha.update(np.ascontiguousarray(arr).tobytes())
        sha.update(engine.temporal_weights.tobytes())
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


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        for name, spec in TRACES.items():
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
