"""Bench rows and budgets, PCA export geometry and CSV schema."""

import csv
import io
import types

import numpy as np
import pytest

from streammem import (
    BANK_ORDER,
    FrameFeature,
    MemoryEngine,
    MemorySnapshot,
    bench_latency,
    default_config,
    export_memory_pca,
    synth_stream,
)
import streammem.bench as bench
from streammem.bench import BenchReport, BenchRow, PcaExport

SMALL = default_config(dim=8)


def test_bench_rows_and_budget_columns():
    report = bench_latency(SMALL, frame_counts=[30, 90], queries_per_point=4, seed=1)
    assert [r.frames for r in report.rows] == [30, 90]
    for row in report.rows:
        assert row.mode == "engine"
        assert row.queries == 4
        assert row.bank_tokens == 681  # both counts are past warm-up
        assert row.median_read_ms > 0
        assert row.p95_read_ms >= row.median_read_ms
        assert row.ingest_fps > 0
    assert report.flatness_ratio() >= 1.0


def test_bench_keep_all_tokens_grow_linearly():
    report = bench_latency(
        SMALL, frame_counts=[20, 40, 80], queries_per_point=2, seed=1, keep_all=True
    )
    tokens = [r.bank_tokens for r in report.rows]
    assert tokens == [20 * 64, 40 * 64, 80 * 64]  # exactly 64 per frame
    assert all(r.mode == "keep-all" for r in report.rows)


def test_bench_token_columns_deterministic_across_runs():
    a = bench_latency(SMALL, [25, 50], 2, seed=3)
    b = bench_latency(SMALL, [25, 50], 2, seed=3)
    assert [r.bank_tokens for r in a.rows] == [r.bank_tokens for r in b.rows]
    assert [r.resident_tokens for r in a.rows] == [r.resident_tokens for r in b.rows]


def test_bench_csv_schema():
    report = bench_latency(SMALL, [30], 2, seed=0)
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(rows) == 1
    assert set(rows[0]) == {
        "mode", "frames", "queries", "median_read_ms", "p95_read_ms",
        "ingest_fps", "bank_tokens", "resident_tokens", "rss_mb",
    }
    assert rows[0]["bank_tokens"] == "681"


@pytest.mark.parametrize("sink", ["MemoryEngine", "_KeepAllBaseline"])
def test_bench_builds_one_sink_and_ingests_each_frame_once(monkeypatch, sink):
    built, ingested = [], []

    class Counting(getattr(bench, sink)):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

        def ingest_frame(self, feature):
            ingested.append(feature)
            return super().ingest_frame(feature)

    monkeypatch.setattr(bench, sink, Counting)
    report = bench_latency(SMALL, [3, 5], 2, keep_all=sink == "_KeepAllBaseline")
    assert [r.frames for r in report.rows] == [3, 5]
    assert len(built) == 1
    assert len(ingested) == 5  # max(counts), not sum(counts)


def test_bench_rows_read_the_state_at_their_own_count():
    report = bench_latency(SMALL, [1, 30], 2, seed=1)
    # At one frame: 64 spatial, 16 temporal, 25 abstract and 64 retrieved tokens.
    assert [r.bank_tokens for r in report.rows] == [169, 681]
    # The snapshot plus one buffered 64-token frame per frame so far.
    assert [r.resident_tokens for r in report.rows] == [169 + 64, 681 + 30 * 64]


@pytest.mark.parametrize("platform, mb", [("linux", 3072.0), ("darwin", 3.0)])
def test_rss_mb_reads_ru_maxrss_in_its_platforms_unit(monkeypatch, platform, mb):
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(bench.sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=3 << 20))
    assert bench._rss_mb() == mb


def test_bench_csv_text_is_exact():
    rows = (
        BenchRow("engine", 30, 2, 0.0123456789, 1.5, 1234.56, 681, 2601, 97.25),
        BenchRow("keep-all", 1, 1, 0.5, 0.75, float("inf"), 64, 128, float("nan")),
    )
    assert BenchReport(rows=rows).to_csv() == (
        "mode,frames,queries,median_read_ms,p95_read_ms,ingest_fps,bank_tokens,"
        "resident_tokens,rss_mb\n"
        "engine,30,2,0.012346,1.500000,1234.6,681,2601,97.2\n"
        "keep-all,1,1,0.500000,0.750000,inf,64,128,nan\n"
    )


def test_bench_input_validation():
    with pytest.raises(ValueError):
        bench_latency(SMALL, [], 4)
    with pytest.raises(ValueError):
        bench_latency(SMALL, [0], 4)
    with pytest.raises(ValueError):
        bench_latency(SMALL, [10], 0)
    with pytest.raises(ValueError, match="frame_counts"):  # a bare count
        bench_latency(SMALL, 5, 1)


def test_bench_refuses_a_torn_snapshot(monkeypatch):
    monkeypatch.setattr(MemorySnapshot, "verify_checksum", lambda self: False)
    with pytest.raises(AssertionError, match="torn snapshot observed at frame 3"):
        bench_latency(SMALL, [3], 1)


def test_keep_all_reads_a_snapshot_of_every_kept_frame(monkeypatch):
    baseline = bench._KeepAllBaseline(SMALL)
    frames = list(synth_stream(1, 3, 1, SMALL.p_spa, SMALL.dim))
    for frame in frames:
        baseline.ingest_frame(frame)
    snap = baseline.read_snapshot()
    assert snap.bank_lengths == (3 * 64, 0, 0, 0) and snap.verify_checksum()
    spatial = snap.blocks[BANK_ORDER.index("spatial")]
    # Each kept frame is shared as it is, not copied into the snapshot.
    assert all(np.shares_memory(block, f.tokens) for block, f in zip(spatial, frames))
    monkeypatch.setattr(MemorySnapshot, "verify_checksum", lambda self: False)
    with pytest.raises(AssertionError, match="torn snapshot observed at frame 3"):
        bench_latency(SMALL, [3], 1, keep_all=True)


@pytest.mark.parametrize("seed", [1.5, -1, "x", True])
def test_bench_refuses_a_bad_seed_up_front(seed):
    with pytest.raises(ValueError, match="seed"):
        bench_latency(SMALL, [2], 1, seed=seed)


def _snapshot_from(tokens, lengths=None):
    tokens = np.asarray(tokens, dtype=float)
    lengths = lengths or (tokens.shape[0], 0, 0, 0)
    blocks = np.split(tokens, np.cumsum(lengths)[:-1])
    return MemorySnapshot(
        version=1, timestamp_frame=1, banks={n: [b] for n, b in zip(BANK_ORDER, blocks)}
    )


def test_pca_on_2d_data_preserves_pairwise_distances():
    rng = np.random.default_rng(0)
    tokens = rng.normal(size=(12, 2)) @ np.array([[3.0, 0.0], [0.0, 0.5]])
    export = export_memory_pca(_snapshot_from(tokens), [])
    assert not export.degenerate
    orig = np.linalg.norm(tokens[:, None] - tokens[None, :], axis=-1)
    proj = np.linalg.norm(export.coords[:, None] - export.coords[None, :], axis=-1)
    assert np.max(np.abs(orig - proj)) < 1e-6


def test_pca_all_identical_tokens_degenerate():
    export = export_memory_pca(_snapshot_from(np.ones((5, 3))), [])
    assert export.degenerate
    assert export.to_csv().splitlines()[0] == "# degenerate_axes=true"


def test_pca_rank_one_data_degenerate():
    line = np.outer(np.arange(6, dtype=float), np.array([1.0, 2.0, 0.0]))
    export = export_memory_pca(_snapshot_from(line), [])
    assert export.degenerate
    assert np.max(np.abs(export.coords[:, 1])) < 1e-6  # no second-axis spread


def test_pca_labels_banks_and_csv():
    rng = np.random.default_rng(1)
    tokens = rng.normal(size=(6, 4))
    raw = [FrameFeature.from_array(rng.normal(size=(2, 2, 4)))]
    export = export_memory_pca(_snapshot_from(tokens, (2, 2, 1, 1)), raw)
    assert export.labels.count("memory") == 6
    assert export.labels.count("raw") == 4
    assert export.banks[:6] == ("spatial", "spatial", "temporal", "temporal",
                                "abstract", "retrieved")
    assert set(export.banks[6:]) == {"raw"}
    lines = export.to_csv().splitlines()
    header_at = 1 if export.degenerate else 0
    assert lines[header_at] == "x,y,label,bank"
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[header_at:]))))
    assert len(rows) == 10
    assert {r["label"] for r in rows} == {"memory", "raw"}


def test_pca_csv_text_is_exact():
    coords = np.array([[0.1, -2.0], [3e-05, 0.0]])
    export = PcaExport(coords, ("memory", "raw"), ("spatial", "raw"), degenerate=True)
    assert export.to_csv() == (
        "# degenerate_axes=true\nx,y,label,bank\n0.1,-2.0,memory,spatial\n3e-05,0.0,raw,raw\n"
    )
    plain = PcaExport(coords[:1], ("memory",), ("spatial",), degenerate=False)
    assert plain.to_csv() == "x,y,label,bank\n0.1,-2.0,memory,spatial\n"


def test_pca_needs_three_tokens():
    with pytest.raises(ValueError, match="3 tokens"):
        export_memory_pca(_snapshot_from(np.ones((2, 3))), [])


def test_pca_dim_mismatch_rejected():
    raw = [FrameFeature.from_array(np.zeros((2, 2, 5)))]
    with pytest.raises(ValueError, match="dim"):
        export_memory_pca(_snapshot_from(np.ones((4, 3))), raw)


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(2)
    tokens = rng.normal(size=(9, 3))
    a = export_memory_pca(_snapshot_from(tokens), [])
    b = export_memory_pca(_snapshot_from(tokens), [])
    assert np.array_equal(a.coords, b.coords)
    for j in range(2):
        col_weights = a.coords[:, j]
        assert np.isfinite(col_weights).all()


def test_pca_three_scene_centroids_inside_scene_hulls():
    from scipy.spatial import Delaunay

    cfg = default_config(p_spa=4, p_tem=2, p_abs=1, dim=6, n_abs=5, n_ret=3)
    stream = synth_stream(11, 30, 3, 4, 6)
    engine = MemoryEngine(cfg)
    scenes_of_centroid = [stream.scene_of(i) for i in range(25)]
    raw = []
    for idx, frame in enumerate(stream):
        engine.ingest_frame(frame)
        raw.append(frame)
        state = engine.last_cluster_state
        if state is not None:
            new_scenes = [set() for _ in range(25)]
            member_scene = scenes_of_centroid + [stream.scene_of(idx)]
            for point, cluster in enumerate(state.assignments):
                new_scenes[cluster].add(member_scene[point])
            assert all(len(s) == 1 for s in new_scenes)  # clusters stay scene-pure
            scenes_of_centroid = [s.pop() for s in new_scenes]

    export = export_memory_pca(engine.read_snapshot(), raw)
    coords = export.coords
    mem = coords[: engine.read_snapshot().token_count]
    raw_coords = coords[engine.read_snapshot().token_count :]
    tem_rows = [i for i, b in enumerate(export.banks) if b == "temporal"]
    tokens_per_frame = 16
    tokens_per_centroid = 4
    for row_pos, row_idx in enumerate(tem_rows):
        centroid = row_pos // tokens_per_centroid
        scene = scenes_of_centroid[centroid]
        frame_rows = [
            f * tokens_per_frame + j
            for f in range(30)
            if stream.scene_of(f) == scene
            for j in range(tokens_per_frame)
        ]
        hull = Delaunay(raw_coords[frame_rows])
        assert hull.find_simplex(mem[row_idx]) >= 0
