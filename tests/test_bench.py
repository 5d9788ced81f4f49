"""Bench rows and budgets, sweep cells, PCA export geometry and CSV schema."""

import csv
import io

import numpy as np
import pytest

from streammem import (
    ConfigError,
    FrameFeature,
    MemoryEngine,
    MemorySnapshot,
    bench_latency,
    default_config,
    export_memory_pca,
    sweep_ablation,
    synth_stream,
)
from streammem.bench import SweepReport

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


def test_bench_input_validation():
    with pytest.raises(ValueError):
        bench_latency(SMALL, [], 4)
    with pytest.raises(ValueError):
        bench_latency(SMALL, [0], 4)
    with pytest.raises(ValueError):
        bench_latency(SMALL, [10], 0)


def test_sweep_known_budgets():
    base = default_config(dim=8)
    report = sweep_ablation({"p_spa": [8, 16]}, base, frames=40)
    budgets = {dict(r.overrides)["p_spa"]: r.budget for r in report.rows}
    assert budgets == {8: 681, 16: (1 + 3) * 256 + 25 * 16 + 25}
    assert budgets[16] == 1449
    for row in report.rows:
        assert row.ok and row.invariants_ok
        assert row.final_tokens == row.budget  # 40 frames is past warm-up


def test_sweep_ntem_nabs_budget():
    report = sweep_ablation({"n_tem": [8], "n_abs": [8], "n_ret": [3]},
                            default_config(dim=8), frames=30)
    (row,) = report.rows
    assert row.budget == (1 + 3) * 64 + 8 * 16 + 8 == 392
    assert row.ok and row.invariants_ok


def test_sweep_skips_invalid_cells_with_reason():
    report = sweep_ablation(
        {"p_tem": [3, 4], "n_tem": [25]}, default_config(dim=8), frames=20
    )
    by_ptem = {dict(r.overrides)["p_tem"]: r for r in report.rows}
    assert not by_ptem[3].ok
    assert "pooling not exact" in by_ptem[3].reason
    assert by_ptem[3].budget == 0
    assert by_ptem[4].ok


def test_sweep_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config field"):
        sweep_ablation({"bogus": [1]}, default_config(dim=8))


def test_sweep_csv_parses():
    report = sweep_ablation({"n_tem": [4, 8]}, default_config(dim=8), frames=20)
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert [r["overrides"] for r in rows] == ["n_tem=4", "n_tem=8"]
    assert all(r["ok"] == "1" for r in rows)


def test_sweep_csv_round_trips_commas_quotes_and_newlines():
    # A list value puts commas in the overrides and in the reason; a string
    # value puts a quote and a newline in the overrides.
    base = default_config(dim=8)
    listed = sweep_ablation({"n_tem": [[1, 2], 8]}, base, frames=20)
    text = SweepReport(listed.rows + sweep_ablation({"dim": ['x"y\nz']}, base).rows).to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert [len(r) for r in rows] == [7] * 4
    assert rows[1][:3] == ["n_tem=[1, 2]", "0", "n_tem must be a positive integer, got [1, 2]"]
    assert rows[2][:2] == ["n_tem=8", "1"]
    assert rows[3][:2] == ['dim=x"y\nz', "0"] and "dim" in rows[3][2]
    assert text.splitlines()[2].startswith("n_tem=8,1,,409,409,1,")  # plain cells stay unquoted


def _snapshot_from(tokens, lengths=None):
    tokens = np.asarray(tokens, dtype=float)
    lengths = lengths or (tokens.shape[0], 0, 0, 0)
    return MemorySnapshot(version=1, timestamp_frame=1, tokens=tokens, bank_lengths=lengths)


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
