"""End-to-end CLI coverage: every subcommand in-process, one real pipe."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import streammem
from streammem import AttentionParams, save_attention_params
from streammem.cli import _make_engine, build_parser, main
from streammem.streamio import read_header


def _synth(tmp_path, name="s.fvs", frames=30, grid=8, dim=6, scenes=3, seed=0):
    path = tmp_path / name
    rc = main([
        "synth", "--seed", str(seed), "--frames", str(frames),
        "--scenes", str(scenes), "--grid", str(grid), "--dim", str(dim),
        "-o", str(path),
    ])
    assert rc == 0
    return path


def test_synth_writes_valid_header_and_is_deterministic(tmp_path, capsys):
    a = _synth(tmp_path, "a.fvs")
    err = capsys.readouterr().err
    assert "wrote 30 frames" in err
    header = read_header(a)
    assert (header.grid_side, header.dim, header.frame_count) == (8, 6, 30)
    b = _synth(tmp_path, "b.fvs")
    assert a.read_bytes() == b.read_bytes()


def test_ingest_reports_budget_and_version(tmp_path, capsys):
    path = _synth(tmp_path)
    capsys.readouterr()
    assert main(["ingest", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("frames=30 version=30")
    assert out[1].endswith("total=681 budget=681")
    assert "spatial=64" in out[1] and "temporal=400" in out[1]


def test_ingest_with_config_overrides(tmp_path, capsys):
    path = _synth(tmp_path, grid=4)
    capsys.readouterr()
    rc = main([
        "ingest", str(path),
        "--config", "p_spa=4", "--config", "p_tem=2", "--config", "p_abs=1",
    ])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith("total=189 budget=189")  # 4*16 + 25*4 + 25


def test_ingest_grid_config_mismatch_exits_2(tmp_path, capsys):
    path = _synth(tmp_path, grid=4)  # default p_spa=8 cannot pool 4 -> 8
    assert main(["ingest", str(path)]) == 2
    assert "pooling not exact" in capsys.readouterr().err


def test_bad_rng_seed_exits_2(tmp_path, capsys):
    path = _synth(tmp_path)
    capsys.readouterr()
    assert main(["ingest", str(path), "--config", "rng_seed=1.5"]) == 2
    assert "rng_seed" in capsys.readouterr().err


def test_config_values_are_numbers_and_dim_has_one_flag(tmp_path, capsys):
    # No config field is a bool, so true/false are not values; bench and
    # sweep take their dim only as --config dim=N.
    path = _synth(tmp_path)
    for argv in (
        ["ingest", str(path), "--config", "p_spa=true"],
        ["bench", "--config", "p_spa=false"],
        ["bench", "--dim", "4"],
        ["sweep", "--grid", "{}", "--dim", "4"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert ("cannot parse value" if "--config" in argv else "--dim") in err, argv


def test_oversized_buffer_config_is_refused_before_allocating(tmp_path, capsys):
    # 10**12 buffered frames would ask numpy for 1.8 PiB, which it refuses
    # at once; the config check must answer first, with one line.
    path = _synth(tmp_path)
    capsys.readouterr()
    assert main(["ingest", str(path), "--config", "n_buff=1000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "buffer too large" in err
    grid = '{"n_buff": [1000000000000, 300]}'
    assert main(["sweep", "--grid", grid, "--frames", "5"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["ok"] for r in rows] == ["0", "1"]
    assert "buffer too large" in rows[0]["reason"]


def test_params_file_round_trip_sets_decay(tmp_path, capsys):
    # The file carries projections only; the decay comes from --config.
    path = _synth(tmp_path)
    params = tmp_path / "p.atp"
    saved = AttentionParams.seeded(6, seed=3)
    save_attention_params(saved, params)
    argv = ["ingest", str(path), "--params", str(params), "--config", "decay_alpha=0.3"]
    capsys.readouterr()
    assert main(argv) == 0
    assert "total=681 budget=681" in capsys.readouterr().out
    engine = _make_engine(build_parser().parse_args(argv), 6)
    assert engine.config.decay_alpha == 0.3
    assert engine.params.key_proj.tobytes() == saved.key_proj.tobytes()
    assert engine.params.query_proj.tobytes() == saved.query_proj.tobytes()


def test_config_flag_rejects_unknown_field(tmp_path):
    path = _synth(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["ingest", str(path), "--config", "bogus=1"])
    assert exc.value.code == 2


def test_missing_stream_file_exits_2(tmp_path, capsys):
    assert main(["ingest", "/nonexistent/stream.fvs"]) == 2
    assert "error" in capsys.readouterr().err
    # Any OSError is an input error, not a traceback; a directory is one.
    assert main(["ingest", str(tmp_path)]) == 2
    assert "streammem: error:" in capsys.readouterr().err


def test_params_flag_only_where_an_engine_reads_it(tmp_path, capsys):
    # bench and sweep seed their own engines: --params there is a usage error.
    for argv in (
        ["bench", "--frames", "5", "--queries", "1", "--config", "dim=4"],
        ["sweep", "--grid", "{}", "--frames", "5", "--config", "dim=4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--params", "/nonexistent/p.atp"])
        assert exc.value.code == 2
        assert "--params" in capsys.readouterr().err
    stream = _synth(tmp_path)
    trip = tmp_path / "trip.json"
    trip.write_text(json.dumps([{"id": "q", "frame_timestamp": 1}]))
    for argv in (
        ["ingest", str(stream)],
        ["replay", str(trip), str(stream)],
        ["export-pca", str(stream), "--at-frame", "3"],
    ):
        assert main(argv + ["--params", "/nonexistent/p.atp"]) == 2
        assert "p.atp" in capsys.readouterr().err


def test_replay_answers_queries_in_timestamp_order(tmp_path):
    stream = _synth(tmp_path, frames=12)
    trip = tmp_path / "trip.json"
    trip.write_text(json.dumps([
        {"id": "q-late", "frame_timestamp": 9},
        {"id": "q-early", "frame_timestamp": 2},
        {"id": "q-beyond", "frame_timestamp": 40},
    ]))
    out = tmp_path / "log.csv"
    assert main(["replay", str(trip), str(stream), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["question_id"] for r in rows] == ["q-early", "q-late", "q-beyond"]
    assert [r["version"] for r in rows] == ["2", "9", "12"]
    assert [r["timestamp_frame"] for r in rows] == ["2", "9", "12"]
    assert all(r["stale"] == "0" for r in rows)


def test_replay_log_goes_to_stdout_without_out(tmp_path, capsys):
    stream = _synth(tmp_path, frames=12)
    trip = tmp_path / "trip.json"
    trip.write_text(json.dumps([{"id": "q", "frame_timestamp": 5}]))
    capsys.readouterr()
    assert main(["replay", str(trip), str(stream)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["question_id"], r["version"]) for r in rows] == [("q", "5")]
    assert main(["replay", str(trip), str(stream), "--out", "-"]) == 0
    assert list(csv.DictReader(capsys.readouterr().out.splitlines())) == rows


def test_replay_log_round_trips_ids_with_commas_quotes_and_newlines(tmp_path):
    stream = _synth(tmp_path, frames=5)
    ids = ["a,b", "line\nbreak", 'say "hi"', "cr\rx", "plain"]
    trip = tmp_path / "trip.json"
    trip.write_text(json.dumps([{"id": q, "frame_timestamp": t} for t, q in enumerate(ids)]))
    out = tmp_path / "log.csv"
    assert main(["replay", str(trip), str(stream), "--out", str(out)]) == 0
    text = out.read_bytes().decode()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["question_id", "frame_timestamp", "version", "timestamp_frame", "stale"]
    assert [r[:2] for r in rows[1:]] == [[q, str(t)] for t, q in enumerate(ids)]
    assert all(len(r) == 5 for r in rows)
    assert text.endswith("\nplain,4,4,4,0\n")  # plain cells stay unquoted


def test_replay_rejects_malformed_triplets(tmp_path, capsys):
    stream = _synth(tmp_path)
    trip = tmp_path / "bad.json"
    trip.write_text(json.dumps({"id": "x"}))
    assert main(["replay", str(trip), str(stream)]) == 2
    assert "JSON array" in capsys.readouterr().err

    trip.write_text(json.dumps([{"id": "x"}]))
    assert main(["replay", str(trip), str(stream)]) == 2

    # Only a non-negative JSON integer is a timestamp; anything else, such as
    # a fraction, a bool, a negative or a numeric string, names its triplet.
    for bad in ("null", "1e400", '"soon"', "NaN", "2.7", "true", '"-5"', "-1", '"7"'):
        trip.write_text(f'[{{"id": "a", "frame_timestamp": 3}}, '
                        f'{{"id": "b", "frame_timestamp": {bad}}}]')
        capsys.readouterr()
        assert main(["replay", str(trip), str(stream)]) == 2, bad
        assert "triplet 1" in capsys.readouterr().err, bad


def test_bench_writes_csv_rows(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench", "--frames", "20,40", "--queries", "2", "--config", "dim=8",
        "--csv", str(out),
    ])
    assert rc == 0
    assert "flatness_ratio=" in capsys.readouterr().err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["mode"], r["frames"]) for r in rows] == [("engine", "20"), ("engine", "40")]


def test_bench_keep_all_appends_baseline_rows(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench", "--frames", "10,20", "--queries", "2", "--config", "dim=8",
        "--keep-all", "--csv", str(out),
    ])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["mode"] for r in rows] == ["engine", "engine", "keep-all", "keep-all"]
    assert [r["bank_tokens"] for r in rows[2:]] == ["640", "1280"]


def test_sweep_grid_inline_and_from_file(tmp_path):
    inline = tmp_path / "inline.csv"
    rc = main([
        "sweep", "--grid", '{"n_tem": [4, 8]}', "--frames", "30",
        "--config", "dim=8", "--csv", str(inline),
    ])
    assert rc == 0
    rows = list(csv.DictReader(inline.read_text().splitlines()))
    assert [r["overrides"] for r in rows] == ["n_tem=4", "n_tem=8"]
    assert all(r["ok"] == "1" and r["invariants_ok"] == "1" for r in rows)

    grid_file = tmp_path / "grid.json"
    grid_file.write_text('{"n_tem": [4, 8]}')
    from_file = tmp_path / "fromfile.csv"
    rc = main(["sweep", "--grid", f"@{grid_file}", "--frames", "30",
               "--config", "dim=8", "--csv", str(from_file)])
    assert rc == 0

    def stable(path):  # drop the timing column before comparing
        return [{k: v for k, v in row.items() if k != "ingest_fps"}
                for row in csv.DictReader(path.read_text().splitlines())]

    assert stable(from_file) == stable(inline)


def test_sweep_csv_goes_to_stdout_without_csv(capsys):
    argv = ["sweep", "--grid", '{"n_tem": [4, 8]}', "--frames", "30", "--config", "dim=8"]
    assert main(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["overrides"] for r in rows] == ["n_tem=4", "n_tem=8"]
    assert all(r["ok"] == "1" for r in rows)
    assert main(argv + ["--csv", "-"]) == 0
    assert len(list(csv.DictReader(capsys.readouterr().out.splitlines()))) == 2


def test_sweep_skips_a_cell_whose_stream_cannot_be_built(capsys):
    # Three scalar anchors (grid 1, dim 1) cannot be separated; grid 8 can.
    argv = ["sweep", "--grid", '{"p_spa": [1, 8], "p_tem": [1]}', "--config", "dim=1",
            "--config", "n_tem=4", "--config", "n_ret=1"]
    assert main(argv + ["--frames", "30"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(r["overrides"], r["ok"]) for r in rows] == [
        ("p_spa=1;p_tem=1", "0"), ("p_spa=8;p_tem=1", "1"),
    ]
    assert "could not separate 3 anchors" in rows[0]["reason"]
    assert rows[1]["invariants_ok"] == "1"
    assert main(argv + ["--frames", "0"]) == 2
    assert "frames must be >= 1" in capsys.readouterr().err


def test_sweep_rejects_non_object_grid(tmp_path, capsys):
    assert main(["sweep", "--grid", "[1, 2]"]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_export_pca_csv_schema(tmp_path, capsys):
    stream = _synth(tmp_path, frames=12)
    out = tmp_path / "pca.csv"
    rc = main(["export-pca", str(stream), "--at-frame", "10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,label,bank"
    rows = list(csv.DictReader(out.read_text().splitlines()))
    # 441 memory tokens at t=10 plus 10 raw frames of 64 tokens.
    assert len(rows) == 441 + 640
    assert {r["label"] for r in rows} == {"memory", "raw"}
    assert {r["bank"] for r in rows} == {"spatial", "temporal", "abstract", "retrieved", "raw"}


def test_export_pca_short_stream_warns_and_exports(tmp_path, capsys):
    stream = _synth(tmp_path, frames=5)
    out = tmp_path / "pca.csv"
    rc = main(["export-pca", str(stream), "--at-frame", "99", "--out", str(out)])
    assert rc == 0
    assert "stream ended at frame 5" in capsys.readouterr().err
    assert out.read_text().splitlines()[0] == "x,y,label,bank"


def test_export_pca_rejects_at_frame_below_1(tmp_path, capsys):
    stream = _synth(tmp_path, frames=5)
    out = tmp_path / "pca.csv"
    for bad in ("0", "-5"):
        capsys.readouterr()
        assert main(["export-pca", str(stream), "--at-frame", bad, "--out", str(out)]) == 2
        assert "--at-frame" in capsys.readouterr().err
    assert not out.exists()


def test_stream_file_closed_when_main_returns(tmp_path, opened_files):
    # Every file the stream reader opens must be closed by the time main
    # returns, also when the engine cannot be built after the header is read.
    stream = _synth(tmp_path)
    params = tmp_path / "p.atp"
    save_attention_params(AttentionParams.seeded(5, seed=3), params)  # stream dim is 6
    cases = [
        (["ingest", str(stream), "--config", "rng_seed=1.5"], 2),
        (["ingest", str(stream), "--params", str(params)], 2),
        (["export-pca", str(stream), "--at-frame", "5",
          "--out", str(tmp_path / "pca.csv")], 0),
    ]
    for argv, code in cases:
        opened_files.clear()
        assert main(argv) == code
        assert opened_files and all(f.closed for f in opened_files), argv


def test_synth_pipe_into_ingest_subprocess(tmp_path):
    # The child interpreters import the package this test imported.
    src = str(Path(streammem.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    synth = subprocess.Popen(
        [sys.executable, "-m", "streammem", "synth", "--seed", "0",
         "--frames", "30", "--scenes", "3", "--grid", "8", "--dim", "6",
         "-o", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    )
    ingest = subprocess.run(
        [sys.executable, "-m", "streammem", "ingest", "-"],
        stdin=synth.stdout, capture_output=True, text=True, timeout=120, env=env,
    )
    synth.stdout.close()
    assert synth.wait() == 0
    assert ingest.returncode == 0, ingest.stderr
    assert "frames=30 version=30" in ingest.stdout
    assert "total=681 budget=681" in ingest.stdout
