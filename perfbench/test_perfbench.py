"""Self-tests of the benchmark, on shrunken workloads that run in seconds.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from streammem import MemorySnapshot  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = (("n_buff", 12), ("n_tem", 4), ("n_abs", 3), ("n_ret", 2))


def _tiny(workload: workloads.Workload) -> workloads.Workload:
    rates = {}
    if workload.writer_hz is not None:
        rates = {"writer_hz": 20.0, "reader_hz": 100.0}
    return replace(workload, dim=8, overrides=SMALL, **rates)


TINY = {name: _tiny(w) for name, w in workloads.WORKLOADS.items()}


@pytest.fixture(autouse=True)
def _short_warm_up_and_set_up(monkeypatch):
    monkeypatch.setattr(workloads, "WARM_SECONDS", 0.0)
    monkeypatch.setattr(workloads, "SETUP_SECONDS", 0.0)


def _run(capsys, tmp_path, name: str, trace: int) -> tuple[int, list[str], dict]:
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    code = run.main(argv, workloads=TINY, out_dir=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_declared_metric(capsys, tmp_path, name, trace):
    code, lines, result = _run(capsys, tmp_path, name, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = "\n".join(lines[:-1])
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} " in table and f" {metric['unit']} " in table
    if trace:
        assert (tmp_path / f"trace-{name}-seed3.json").is_file()
    else:
        assert "failed_frac" in table
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_injected_checksum_failure_is_counted(capsys, tmp_path, monkeypatch):
    original = MemorySnapshot.verify_checksum
    calls = []

    def fails_once(snapshot):
        calls.append(snapshot.version)
        return False if len(calls) == 5 else original(snapshot)

    monkeypatch.setattr(MemorySnapshot, "verify_checksum", fails_once)
    code, lines, result = _run(capsys, tmp_path, "pipe-16", 0)
    assert code != 0
    assert not result["correct"] and result["failed"] == 1
    failed_frac = next(line for line in lines if line.strip().startswith("failed_frac"))
    assert float(failed_frac.split()[1]) == pytest.approx(1 / result["attempted"], abs=1e-6)
    assert any("checksum mismatch" in line for line in lines)


@pytest.mark.parametrize("name", ["steady-1024", "pipe-16", "live-1024"])
def test_spans_nest_inside_their_frame(name):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        result = workloads.run_pass(TINY[name], 3, 0.5, tracer=tracer)
    finally:
        restore()
    assert not hasattr(workloads.MemoryEngine.ingest_frame, "__wrapped__")
    assert result.checks.failed == 0

    spans = {s.id: s for s in tracer.spans}
    assert all(t >= 0 for t in tracing.self_times(tracer.spans).values())
    ingests = [s for s in spans.values() if s.name == "engine.ingest_frame"]
    assert len(ingests) == result.warm_frames + result.timed_frames + len(result.setup_ns)
    layers_seen = set()
    for span in spans.values():
        ancestor = span
        while ancestor.parent is not None and ancestor.name != "engine.ingest_frame":
            ancestor = spans[ancestor.parent]
        if ancestor is span or ancestor.name != "engine.ingest_frame":
            continue
        assert ancestor.start <= span.start <= span.end <= ancestor.end
        assert span.request == ancestor.request
        layers_seen.add(span.layer)
    assert {"pooling", "clustering", "attention", "retrieval", "model"} <= layers_seen


def test_refuses_to_run_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pipe-16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
