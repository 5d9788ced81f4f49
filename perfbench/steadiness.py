"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 [--workloads pipe-16,steady-1024]
        [--traced 1] [--first-seed 1] [--out perfbench/results/BENCH_<commit>.json]

Each run is a fresh ``run.py`` process with its own seed (first-seed,
first-seed + 1, ...), run one after another. For every end-to-end metric the
summary gives the median, the quartiles from ``statistics.quantiles(n=4)``
and the spread (q3 - q1) / median, against the bound in BENCHMARK.json.
``--traced N`` adds N traced runs per workload and their per-layer medians.
With ``--out`` the summary, every run's values and the machine block are
written as JSON: a point of the benchmark trajectory that later changes are
compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(PERFBENCH))
    sys.path.insert(0, str(ROOT / "src"))
    from machine import machine_info

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine_info(ROOT), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"seeds": list(seeds), "end_to_end": {}, "per_layer": {}}
        print(f"{workload}: {args.runs} runs")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            spread = stats["spread"]
            flag = "" if spread is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {stats['median']:12.6f} {stats['unit']:5s}"
                  f" spread {spread:.3f} (bound {bound}){flag}")
        traced = [_run(workload, seed, args.seconds, 1) for seed in seeds[: args.traced]]
        for name in traced[0]["metrics"] if traced else ():
            values = [r["metrics"][name]["value"] for r in traced]
            entry["per_layer"][name] = {
                "median": statistics.median(values),
                "unit": traced[0]["metrics"][name]["unit"],
                "values": values,
            }
            print(f"  {name:30s} {statistics.median(values):12.6f} {entry['per_layer'][name]['unit']}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
