"""Command-line front end: synth, ingest, bench, replay, sweep, export-pca.

Stream arguments accept a file path or '-' for a pipe. Config overrides are
repeatable KEY=VALUE flags against the defaults, e.g. --config n_tem=8
--config p_tem=2. dim comes from the stream header where there is one; bench
and sweep start from dim 32 and 16, and --config dim=N overrides it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

from .attention import load_attention_params
from .bench import BenchReport, _csv_line, bench_latency, export_memory_pca, sweep_ablation
from .engine import MemoryEngine
from .model import MemoryConfig, _is_int_at_least, default_config, max_tokens
from .streamio import open_endpoint, open_stream, synth_stream, write_stream

__all__ = ["main"]


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    if key not in MemoryConfig.__dataclass_fields__:
        raise argparse.ArgumentTypeError(f"unknown config field {key!r}")
    raw = raw.strip()
    for parse in (int, float):
        try:
            return key, parse(raw)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"cannot parse value in {text!r}")


def _build_config(args, base: MemoryConfig) -> MemoryConfig:
    return replace(base, **dict(args.config or []))


def _make_engine(args, header_dim: int) -> MemoryEngine:
    params = load_attention_params(args.params) if args.params else None
    return MemoryEngine(_build_config(args, default_config(dim=header_dim)), params)


def _output(path: str | None):
    """Text output for --csv/--out, stdout when absent or '-'; use with `with`."""
    return open_endpoint("-" if path is None else path, "w")


def _cmd_synth(args) -> int:
    stream = synth_stream(
        args.seed, args.frames, args.scenes, args.grid, args.dim,
        noise_rel=args.noise,
    )
    written = write_stream(args.out, stream, grid_side=args.grid, dim=args.dim)
    print(
        f"synth: wrote {written} frames, grid {args.grid}, dim {args.dim}, "
        f"{args.scenes} scenes, separation ratio {stream.separation_ratio:.1f}",
        file=sys.stderr,
    )
    return 0


def _cmd_ingest(args) -> int:
    header, frames = open_stream(args.stream)
    engine = _make_engine(args, header.dim)
    t0 = time.perf_counter()
    count = 0
    for frame in frames:
        engine.ingest_frame(frame)
        count += 1
    elapsed = time.perf_counter() - t0
    snapshot = engine.read_snapshot()
    per_bank = engine.bank_token_counts()
    fps = count / elapsed if elapsed > 0 else float("inf")
    print(f"frames={count} version={snapshot.version} elapsed_s={elapsed:.3f} fps={fps:.1f}")
    print(
        "tokens: "
        + " ".join(f"{name}={per_bank[name]}" for name in per_bank)
        + f" total={snapshot.token_count} budget={max_tokens(engine.config)}"
    )
    return 0


def _cmd_bench(args) -> int:
    counts = [int(c) for c in args.frames.split(",") if c.strip()]
    config = _build_config(args, default_config(dim=32))
    report = bench_latency(config, counts, args.queries, seed=args.seed)
    rows = report.rows
    if args.keep_all:
        rows += bench_latency(config, counts, args.queries, seed=args.seed, keep_all=True).rows
    with _output(args.csv) as handle:
        handle.write(BenchReport(rows).to_csv())
    print(f"flatness_ratio={report.flatness_ratio():.3f}", file=sys.stderr)
    return 0


def _cmd_replay(args) -> int:
    triplets = json.loads(Path(args.triplets).read_text())
    if not isinstance(triplets, list):
        raise ValueError("triplets file must hold a JSON array")
    queries = []
    for i, item in enumerate(triplets):
        if not isinstance(item, dict) or "id" not in item or "frame_timestamp" not in item:
            raise ValueError(
                f"triplet {i} must be an object with 'id' and 'frame_timestamp'"
            )
        ts = item["frame_timestamp"]
        if not _is_int_at_least(ts, 0):
            raise ValueError(
                f"triplet {i}: frame_timestamp must be a non-negative integer, got {ts!r}"
            )
        queries.append((ts, str(item["id"])))
    queries = deque(sorted(queries, key=lambda q: q[0]))

    header, frames = open_stream(args.stream)
    engine = _make_engine(args, header.dim)
    with _output(args.out) as handle:
        handle.write("question_id,frame_timestamp,version,timestamp_frame,stale\n")

        def flush_due(now: int) -> None:
            while queries and queries[0][0] <= now:
                ts, qid = queries.popleft()
                result = engine.query_at(qid, ts)
                snap = result.snapshot
                handle.write(
                    _csv_line((qid, ts, snap.version, snap.timestamp_frame, int(result.stale)))
                )

        flush_due(0)
        t = 0
        for frame in frames:
            engine.ingest_frame(frame)
            t += 1
            flush_due(t)
        # Timestamps beyond the stream end resolve against the final state.
        flush_due(max(t, queries[-1][0]) if queries else t)
    return 0


def _cmd_sweep(args) -> int:
    grid_text = args.grid
    if grid_text.startswith("@"):
        grid_text = Path(grid_text[1:]).read_text()
    grid = json.loads(grid_text)
    if not isinstance(grid, dict):
        raise ValueError("sweep grid must be a JSON object of field -> value list")
    grid = {k: v if isinstance(v, list) else [v] for k, v in grid.items()}
    base = _build_config(args, default_config(dim=16))
    report = sweep_ablation(grid, base, frames=args.frames, seed=args.seed)
    with _output(args.csv) as handle:
        handle.write(report.to_csv())
    return 0


def _cmd_export_pca(args) -> int:
    if args.at_frame < 1:
        raise ValueError(f"--at-frame must be >= 1, got {args.at_frame}")
    header, frames = open_stream(args.stream)
    engine = _make_engine(args, header.dim)
    raw = []
    for frame in frames:
        engine.ingest_frame(frame)
        raw.append(frame)
        if engine.frames_ingested >= args.at_frame:
            break
    if engine.frames_ingested < args.at_frame:
        print(
            f"export-pca: stream ended at frame {engine.frames_ingested}, "
            f"before --at-frame {args.at_frame}; exporting there",
            file=sys.stderr,
        )
    export = export_memory_pca(engine.read_snapshot(), raw)
    with _output(args.out) as handle:
        handle.write(export.to_csv())
    if export.degenerate:
        print("export-pca: projection axes are degenerate (rank < 2)", file=sys.stderr)
    return 0


def _add_config_flag(parser: argparse.ArgumentParser, *, params: bool = False) -> None:
    parser.add_argument(
        "--config",
        action="append",
        type=_parse_override,
        metavar="KEY=VALUE",
        help="override a config field (repeatable)",
    )
    if params:  # only where _make_engine builds the engine
        parser.add_argument(
            "--params", metavar="FILE", help="load attention projections from an ATP2 file"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streammem",
        description="Bounded-budget streaming memory engine over frame feature streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic scene-structured stream")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--scenes", type=int, default=3)
    p.add_argument("--grid", type=int, default=8, help="tokens per frame side")
    p.add_argument("--dim", type=int, default=16, help="token dimension")
    p.add_argument("--noise", type=float, default=0.05, help="noise std relative to anchor RMS")
    p.add_argument("--out", "-o", default="-", help="output file ('-' = stdout)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="stream a file through the engine and report sizes")
    p.add_argument("stream", help="FVS1 stream path ('-' = stdin)")
    _add_config_flag(p, params=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("bench", help="latency/footprint bench across frame counts")
    p.add_argument("--frames", default="1000,10000", help="comma-separated frame counts")
    p.add_argument("--queries", type=int, default=32, help="timed reads per count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep-all", action="store_true", help="also run the no-compression baseline")
    p.add_argument("--csv", metavar="FILE", help="write rows here instead of stdout")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("replay", help="replay timestamped queries against a stream")
    p.add_argument("triplets", help="JSON array of {id, frame_timestamp}")
    p.add_argument("stream", help="FVS1 stream path ('-' = stdin)")
    p.add_argument("--out", metavar="FILE", help="write the query log here")
    _add_config_flag(p, params=True)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("sweep", help="run a config-grid ablation sweep")
    p.add_argument("--grid", required=True, help="JSON object field -> values, or @file.json")
    p.add_argument("--frames", type=int, default=120, help="frames per cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="FILE", help="write rows here instead of stdout")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export-pca", help="2-D PCA of memory vs raw tokens at a frame")
    p.add_argument("stream", help="FVS1 stream path ('-' = stdin)")
    p.add_argument("--at-frame", type=int, required=True, help="ingest up to this frame")
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    _add_config_flag(p, params=True)
    p.set_defaults(func=_cmd_export_pca)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    # ConfigError, ShapeError and StreamFormatError are ValueErrors.
    except (ValueError, OSError) as err:
        print(f"streammem: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
