"""The benchmark's workloads: seeded inputs, the timed loops and the checks.

Every timing here is taken by the benchmark's own loop around public calls
(``MemoryEngine(...)``, ``ingest_frame``, ``query_at``, ``verify_checksum``
and the ``open_stream`` frame iterator). Inputs are made from the seed alone
and are generated outside the timed calls; the engine sees only frames.

WORKLOADS.md says why each workload exists and which layers it leaves idle.
"""

from __future__ import annotations

import io
import resource
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

from streammem import (
    FrameFeature,
    MemoryEngine,
    default_config,
    max_tokens,
    open_stream,
    synth_stream,
    write_stream,
)

SCENES = 4
SCENE_LEN = 75  # frames per shot; shots cycle through the four scenes
NOISE_REL = 0.05
PIPE_CHUNK = 1000  # frames per in-memory FVS1 block on the piped workload
RING_DEPTH = 8  # MemoryEngine's default
LAG_SPAN = int(1.5 * RING_DEPTH)  # read lag uniform in [0, LAG_SPAN) frames
# Warm-up runs for at least n_buff frames and at least this long: after an
# idle spell the first second of BLAS work runs several times slower on small
# VMs, which would otherwise land in the timed window of a fast workload.
WARM_SECONDS = 2.0
# Set-up is timed at least SETUP_TRIALS times and for at least SETUP_SECONDS,
# so a sub-millisecond set-up still gets a median of many samples.
SETUP_TRIALS = 5
SETUP_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    """One named input mix. ``writer_hz`` None means a closed loop."""

    name: str
    dim: int
    piped: bool = False  # frames are decoded from FVS1 bytes inside the timed loop
    writer_hz: float | None = None
    reader_hz: float | None = None
    overrides: tuple = ()  # MemoryConfig field overrides; self-tests shrink with it

    @property
    def config(self):
        return default_config(dim=self.dim, **dict(self.overrides))


# live-1024 runs by name only: BENCHMARK.json leaves it out (WORKLOADS.md says why).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("steady-1024", dim=1024),
        Workload("pipe-16", dim=16, piped=True),
        Workload("live-1024", dim=1024, writer_hz=4.0, reader_hz=50.0),
    )
}


class FrameSource:
    """Frame i of a seeded 4-scene stream: the anchor of shot i // SCENE_LEN
    (scenes in a cycle) plus fresh noise, quantized to float32 like FVS1.

    The anchors come from ``synth_stream``, which guarantees the scenes are
    well separated; the noise for frame i depends only on (seed, i).
    """

    def __init__(self, seed: int, grid: int, dim: int):
        self.seed, self.grid, self.dim = seed, grid, dim
        self._anchors = synth_stream(seed, SCENES, SCENES, grid, dim, noise_rel=NOISE_REL).anchors
        self._std = [NOISE_REL * float(np.sqrt(np.mean(a**2))) for a in self._anchors]

    def feature(self, i: int) -> FrameFeature:
        scene = (i // SCENE_LEN) % SCENES
        rng = np.random.default_rng([self.seed, 1, i])
        anchor = self._anchors[scene]
        tokens = anchor + rng.normal(0.0, self._std[scene], anchor.shape)
        return FrameFeature(self.grid, self.dim, tokens.astype(np.float32).astype(np.float64))

    def fvs1(self, start: int, stop: int) -> bytes:
        """Frames [start, stop) as one FVS1 byte string."""
        buf = io.BytesIO()
        write_stream(buf, (self.feature(i) for i in range(start, stop)), grid_side=self.grid, dim=self.dim)
        return buf.getvalue()


class Feed:
    """Hands out frames in order. ``prepare(i)`` does the untimed work and
    returns the call the timed region makes to get frame i: the ready frame,
    or on a piped workload one step of an ``open_stream`` iterator over FVS1
    bytes written before timing."""

    def __init__(self, source: FrameSource, piped: bool, tracer=None, chunk: int = PIPE_CHUNK):
        self._source, self._piped, self._tracer = source, piped, tracer
        self._chunk = chunk
        self._decode = None
        self._stop = 0

    def prepare(self, i: int):
        if not self._piped:
            feature = self._source.feature(i)
            return lambda: feature
        if self._decode is None or i >= self._stop:
            self._stop = i + self._chunk
            _, frames = open_stream(io.BytesIO(self._source.fvs1(i, self._stop)))
            self._decode = frames.__next__
            if self._tracer is not None:
                self._decode = self._tracer.wrap("streamio.decode", self._decode)
        return self._decode


class Checks:
    """Counts operations and the ones whose output was wrong; thread-safe."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._lock = threading.Lock()

    def record(self, problem: str | None) -> None:
        with self._lock:
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(problem)


def frame_problem(engine: MemoryEngine, cfg, t: int, version: int) -> str | None:
    """What is wrong with the state published by frame t, if anything."""
    snap = engine.read_snapshot()
    if version != t or snap.version != t:
        return f"frame {t}: ingest returned version {version}, latest is {snap.version}"
    if t > cfg.n_tem:  # every bank is full from here on
        lengths = tuple(length for _, length in snap.bank_offsets)
        expected = (
            cfg.n_spa * cfg.p_spa**2,
            cfg.n_tem * cfg.p_tem**2,
            cfg.n_abs * cfg.p_abs**2,
            cfg.n_ret * cfg.p_spa**2,
        )
        if snap.token_count != max_tokens(cfg) or lengths != expected:
            return f"frame {t}: {snap.token_count} tokens in banks {lengths}, expected {expected}"
    weight = float(np.sum(engine.temporal_weights))
    if weight != t:
        return f"frame {t}: temporal weights sum to {weight}, expected {t}"
    return None


@dataclass
class PassResult:
    """Everything one pass measured. Times are perf_counter_ns deltas."""

    ingest_ns: list = field(default_factory=list)  # per timed frame, service time
    frame_ns: list = field(default_factory=list)  # per timed frame, due -> published
    read_ns: list = field(default_factory=list)  # per read, due -> checksum verified
    setup_ns: list = field(default_factory=list)  # MemoryEngine() -> first frame published
    queue_ns: list = field(default_factory=list)  # open loop: due -> ingest starts
    late_ns: list = field(default_factory=list)  # open loop: wake-up - due, when idle
    backlog_max: int = 0
    busy_frac: float = 0.0
    stale: int = 0
    kmeans_iters: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    distinct_frac: list = field(default_factory=list)
    warm_frames: int = 0  # untimed frames before the timed ones
    final: tuple = ()  # (token bytes, bank offsets, last k-means assignment bytes)
    rss_peak_mb: float = 0.0
    checks: Checks = field(default_factory=Checks)

    @property
    def timed_frames(self) -> int:
        return len(self.ingest_ns)


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    tracer=None,
    frames: int | None = None,
    warm_frames: int | None = None,
    setup: bool = True,
) -> PassResult:
    """Warm up, measure one workload for ``seconds``, then time set-up.

    ``warm_frames`` and ``frames`` fix the number of warm-up and timed frames
    instead (a traced pass replays exactly the frames of the untraced pass
    it is compared with). ``tracer`` is the installed Tracer of a traced pass.
    """
    run = _Pass(workload, seed, tracer)
    run.warm_up(warm_frames)
    if workload.writer_hz is None:
        run.closed_loop(seconds, frames)
    else:
        run.open_loop(seconds, frames)
    run.finish(setup)
    return run.result


class _Pass:
    """The state of one pass: its engine, its inputs and what it measured."""

    def __init__(self, workload: Workload, seed: int, tracer):
        self.workload, self.cfg, self.tracer = workload, workload.config, tracer
        self.source = FrameSource(seed, self.cfg.p_spa, self.cfg.dim)
        self.feed = Feed(self.source, workload.piped, tracer)
        self.result = PassResult()
        self.engine = engine = MemoryEngine(self.cfg, ring_depth=RING_DEPTH)
        self.lags = np.random.default_rng([seed, 2]).integers(0, LAG_SPAN, size=1 << 16)
        self.last_version = 0

        def ingest(get):
            return engine.ingest_frame(get())

        def read(rid, ts):
            answer = engine.query_at(rid, ts)
            return answer, answer.snapshot.verify_checksum()

        if tracer is None:
            self.tag = lambda request: None
            self.ingest, self.read_call = ingest, read
        else:
            self.tag = tracer.set_request
            self.ingest = tracer.wrap("bench.frame", ingest)
            self.read_call = tracer.wrap("bench.read", read)

    def frame(self, i: int, get, timed: bool) -> tuple[int, int] | None:
        """Ingest frame i and check what it published. Returns the (start,
        end) of the ingest call, or None when it raised (a failed frame)."""
        self.tag(f"f{i}")
        checks = self.result.checks
        start = perf_counter_ns()
        try:
            version = self.ingest(get)
        except Exception as exc:  # counted as a failed frame; the run goes on
            checks.record(f"frame {i + 1}: {type(exc).__name__}: {exc}")
            return None
        end = perf_counter_ns()
        checks.record(frame_problem(self.engine, self.cfg, i + 1, version))
        if timed and self.tracer is not None:
            self._behaviour()
        return start, end

    def _behaviour(self) -> None:
        cfg, result = self.cfg, self.result
        state = self.engine.last_cluster_state
        if state is not None:
            result.kmeans_iters.append(state.iterations)
            result.converged.append(state.converged)
        picks = self.engine.read_snapshot().bank("retrieved").reshape(-1, cfg.p_spa**2 * cfg.dim)
        if len(picks):
            result.distinct_frac.append(len({p.tobytes() for p in picks}) / len(picks))

    def read(self, n: int, ts: int, due: int) -> None:
        """Read n: ``query_at(ts)`` plus ``verify_checksum``, then the checks."""
        rid = f"r{n}"
        self.tag(rid)
        problem = None
        try:
            answer, verified = self.read_call(rid, ts)
            end = perf_counter_ns()
            latest = self.engine.read_snapshot().version
            snap = answer.snapshot
            if not verified:
                problem = f"read {rid}: checksum mismatch on version {snap.version}"
            elif latest < self.last_version:
                problem = f"read {rid}: latest version fell {self.last_version} -> {latest}"
            elif not answer.stale and snap.timestamp_frame > ts:
                problem = f"read {rid}: asked for t<={ts}, got t={snap.timestamp_frame}"
            self.last_version = max(self.last_version, latest)
            self.result.read_ns.append(end - due)
            self.result.stale += answer.stale
        except Exception as exc:  # counted as a failed read; the run goes on
            problem = f"read {rid}: {type(exc).__name__}: {exc}"
        self.result.checks.record(problem)

    def lag(self, n: int) -> int:
        return int(self.lags[n % len(self.lags)])

    def warm_up(self, warm_frames: int | None) -> None:
        begin = perf_counter()
        i = 0
        while (
            i < self.cfg.n_buff or perf_counter() - begin < WARM_SECONDS
            if warm_frames is None
            else i < warm_frames
        ):
            self.frame(i, self.feed.prepare(i), timed=False)
            i += 1
        self.result.warm_frames = i

    def closed_loop(self, seconds: float, frames: int | None) -> None:
        """One writer issuing the next frame as soon as the last is published,
        with one check read after each frame, outside the frame's timing."""
        result = self.result
        warm = result.warm_frames
        begin = perf_counter()
        i = warm
        while perf_counter() < begin + seconds if frames is None else i - warm < frames:
            span = self.frame(i, self.feed.prepare(i), timed=True)
            i += 1
            if span is None:
                continue
            result.ingest_ns.append(span[1] - span[0])
            result.frame_ns.append(span[1] - span[0])  # a frame is due when issued
            n = len(result.read_ns)
            self.read(n, i - self.lag(n), perf_counter_ns())
        result.busy_frac = sum(result.ingest_ns) / 1e9 / max(perf_counter() - begin, 1e-9)

    def open_loop(self, seconds: float, frames: int | None) -> None:
        """A writer at ``writer_hz`` and a reader at ``reader_hz`` on fixed
        schedules from one start time; every latency counts from the due time."""
        workload, result = self.workload, self.result
        warm = result.warm_frames
        n_frames = int(seconds * workload.writer_hz) if frames is None else frames
        n_reads = int(seconds * workload.reader_hz)
        frame_gap = 1e9 / workload.writer_hz
        read_gap = 1e9 / workload.reader_hz
        t0 = perf_counter_ns() + 50_000_000  # both threads are waiting by then
        errors: list[str] = []

        def due_frames(at_ns: int) -> int:
            return min(n_frames, int((at_ns - t0) // frame_gap) + 1) if at_ns >= t0 else 0

        def writer():
            busy = 0
            for j in range(n_frames):
                get = self.feed.prepare(warm + j)  # before the due time: not in the latency
                due = t0 + round(j * frame_gap)
                woke = _sleep_until(due, result)
                result.backlog_max = max(result.backlog_max, due_frames(woke) - j)
                span = self.frame(warm + j, get, timed=True)
                if span is None:
                    continue
                start, end = span
                busy += end - start
                result.ingest_ns.append(end - start)
                result.frame_ns.append(end - due)
                result.queue_ns.append(start - due)
            result.busy_frac = busy / max(perf_counter_ns() - t0, n_frames * frame_gap)

        def reader():
            for n in range(n_reads):
                due = t0 + round(n * read_gap)
                _sleep_until(due, result)
                self.read(n, warm + due_frames(due) - self.lag(n), due)

        def guarded(body):
            def target():
                try:
                    body()
                except Exception as exc:  # a crashed load thread fails the run
                    errors.append(f"{body.__name__}: {type(exc).__name__}: {exc}")

            return target

        threads = [threading.Thread(target=guarded(b), daemon=True) for b in (writer, reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 120)
            if t.is_alive():
                errors.append("load thread did not finish")
        for problem in errors:
            result.checks.record(problem)

    def finish(self, setup: bool) -> None:
        """Record the final state, then time set-up on the now warm process."""
        result, cfg = self.result, self.cfg
        snap = self.engine.read_snapshot()
        state = self.engine.last_cluster_state
        result.final = (
            snap.tokens.tobytes(),
            snap.bank_offsets,
            b"" if state is None else state.assignments.tobytes(),
        )
        begin = perf_counter()
        k = 0
        while setup and (k < SETUP_TRIALS or perf_counter() - begin < SETUP_SECONDS):
            get = Feed(self.source, self.workload.piped, self.tracer, chunk=1).prepare(0)
            self.tag(f"s{k}")
            start = perf_counter_ns()
            fresh = MemoryEngine(cfg)
            version = fresh.ingest_frame(get())
            result.setup_ns.append(perf_counter_ns() - start)
            result.checks.record(frame_problem(fresh, cfg, 1, version))
            k += 1
        result.rss_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sleep_until(due_ns: int, result: PassResult) -> int:
    """Sleep to the due time; record lateness if the thread was idle."""
    now = perf_counter_ns()
    if now < due_ns:
        time.sleep((due_ns - now) / 1e9)
        now = perf_counter_ns()
        result.late_ns.append(now - due_ns)
    return now
