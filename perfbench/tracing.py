"""Spans recorded from outside the engine, by wrappers installed at run time.

``install`` replaces the names that ``streammem.engine`` calls into (one per
layer) and the engine's public entry points with thin wrappers that record a
span per call, and returns a function that puts the originals back. Nothing
in ``src/`` knows about it. Spans are kept in memory; ``write_trace`` writes
them out when the run ends.

A span is (id, name, start_ns, end_ns, parent_id, request_id). The name's
first dotted part is the layer (``retrieval.retrieve_key_features`` belongs
to ``retrieval``). The parent is the innermost open span on the same thread,
and the request id is the frame ("f312") or read ("r57") the benchmark loop
was serving on that thread when the span opened.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    request: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced pass, shared by its threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local

    def set_request(self, request: str | None) -> None:
        """Tag spans opened from now on, on this thread, with ``request``."""
        self._state().request = request

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, ids, state = self.spans, self._ids, self._state

        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, local.request))

        traced.__wrapped__ = fn
        return traced


def _targets():
    """(owner, attribute, span name) for every wrapped call site."""
    import streammem.attention as attention
    import streammem.engine as engine
    import streammem.model as model

    return [
        # Names engine.py resolves in its own module namespace on every frame.
        (engine, "average_pool", "pooling.average_pool"),
        (engine, "temporal_update", "clustering.temporal_update"),
        (engine, "abstract_update", "attention.abstract_update"),
        (engine, "retrieve_key_features", "retrieval.retrieve_key_features"),
        (engine, "MemorySnapshot", "model.snapshot"),  # build plus checksum
        # Public entry points, patched on their classes.
        (engine.MemoryEngine, "__init__", "engine.construct"),
        (engine.MemoryEngine, "ingest_frame", "engine.ingest_frame"),
        (engine.MemoryEngine, "read_snapshot", "engine.read_snapshot"),
        (engine.MemoryEngine, "query_at", "engine.query_at"),
        (model.MemorySnapshot, "verify_checksum", "model.verify_checksum"),
        (attention.AttentionParams, "seeded", "attention.seed"),
    ]


def install(tracer: Tracer):
    """Wrap every target; return a function that restores the originals."""
    originals = []
    for owner, attr, name in _targets():
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(tracer.wrap(name, original.__func__))
        else:
            replacement = tracer.wrap(name, original)
        originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0
        edge = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        result[span.id] = span.duration - covered
    return result


def write_trace(path, header: dict, spans: list[Span]) -> None:
    """One JSON object: ``header`` plus spans as [id, name, start_ns, end_ns,
    parent_id, request_id] rows, in the order they closed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(header, span_fields=list(Span._fields), spans=[list(s) for s in spans])
    path.write_text(json.dumps(doc, separators=(",", ":")))
