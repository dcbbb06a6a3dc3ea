"""In-process tracing: context-manager spans with parent links.

A :class:`Tracer` hands out :class:`Span` context managers.  Spans
opened while another span is active on the same thread become its
children (parenting is tracked with a thread-local stack, so serving
threads never share lineage by accident).  Crossing a thread boundary
is explicit: the submitting thread calls :meth:`Tracer.capture` to
snapshot its active span as a :class:`TraceContext`, and the worker
re-attaches it with ``with tracer.attach(ctx):`` so spans it opens
join the same trace instead of starting orphan roots.

Finished spans land in a bounded ring buffer in completion order —
children before parents — and, when the tracer has a sink, are also
emitted as JSONL events the moment they close, so a crash still
leaves a usable trace on disk.  Child records are attached to their
parent *by parent id under the tracer lock*, not by inspecting the
finishing thread's stack, so fan-out stages closed on worker threads
still land in ``parent.children``.

A :class:`TraceSampler` implements Dapper-style tail-based sampling:
spans buffer per trace until the root closes, then the whole trace is
kept at 100% when anything looks wrong (an errored span, a
shed/partial/degraded request, or a duration above the rolling p99 of
recent roots) and at a configured fraction otherwise.  Memory is
bounded at every stage and each decision increments
``traces_sampled_total{verdict}``.

Ids are monotonic counters, not random: traces stay deterministic
under test and cost nothing to allocate.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["SpanRecord", "Span", "TraceContext", "Tracer",
           "TraceSampler", "KeptTrace"]


@dataclass
class SpanRecord:
    """Immutable summary of one finished span."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start: float
    duration: float
    status: str = "ok"               # ok | error
    error: str | None = None
    attributes: dict = field(default_factory=dict)

    def to_event(self) -> dict:
        """JSONL-ready representation."""
        event = {"kind": "span", "name": self.name,
                 "trace_id": self.trace_id, "span_id": self.span_id,
                 "parent_id": self.parent_id, "start": self.start,
                 "duration_ms": self.duration * 1000.0,
                 "status": self.status}
        if self.error is not None:
            event["error"] = self.error
        if self.attributes:
            # Nested, not flattened: user attributes (e.g. "kind")
            # must never clobber the record's own fields.
            event["attributes"] = dict(self.attributes)
        return event

    @classmethod
    def from_event(cls, event: dict) -> "SpanRecord":
        """Inverse of :meth:`to_event` (tolerates missing fields)."""
        return cls(name=event.get("name", "?"),
                   trace_id=event.get("trace_id", 0),
                   span_id=event.get("span_id", 0),
                   parent_id=event.get("parent_id"),
                   start=float(event.get("start", 0.0)),
                   duration=float(event.get("duration_ms", 0.0)) / 1000.0,
                   status=event.get("status", "ok"),
                   error=event.get("error"),
                   attributes=dict(event.get("attributes", {})))


@dataclass(frozen=True)
class TraceContext:
    """Portable handle to an active span, safe to hand across threads.

    Only the ids travel — never the :class:`Span` object itself, whose
    mutable state belongs to the opening thread.  Attaching a context
    on another thread makes it the parent for spans opened there, and
    nothing more: the context cannot be closed, only detached.
    """

    trace_id: int
    span_id: int


class Span:
    """One unit of traced work; use as a context manager.

    Attribute mutation is allowed while the span is open
    (:meth:`set_attribute`); after close, :attr:`record` holds the
    frozen :class:`SpanRecord` and :attr:`children` the records of
    every direct child, in completion order — which is how the serving
    layer turns a request span into a per-stage latency breakdown.
    Children that close after this span does are dropped from
    ``children`` (the parent record is already frozen) but still reach
    the ring buffer and sink with the correct ``parent_id``.
    """

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "parent_id",
                 "attributes", "children", "record", "_start")

    def __init__(self, tracer: "Tracer", name: str, trace_id: int,
                 span_id: int, parent_id: int | None, attributes: dict):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.children: list[SpanRecord] = []
        self.record: SpanRecord | None = None
        self._start: float | None = None

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    @property
    def duration(self) -> float | None:
        """Seconds, available once the span has closed."""
        return self.record.duration if self.record is not None else None

    def context(self) -> TraceContext:
        """This span's ids as a thread-portable :class:`TraceContext`."""
        return TraceContext(self.trace_id, self.span_id)

    def __enter__(self) -> "Span":
        self._start = self._tracer._clock()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._tracer._clock()
        self._tracer._pop(self)
        status, error = "ok", None
        if exc is not None:
            status = "error"
            error = f"{exc_type.__name__}: {exc}"
        # Positional: keywords cost a third of the record's build.
        self.record = SpanRecord(
            self.name, self.trace_id, self.span_id, self.parent_id,
            self._start, end - self._start, status, error,
            dict(self.attributes))
        self._tracer._emit(self.record, closing=True)
        return False  # never swallow exceptions


class Tracer:
    """Span factory with a bounded finished-span ring buffer."""

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 max_spans: int = 4096,
                 sink: Callable[[dict], None] | None = None,
                 sampler: "TraceSampler | None" = None):
        self._clock = clock
        self._sink = sink
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        # Per-thread span stacks, keyed by thread ident rather than
        # hidden in a threading.local: the owning thread is the only
        # writer, but the profiler reads a snapshot to pair samples
        # with the innermost open span (open_spans_by_thread).
        self._stacks: dict[int, list] = {}
        self.finished: deque[SpanRecord] = deque(maxlen=max_spans)
        # Spans currently open anywhere in the process, by span id.
        # _emit resolves parents here — not on the finishing
        # thread's stack — so cross-thread children attach correctly.
        self._open: dict[int, Span] = {}
        self._total_finished = 0
        self._exported = 0           # high-water mark for export_jsonl
        self.sampler = sampler

    # -- per-thread span stack ------------------------------------------
    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def current(self):
        """Active :class:`Span` or attached :class:`TraceContext`."""
        stack = self._stacks.get(threading.get_ident())
        while stack:
            top = stack[-1]
            if isinstance(top, Span) and top.record is not None:
                # Closed on another thread: its __exit__ popped that
                # thread's stack, not ours.  Prune lazily so later
                # spans here don't parent to a finished span.
                stack.pop()
                continue
            return top
        return None

    def _push(self, span: Span) -> None:
        self._stack().append(span)
        with self._lock:
            self._open[span.span_id] = span

    def _pop(self, item) -> None:
        """Unwind a span or attached context off this thread's stack."""
        ident = threading.get_ident()
        stack = self._stacks.get(ident) or []
        if stack and stack[-1] is item:
            stack.pop()
        elif item in stack:           # mis-nested exit; recover anyway
            stack.remove(item)
        if not stack:                 # don't leak dead threads' stacks
            self._stacks.pop(ident, None)

    def open_spans_by_thread(self) -> dict[int, Span]:
        """Innermost *open* span per thread ident — the registry the
        sampling profiler pairs stack samples with.  Stacks are only
        mutated by their owning threads; this reads shallow copies, so
        a torn read can at worst miss one span transition."""
        out: dict[int, Span] = {}
        for ident, stack in list(self._stacks.items()):
            for item in reversed(tuple(stack)):
                if isinstance(item, Span) and item.record is None:
                    out[ident] = item
                    break
        return out

    # -- cross-thread propagation --------------------------------------
    def capture(self) -> TraceContext | None:
        """Snapshot the calling thread's active span for hand-off.

        Returns ``None`` when no span is active, which :meth:`attach`
        accepts as a no-op — call sites never need to branch.
        """
        current = self.current()
        if current is None:
            return None
        return TraceContext(current.trace_id, current.span_id)

    @contextlib.contextmanager
    def attach(self, ctx: TraceContext | None):
        """Adopt a captured context as the calling thread's parent.

        Spans opened inside the ``with`` block become children of the
        captured span, in its trace.  Re-attaching the same context
        (even nested) is harmless; attaching ``None`` is a no-op.
        """
        if ctx is None:
            yield None
            return
        self._stack().append(ctx)
        try:
            yield ctx
        finally:
            self._pop(ctx)

    # -- span lifecycle ------------------------------------------------
    def span(self, name: str, **attributes) -> Span:
        """Create a child of the current thread's active span."""
        parent = self.current()
        # ``next`` on an itertools.count holds the GIL throughout: ids
        # stay unique without the tracer lock.
        span_id = next(self._ids)
        trace_id = (parent.trace_id if parent is not None
                    else next(self._ids))
        return Span(self, name, trace_id, span_id,
                    parent.span_id if parent is not None else None,
                    attributes)

    def record_span(self, name: str, start: float, duration: float,
                    status: str = "ok", **attributes) -> SpanRecord:
        """Record an already-measured interval as a closed span.

        For work whose extent was timed by other means — e.g. the
        admission queue measures enqueue→dequeue itself — this emits a
        child of the calling thread's active span without the
        open/close ceremony.
        """
        parent = self.current()
        span_id = next(self._ids)
        trace_id = (parent.trace_id if parent is not None
                    else next(self._ids))
        record = SpanRecord(   # positional, as in Span.__exit__
            name, trace_id, span_id,
            parent.span_id if parent is not None else None,
            start, duration, status, None, attributes)
        self._emit(record)
        return record

    def _emit(self, record: SpanRecord, closing: bool = False) -> None:
        """One lock hold: unregister a closing span, attach the record
        to its open parent, ring it."""
        with self._lock:
            if closing:
                self._open.pop(record.span_id, None)
            parent = (self._open.get(record.parent_id)
                      if record.parent_id is not None else None)
            if parent is not None and parent.trace_id == record.trace_id:
                parent.children.append(record)
            self.finished.append(record)
            self._total_finished += 1
        if self._sink is not None:
            self._sink(record.to_event())
        if self.sampler is not None:
            self.sampler.observe(record)

    def retained_bytes(self) -> int:
        """Estimated bytes held by the finished-span ring buffer plus
        the open-span registry — how much memory tracing itself
        retains, for the memory ledger."""
        from .memledger import ring_bytes

        with self._lock:
            finished = list(self.finished)
            open_spans = list(self._open.values())
        return ring_bytes(finished) + ring_bytes(open_spans)

    # -- export --------------------------------------------------------
    def to_events(self) -> list[dict]:
        with self._lock:
            return [record.to_event() for record in self.finished]

    def records(self) -> list[SpanRecord]:
        """Snapshot of the ring buffer, oldest first."""
        with self._lock:
            return list(self.finished)

    def export_jsonl(self, path) -> int:
        """Append spans finished since the last export to ``path``.

        A high-water mark makes repeated exports (periodic flush plus
        a flight-recorder dump, say) append only fresh spans instead
        of duplicating the whole ring buffer; returns the count
        written.  Spans that aged out of the ring buffer between
        exports are lost, never re-sent.
        """
        import json

        with self._lock:
            fresh = min(self._total_finished - self._exported,
                        len(self.finished))
            events = [record.to_event()
                      for record in list(self.finished)[-fresh:]] \
                if fresh > 0 else []
            self._exported = self._total_finished
        with open(path, "a") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)


@dataclass
class KeptTrace:
    """One trace retained by the tail sampler, with its verdict."""

    trace_id: int
    verdict: str                     # error | flagged | slow | sampled
    root_name: str
    duration: float
    spans: list[SpanRecord] = field(default_factory=list)

    def to_event(self) -> dict:
        return {"kind": "trace", "trace_id": self.trace_id,
                "verdict": self.verdict, "root_name": self.root_name,
                "duration_ms": self.duration * 1000.0,
                "spans": [span.to_event() for span in self.spans]}


class TraceSampler:
    """Tail-based sampling: decide once the whole trace is visible.

    Spans buffer per trace id until the root span (``parent_id is
    None``) closes.  The finished trace is then kept with verdict

    * ``error``   — any span in the trace closed with an error;
    * ``flagged`` — the root's ``status`` attribute marks a degraded
      outcome (shed / partial / degraded / timeout / error);
    * ``slow``    — root duration above the rolling p99 of recent
      root durations (once enough history exists);
    * ``sampled`` — none of the above, but the coin flip landed
      inside ``fraction``;

    or discarded with verdict ``dropped``.  Traces evicted while still
    pending (memory bound hit before their root closed) count as
    ``evicted``.  Every decision increments
    ``traces_sampled_total{verdict}`` when a registry is attached.
    """

    FLAGGED = frozenset({"shed", "partial", "degraded", "timeout",
                         "error"})

    def __init__(self, fraction: float = 0.1, max_pending: int = 256,
                 max_kept: int = 64, max_spans_per_trace: int = 512,
                 p99_window: int = 256, min_history: int = 20,
                 registry=None, seed: int = 0):
        self.fraction = float(fraction)
        self.max_pending = int(max_pending)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self.min_history = int(min_history)
        self._lock = threading.Lock()
        self._pending: OrderedDict[int, list[SpanRecord]] = OrderedDict()
        self._decided: OrderedDict[int, KeptTrace | None] = OrderedDict()
        self._kept: deque[KeptTrace] = deque(maxlen=max_kept)
        self._durations: deque[float] = deque(maxlen=p99_window)
        self._rng = random.Random(seed)
        self._counter = None
        if registry is not None:
            self._counter = registry.counter(
                "traces_sampled_total",
                "tail-sampling decisions by verdict",
                labels=("verdict",))

    # -- ingest ---------------------------------------------------------
    def observe(self, record: SpanRecord) -> None:
        """Feed one finished span; decides the trace on root close."""
        verdicts: list[str] = []
        with self._lock:
            trace_id = record.trace_id
            if trace_id in self._decided:
                # Late arrival (e.g. a compaction span closing after
                # its ingest request): ride the earlier verdict.
                kept = self._decided[trace_id]
                if kept is not None and \
                        len(kept.spans) < self.max_spans_per_trace:
                    kept.spans.append(record)
                return
            spans = self._pending.get(trace_id)
            if spans is None:
                spans = self._pending[trace_id] = []
                while len(self._pending) > self.max_pending:
                    evicted_id, _ = self._pending.popitem(last=False)
                    self._remember(evicted_id, None)
                    verdicts.append("evicted")
            if len(spans) < self.max_spans_per_trace:
                spans.append(record)
            if record.parent_id is None:
                verdicts.append(self._decide(record))
        for verdict in verdicts:
            if self._counter is not None:
                self._counter.labels(verdict=verdict).inc()

    def _decide(self, root: SpanRecord) -> str:
        """Close out ``root``'s trace; caller holds the lock."""
        spans = self._pending.pop(root.trace_id, [])
        verdict = None
        if any(span.status == "error" for span in spans):
            verdict = "error"
        elif str(root.attributes.get("status", "ok")) in self.FLAGGED:
            verdict = "flagged"
        elif (len(self._durations) >= self.min_history
              and root.duration > self._p99()):
            verdict = "slow"
        elif self._rng.random() < self.fraction:
            verdict = "sampled"
        self._durations.append(root.duration)
        if verdict is None:
            self._remember(root.trace_id, None)
            return "dropped"
        kept = KeptTrace(trace_id=root.trace_id, verdict=verdict,
                         root_name=root.name, duration=root.duration,
                         spans=spans)
        self._kept.append(kept)
        self._remember(root.trace_id, kept)
        return verdict

    def _remember(self, trace_id: int, kept: KeptTrace | None) -> None:
        self._decided[trace_id] = kept
        while len(self._decided) > 4 * self.max_pending:
            self._decided.popitem(last=False)

    def _p99(self) -> float:
        ordered = sorted(self._durations)
        index = min(len(ordered) - 1, int(0.99 * len(ordered)))
        return ordered[index]

    # -- inspection ------------------------------------------------------
    def kept(self) -> list[KeptTrace]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._kept)

    def get(self, trace_id: int) -> KeptTrace | None:
        with self._lock:
            for trace in self._kept:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def pending_traces(self) -> int:
        with self._lock:
            return len(self._pending)

    def retained_bytes(self) -> int:
        """Estimated bytes buffered by tail sampling (pending spans
        awaiting a root, kept traces, and the decision cache)."""
        from .memledger import approx_bytes, ring_bytes

        with self._lock:
            pending = [span for spans in self._pending.values()
                       for span in spans]
            kept = [span for trace in self._kept
                    for span in trace.spans]
            decided = len(self._decided)
        return (ring_bytes(pending) + ring_bytes(kept)
                + decided * approx_bytes(0) * 2)

    def to_events(self) -> list[dict]:
        """Kept traces as JSONL-ready events (for flight bundles)."""
        return [trace.to_event() for trace in self.kept()]
