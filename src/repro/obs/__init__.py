"""Dependency-free telemetry: metrics, traces, timers, event logs.

The observability layer every other subsystem reports into:

* :mod:`~repro.obs.metrics` — thread-safe counters/gauges/histograms
  with Prometheus-text and JSON exposition;
* :mod:`~repro.obs.tracing` — context-manager spans with parent links
  and a bounded ring buffer, exportable as JSONL;
* :mod:`~repro.obs.timing` — histogram-feeding timers (decorator or
  context manager);
* :mod:`~repro.obs.events` — structured event log replacing bare
  ``print`` progress output.

:class:`Telemetry` bundles one of each around an optional shared JSONL
sink: pass ``jsonl_path`` and every span and event is appended to the
file as it happens, with a final metrics snapshot written on
:meth:`Telemetry.close` — the trace the CLI's ``--telemetry-jsonl``
flag and ``repro metrics dump`` operate on.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from typing import Callable

from .critpath import (SpanNode, TraceTree, aggregate, build_traces,
                       critical_path, kept_trace_tree, render_tree,
                       self_time, spans_from_jsonl)
from .drift import (DRIFT_REFERENCE_NAME, DRIFT_SIGNALS, DriftMonitor,
                    DriftReference, QuantileSketch, ks_statistic, psi)
from .events import EventLog
from .flight import FlightRecorder
from .memledger import (MemoryLedger, approx_bytes, ndarray_bytes,
                        ring_bytes, rss_bytes)
from .metrics import (DEFAULT_BUCKETS, LATENCY_BUCKETS, Counter, Gauge,
                      Histogram, MetricError, MetricsRegistry,
                      ParsedExposition, parse_prometheus,
                      quantile_from_counts)
from .probes import GoldenProbe, GoldenSet, ProbeQuery
from .profiler import (DEFAULT_HZ as DEFAULT_PROFILE_HZ,
                       SamplingProfiler, classify_thread,
                       parse_collapsed, render_flame, top_frames)
from .sanitize import is_finite_number, json_safe
from .slo import (DEFAULT_WINDOWS, SLO, Alert, AlertManager,
                  BurnRateWindow, default_serving_slos)
from .timing import Timer
from .tracing import (KeptTrace, Span, SpanRecord, TraceContext,
                      Tracer, TraceSampler)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricError", "MetricsRegistry",
    "DEFAULT_BUCKETS", "LATENCY_BUCKETS", "parse_prometheus",
    "ParsedExposition",
    "quantile_from_counts", "is_finite_number", "json_safe",
    "Span", "SpanRecord", "Tracer", "TraceContext", "TraceSampler",
    "KeptTrace", "Timer", "EventLog",
    "SpanNode", "TraceTree", "build_traces", "critical_path",
    "self_time", "aggregate", "render_tree", "spans_from_jsonl",
    "kept_trace_tree",
    "JsonlWriter", "Telemetry",
    "read_jsonl", "last_metrics_snapshot",
    "QuantileSketch", "psi", "ks_statistic", "DRIFT_SIGNALS",
    "DRIFT_REFERENCE_NAME", "DriftReference", "DriftMonitor",
    "ProbeQuery", "GoldenSet", "GoldenProbe",
    "SLO", "BurnRateWindow", "Alert", "AlertManager",
    "DEFAULT_WINDOWS", "default_serving_slos",
    "FlightRecorder",
    "SamplingProfiler", "DEFAULT_PROFILE_HZ", "classify_thread",
    "parse_collapsed", "top_frames", "render_flame",
    "MemoryLedger", "rss_bytes", "approx_bytes", "ring_bytes",
    "ndarray_bytes",
]


class JsonlWriter:
    """Append-only, thread-safe JSON-lines sink."""

    def __init__(self, path):
        self.path = path
        parent = pathlib.Path(path).parent
        if parent and not parent.exists():
            parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(path, "a")

    def __call__(self, record: dict) -> None:
        line = json.dumps(json_safe(record), sort_keys=True,
                          default=str)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()     # crash-safe: every line lands

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class Telemetry:
    """One registry + tracer + event log sharing a JSONL sink.

    Every subsystem takes an optional ``Telemetry``; passing the same
    instance to the trainer and the service makes their metrics land
    in one registry and their spans in one trace.  Without
    ``jsonl_path`` everything stays in memory (ring buffers), which is
    the quiet default for library use.
    """

    def __init__(self, jsonl_path=None,
                 clock: Callable[[], float] = time.monotonic,
                 max_spans: int = 4096, max_events: int = 4096,
                 printer: Callable[[str], None] | None = None,
                 trace_sample_fraction: float | None = None):
        self.clock = clock
        self.writer = JsonlWriter(jsonl_path) if jsonl_path else None
        self.registry = MetricsRegistry()
        self.sampler = None
        if trace_sample_fraction is not None:
            self.sampler = TraceSampler(fraction=trace_sample_fraction,
                                        registry=self.registry)
        self.tracer = Tracer(clock=clock, max_spans=max_spans,
                             sink=self.writer, sampler=self.sampler)
        self.events = EventLog(max_events=max_events, clock=clock,
                               sink=self.writer, printer=printer)

    @property
    def jsonl_path(self):
        return self.writer.path if self.writer is not None else None

    def snapshot(self) -> dict:
        """Current registry state as the JSON exposition dict."""
        return self.registry.to_dict()

    def close(self) -> None:
        """Write the final metrics snapshot and release the sink."""
        if self.writer is not None:
            self.writer({"kind": "metrics", "ts": self.clock(),
                         "metrics": self.snapshot()})
            self.writer.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def read_jsonl(path) -> list[dict]:
    """Load every record of a telemetry JSONL trace."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def last_metrics_snapshot(path) -> dict | None:
    """The most recent ``{"kind": "metrics"}`` record's payload, or
    ``None`` if the trace has no snapshot (e.g. a crashed run)."""
    snapshot = None
    for record in read_jsonl(path):
        if record.get("kind") == "metrics":
            snapshot = record.get("metrics")
    return snapshot
