"""Traced runs: spans around calls into each layer's public functions.

The wrappers live here, in the benchmark's own files; no program file
is touched.  A span records its name, start, end, parent span and the
request id it shares with the rest of its request.  Spans stay in
memory while the run measures, are written out when it ends, and the
per-layer metrics are derived from them afterwards (self time is a
span's duration minus the part of it its children cover).

Worker threads the program starts itself (the cluster's per-shard and
per-lane threads) have no span of their own open, so their spans
attach under the innermost open span of the bound caller thread — the
closed loop has one caller, blocked in the fan-out while they run.

Wrappers check ``Recorder.enabled`` first, so an installed but
disabled recorder costs one attribute read per call.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import os
import pathlib
import threading
import time

import numpy as np

from .stats import percentile

# Span layout (lists, for cheap appends): id, name, start, end,
# parent id, request id, attributes.
SID, NAME, START, END, PARENT, RID, ATTRS = range(7)

#: Per-layer metrics of a traced run, with their units.  Metrics that
#: do not apply to a workload (no cluster on ``scan-50k``, no wire on
#: the in-process workloads) are reported as 0.
LAYER_METRICS = {
    "gateway.wire_p50_ms": "ms",
    "gateway.wire_p99_ms": "ms",
    "gateway.cache_hit_ratio": "ratio",
    "admission.wait_p99_ms": "ms",
    "admission.shed": "count",
    "service.self_p50_ms": "ms",
    "service.attempts_per_request": "count",
    "service.write_p50_ms": "ms",
    "service.write_p99_ms": "ms",
    # The whole search's p99, from the untraced phase: a tail too
    # host-sensitive to gate on, so reported here beside p95_ms.
    "e2e.search_p99_ms": "ms",
    "engine.embed_p50_ms": "ms",
    "engine.embed_p99_ms": "ms",
    "engine.materialize_p50_ms": "ms",
    "index.query_p50_ms": "ms",
    "index.query_p99_ms": "ms",
    "index.select_p50_ms": "ms",
    "index.rows_per_query": "count",
    "index.bytes_per_query": "bytes",
    "distance.kernel_p50_ms": "ms",
    "cluster.fanout_p50_ms": "ms",
    "cluster.fanout_p99_ms": "ms",
    "cluster.shard_p50_ms": "ms",
    "cluster.straggler_p50_ms": "ms",
    "cluster.overhead_p50_ms": "ms",
    "cluster.threads_per_query": "count",
    "sharding.merge_p50_ms": "ms",
    "cluster.apply_p50_ms": "ms",
    "cluster.apply_p99_ms": "ms",
    "cluster.bytes_per_write": "bytes",
    "ingest.add_p50_ms": "ms",
    "ingest.delete_p50_ms": "ms",
    "wal.append_p50_ms": "ms",
    "wal.append_p99_ms": "ms",
    "wal.fsyncs_per_write": "count",
    "wal.bytes_per_write": "bytes",
    "index.build_ms": "ms",
    "degraded.build_ms": "ms",
    "cluster.build_ms": "ms",
    "model.encode_ms": "ms",
    "runtime.gc_gen2": "count",
    "runtime.gc_pause_ms": "ms",
    "trace.overhead_p50_ms": "ms",
}

#: Build-time spans summed per boot (median over the run's boots).
BUILD_SPANS = {"index.build": "index.build_ms",
               "degraded.build": "degraded.build_ms",
               "cluster.build": "cluster.build_ms",
               "model.encode": "model.encode_ms"}


def _index_bytes(index) -> int:
    return int(sum(a.nbytes for a in (index.embeddings, index.ids,
                                      index.class_ids) if a is not None))


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counters = {"thread_start": 0, "fsync": 0}
        self._count_lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._caller_stack: list | None = None
        self._patched: list[tuple] = []
        self.gc_gen2 = 0
        self.gc_pause_s = 0.0
        self._gc_started: float | None = None

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_caller(self) -> None:
        """Make this thread the one worker-thread spans attach under."""
        self._caller_stack = self._stack()

    def _open(self, name: str, stack: list) -> list:
        parent = stack[-1] if stack else None
        if parent is None and self._caller_stack is not None \
                and stack is not self._caller_stack:
            try:
                parent = self._caller_stack[-1]
            except IndexError:
                parent = None
        sid = next(self._ids)
        span = [sid, name, time.perf_counter(), None,
                None if parent is None else parent[SID],
                sid if parent is None else parent[RID], {}]
        stack.append(span)
        return span

    def _close(self, span: list, stack: list) -> None:
        span[END] = time.perf_counter()
        stack.remove(span)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness-side span (boots), recorded even when disabled."""
        stack = self._stack()
        span = self._open(name, stack)
        try:
            yield span
        finally:
            self._close(span, stack)

    # -- wrappers ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, before=None,
             after=None, outermost: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` runs untimed ahead of the call and its
        return value reaches ``after(attrs, state, args, kwargs,
        result)``, which runs untimed once the span has closed.
        ``outermost`` skips spans nested in one of the same name.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            stack = recorder._stack()
            if outermost and any(s[NAME] == name for s in stack):
                return original(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            span = recorder._open(name, stack)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(span, stack)
            if after is not None:
                after(span[ATTRS], state, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls to ``owner.attr`` while enabled (no span)."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if recorder.enabled:
                with recorder._count_lock:
                    recorder.counters[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _counter(self, name: str) -> int:
        with self._count_lock:
            return self.counters[name]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- garbage collector ---------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def gc_metrics(self) -> dict[str, float]:
        """Collector work seen while recording."""
        return {"runtime.gc_gen2": float(self.gc_gen2),
                "runtime.gc_pause_ms": self.gc_pause_s * 1000.0}

    # -- installation --------------------------------------------------
    def install_program(self) -> None:
        """Class- and module-level wrappers on the program's layers."""
        from repro.core.model import JointEmbeddingModel
        from repro.retrieval import index as index_module
        from repro.retrieval.index import NearestNeighborIndex
        from repro.serving import cluster as cluster_module
        from repro.serving import wal as wal_module
        from repro.serving.cluster import IndexCluster
        from repro.serving.degraded import DegradedRanker
        from repro.serving.ingest import Ingestor
        from repro.serving.service import ResilientSearchService
        from repro.serving.wal import DeltaLog

        def request_after(attrs, state, args, kwargs, result):
            attrs["attempts"] = result.outcome.attempts

        def write_before(args, kwargs):
            return self._counter("fsync")

        def write_after(attrs, state, args, kwargs, result):
            attrs["fsyncs"] = self._counter("fsync") - state

        def query_after(attrs, state, args, kwargs, result):
            index = args[0]
            rows = index.pool_size(kwargs.get("class_id"))
            attrs["rows"] = rows
            attrs["bytes"] = (rows * index.embeddings.shape[1]
                              * index.embeddings.itemsize)

        def fanout_before(args, kwargs):
            return self._counter("thread_start")

        def fanout_after(attrs, state, args, kwargs, result):
            attrs["threads"] = self._counter("thread_start") - state

        def apply_before(args, kwargs):
            return {id(rep): rep.index for shard in args[0].shards
                    for rep in shard.replicas}

        def apply_after(attrs, state, args, kwargs, result):
            attrs["bytes"] = sum(
                _index_bytes(rep.index) for shard in args[0].shards
                for rep in shard.replicas
                if state.get(id(rep)) is not rep.index)

        def append_after(attrs, state, args, kwargs, result):
            attrs["bytes"] = len(wal_module.encode_record(args[1]))

        for method in ("search_by_ingredients", "search_by_recipe"):
            self.wrap(ResilientSearchService, method, "service.request",
                      after=request_after)
        for method in ("ingest", "delete"):
            self.wrap(ResilientSearchService, method, "service.write",
                      before=write_before, after=write_after)
        self.wrap(NearestNeighborIndex, "__init__", "index.build")
        self.wrap(NearestNeighborIndex, "query", "index.query",
                  after=query_after)
        self.wrap(index_module, "cosine_distances_to", "distance.kernel")
        self.wrap(DegradedRanker, "__init__", "degraded.build")
        self.wrap(IndexCluster, "__init__", "cluster.build")
        self.wrap(IndexCluster, "query", "cluster.query",
                  before=fanout_before, after=fanout_after)
        self.wrap(cluster_module, "merge_topk", "sharding.merge")
        for method in ("apply_add", "apply_delete"):
            self.wrap(IndexCluster, method, "cluster.apply",
                      before=apply_before, after=apply_after)
        self.wrap(Ingestor, "add", "ingest.add")
        self.wrap(Ingestor, "delete", "ingest.delete")
        self.wrap(DeltaLog, "append", "wal.append", after=append_after)
        self.wrap(JointEmbeddingModel, "encode_corpus", "model.encode")
        self.count(threading.Thread, "start", "thread_start")
        self.count(os, "fsync", "fsync")
        gc.callbacks.append(self._on_gc)

    def install_service(self, service) -> None:
        """Instance-level wrappers on one booted service's engine and
        admission plane (the objects its requests actually call)."""
        engine = service.engine
        for method in ("embed_ingredients", "embed_recipe"):
            self.wrap(engine, method, "engine.embed")
        self.wrap(engine, "materialize", "engine.materialize",
                  outermost=True)

        def acquire_after(attrs, state, args, kwargs, result):
            attrs["admitted"] = bool(result.admitted)

        self.wrap(service.admission, "acquire", "admission.acquire",
                  after=acquire_after)

    # -- phases --------------------------------------------------------
    def start_phase(self) -> None:
        """Drop spans recorded so far (boots, warm-up) and record."""
        self.spans = []
        self.gc_gen2 = 0
        self.gc_pause_s = 0.0
        self.enabled = True

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span[SID], "name": span[NAME],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "request": span[RID],
                    "attrs": span[ATTRS]}) + "\n")


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> dict[int, float]:
    """Span id → duration minus the union of its children's intervals
    (children on other threads may overlap one another)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span[START]
        for start, end in sorted(children.get(span[SID], ())):
            start, end = max(start, cursor), min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        out[span[SID]] = (span[END] - span[START]) - covered
    return out


def _ms(values) -> list[float]:
    return [v * 1000.0 for v in values]


def _dur(span: list) -> float:
    return span[END] - span[START]


def build_metrics(spans: list[list]) -> dict[str, float]:
    """Median per-boot build times from spans under ``boot`` roots."""
    per_boot: dict[int, dict[str, float]] = {}
    for span in spans:
        if span[NAME] == "boot":
            per_boot.setdefault(span[SID], {})
    for span in spans:
        metric = BUILD_SPANS.get(span[NAME])
        if metric is not None and span[RID] in per_boot:
            totals = per_boot[span[RID]]
            totals[metric] = totals.get(metric, 0.0) + _dur(span) * 1000
    out = {}
    for metric in BUILD_SPANS.values():
        values = [boot[metric] for boot in per_boot.values()
                  if metric in boot]
        if values:
            out[metric] = float(np.median(values))
    return out


def layer_metrics(spans: list[list], writes: int = 0
                  ) -> dict[str, float]:
    """Per-layer metrics of one traced phase (absent where no span of
    that layer was recorded)."""
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
    roots = {span[SID]: span[NAME] for span in spans
             if span[PARENT] is None}
    children: dict[int, list[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)

    def under_request(name):
        return [s for s in by_name.get(name, ())
                if roots.get(s[RID]) == "service.request"]

    out: dict[str, float] = {}

    def put_pct(metric, values, q):
        value = percentile(values, q)
        if value is not None:
            out[metric] = value

    requests = by_name.get("service.request", [])
    if requests:
        own = self_times(requests + [s for s in spans
                                     if roots.get(s[RID])
                                     == "service.request"])
        put_pct("service.self_p50_ms",
                _ms(own[s[SID]] for s in requests), 50)
        out["service.attempts_per_request"] = float(np.mean(
            [s[ATTRS].get("attempts", 0) for s in requests]))
    embeds = _ms(_dur(s) for s in under_request("engine.embed"))
    put_pct("engine.embed_p50_ms", embeds, 50)
    put_pct("engine.embed_p99_ms", embeds, 99)
    put_pct("engine.materialize_p50_ms",
            _ms(_dur(s) for s in under_request("engine.materialize")), 50)

    # On the cluster path these are the per-shard scans of a fan-out.
    queries = under_request("index.query")
    if queries:
        durations = _ms(_dur(s) for s in queries)
        put_pct("index.query_p50_ms", durations, 50)
        put_pct("index.query_p99_ms", durations, 99)
        put_pct("index.select_p50_ms", _ms(
            _dur(s) - sum(_dur(c) for c in children.get(s[SID], ())
                          if c[NAME] == "distance.kernel")
            for s in queries), 50)
        out["index.rows_per_query"] = float(np.mean(
            [s[ATTRS]["rows"] for s in queries]))
        out["index.bytes_per_query"] = float(np.mean(
            [s[ATTRS]["bytes"] for s in queries]))
        put_pct("distance.kernel_p50_ms", _ms(
            _dur(c) for s in queries for c in children.get(s[SID], ())
            if c[NAME] == "distance.kernel"), 50)

    fanouts = under_request("cluster.query")
    if fanouts:
        durations = _ms(_dur(s) for s in fanouts)
        put_pct("cluster.fanout_p50_ms", durations, 50)
        put_pct("cluster.fanout_p99_ms", durations, 99)
        shards = {s[SID]: [c for c in children.get(s[SID], ())
                           if c[NAME] == "index.query"] for s in fanouts}
        put_pct("cluster.shard_p50_ms", _ms(
            _dur(c) for cs in shards.values() for c in cs), 50)
        stragglers = {sid: max(_dur(c) for c in cs)
                      for sid, cs in shards.items() if cs}
        put_pct("cluster.straggler_p50_ms",
                _ms(stragglers.values()), 50)
        put_pct("cluster.overhead_p50_ms", _ms(
            _dur(s) - stragglers[s[SID]] for s in fanouts
            if s[SID] in stragglers), 50)
        out["cluster.threads_per_query"] = float(np.mean(
            [s[ATTRS]["threads"] for s in fanouts]))
        put_pct("sharding.merge_p50_ms", _ms(
            _dur(c) for s in fanouts for c in children.get(s[SID], ())
            if c[NAME] == "sharding.merge"), 50)

    applies = by_name.get("cluster.apply", [])
    if applies and writes:
        durations = _ms(_dur(s) for s in applies)
        put_pct("cluster.apply_p50_ms", durations, 50)
        put_pct("cluster.apply_p99_ms", durations, 99)
        out["cluster.bytes_per_write"] = sum(
            s[ATTRS]["bytes"] for s in applies) / writes
    for name, metric in (("ingest.add", "ingest.add_p50_ms"),
                         ("ingest.delete", "ingest.delete_p50_ms")):
        put_pct(metric, _ms(_dur(s) for s in by_name.get(name, ())), 50)
    appends = by_name.get("wal.append", [])
    if appends and writes:
        durations = _ms(_dur(s) for s in appends)
        put_pct("wal.append_p50_ms", durations, 50)
        put_pct("wal.append_p99_ms", durations, 99)
        out["wal.bytes_per_write"] = sum(
            s[ATTRS]["bytes"] for s in appends) / writes
        out["wal.fsyncs_per_write"] = float(np.mean(
            [s[ATTRS]["fsyncs"] for s in by_name.get("service.write", ())]))

    acquires = by_name.get("admission.acquire", [])
    if acquires:
        put_pct("admission.wait_p99_ms",
                _ms(_dur(s) for s in acquires), 99)
        out["admission.shed"] = float(sum(
            not s[ATTRS].get("admitted", True) for s in acquires))
    return out


def stage_means(spans: list[list]) -> dict[str, float]:
    """The harness's per-stage means (ms) for the telemetry
    cross-check: embed, index (scan or fan-out), materialize."""
    roots = {span[SID]: span[NAME] for span in spans
             if span[PARENT] is None}
    parents = {span[SID]: span for span in spans}
    sums: dict[str, list[float]] = {}
    for span in spans:
        if roots.get(span[RID]) != "service.request":
            continue
        parent = parents.get(span[PARENT])
        stage = {"engine.embed": "embed",
                 "engine.materialize": "materialize",
                 "cluster.query": "index"}.get(span[NAME])
        if span[NAME] == "index.query" and parent is not None \
                and parent[NAME] == "service.request":
            stage = "index"
        if stage is not None:
            sums.setdefault(stage, []).append(_dur(span) * 1000.0)
    return {stage: float(np.mean(values))
            for stage, values in sums.items()}


class StageWindow:
    """The service's own ``serving_stage_seconds`` means over a window
    (difference of two ``stats()`` snapshots)."""

    STAGES = ("embed", "index", "materialize")

    def __init__(self, service):
        self._service = service
        self._start = self._snapshot()

    def _snapshot(self) -> dict[str, tuple[int, float]]:
        latency = self._service.stats()["stage_latency_ms"]
        return {stage: (latency[stage]["count"], latency[stage]["total_ms"])
                for stage in self.STAGES if stage in latency}

    def means(self) -> dict[str, float]:
        end = self._snapshot()
        out = {}
        for stage, (count, total) in end.items():
            count0, total0 = self._start.get(stage, (0, 0.0))
            if count > count0:
                out[stage] = (total - total0) / (count - count0)
        return out


def cross_check_lines(workload: str, harness: dict, service: dict
                      ) -> list[str]:
    """Report-only: harness span means next to the service's own."""
    return [f"{workload} cross-check stage={stage} "
            f"harness_mean_ms={harness.get(stage, float('nan')):.4f} "
            f"service_mean_ms={service.get(stage, float('nan')):.4f}"
            for stage in StageWindow.STAGES]
