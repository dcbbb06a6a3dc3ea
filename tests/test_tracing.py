"""Whole-path tracing tests: cross-thread context propagation,
tail-based sampling, histogram exemplars, and the critical-path
analyzer.

Part of tier-1 (``-m trace`` runs it alone, ``make trace-test``).
Everything here runs on fake clocks and deterministic ids.
"""

import json
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (MetricsRegistry, SpanRecord, Telemetry,
                       TraceContext, Tracer, TraceSampler, aggregate,
                       build_traces, critical_path, parse_prometheus,
                       render_tree, self_time, spans_from_jsonl)
from repro.obs.critpath import kept_trace_tree
from repro.obs.flight import FlightRecorder
from repro.robustness import SlowEmbedFault, SlowShard
from repro.serving import (AdmissionConfig, ClusterConfig, Deadline,
                           ResilientSearchService, RetryPolicy,
                           ServiceConfig)
from repro.serving.ingest import IngestConfig

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)

pytestmark = pytest.mark.trace


@pytest.fixture(scope="module")
def world():
    return make_world(num_pairs=60, num_classes=4, seed=3)


def tree_of(tracer, trace_id):
    return build_traces(tracer.records())[trace_id]


# ----------------------------------------------------------------------
# Context propagation across threads
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_capture_without_active_span_is_none_and_attach_noop(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.capture() is None
        with tracer.attach(None):
            with tracer.span("solo") as span:
                pass
        assert span.parent_id is None

    def test_worker_thread_joins_the_trace(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("request") as root:
            ctx = tracer.capture()
            assert ctx == TraceContext(root.trace_id, root.span_id)

            def work():
                with tracer.attach(ctx):
                    with tracer.span("shard_query", shard=1):
                        clock.sleep(0.01)

            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        records = tracer.records()
        child = next(r for r in records if r.name == "shard_query")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_cross_thread_child_lands_in_parent_children(self):
        # The satellite fix: _finish attaches by parent id under the
        # lock, so a span closed on a worker thread still shows up in
        # parent.children (-> RequestOutcome.stage_ms keeps fan-out
        # stages).
        tracer = Tracer(clock=FakeClock())
        with tracer.span("request") as root:
            ctx = tracer.capture()

            def work():
                with tracer.attach(ctx), tracer.span("fan_out"):
                    pass

            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
            assert [c.name for c in root.children] == ["fan_out"]

    def test_reattach_same_context_twice_nests_harmlessly(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            ctx = tracer.capture()
        with tracer.attach(ctx):
            with tracer.attach(ctx):
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("outer_level") as outer:
                pass
        assert inner.parent_id == root.span_id
        assert outer.parent_id == root.span_id
        assert tracer.current() is None

    def test_span_closed_on_a_different_thread(self):
        # Open on the main thread, close on a worker: the record must
        # land with correct ids, and the opener's stack must not keep
        # parenting to the closed span afterwards.
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("handoff")
        span.__enter__()
        worker = threading.Thread(
            target=span.__exit__, args=(None, None, None))
        worker.start()
        worker.join()
        assert tracer.records()[-1].name == "handoff"
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None

    def test_mis_nested_exits_recover(self):
        tracer = Tracer(clock=FakeClock())
        a = tracer.span("a")
        b = tracer.span("b")  # sibling of a: created before a entered
        a.__enter__()
        b2 = tracer.span("b2")  # child of a
        b2.__enter__()
        a.__exit__(None, None, None)   # out of order
        b2.__exit__(None, None, None)
        b.__enter__()
        b.__exit__(None, None, None)
        names = {r.name: r for r in tracer.records()}
        assert names["b2"].parent_id == a.span_id
        assert names["b2"].trace_id == a.trace_id
        assert tracer.current() is None

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 3)),
                    min_size=1, max_size=8))
    def test_every_parent_id_resolves_within_its_trace(self, plan):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root") as root:
            for cross_thread, fanout in plan:
                with tracer.span("stage"):
                    ctx = tracer.capture()

                    def work():
                        with tracer.attach(ctx):
                            for __ in range(fanout):
                                with tracer.span("child"):
                                    clock.sleep(0.001)

                    if cross_thread:
                        workers = [threading.Thread(target=work)
                                   for __ in range(2)]
                        for w in workers:
                            w.start()
                        for w in workers:
                            w.join()
                    else:
                        work()
        records = tracer.records()
        assert {r.trace_id for r in records} == {root.trace_id}
        by_id = {r.span_id for r in records}
        for record in records:
            assert (record.parent_id is None
                    or record.parent_id in by_id)
        trees = build_traces(records)
        assert list(trees) == [root.trace_id]
        assert trees[root.trace_id].orphans == []
        assert len(trees[root.trace_id].roots) == 1


# ----------------------------------------------------------------------
# export_jsonl dedup (satellite)
# ----------------------------------------------------------------------
class TestExportDedup:
    def test_repeated_exports_do_not_duplicate(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        path = tmp_path / "spans.jsonl"
        for name in ("a", "b"):
            with tracer.span(name):
                pass
        assert tracer.export_jsonl(path) == 2
        assert tracer.export_jsonl(path) == 0
        with tracer.span("c"):
            pass
        assert tracer.export_jsonl(path) == 1
        rows = [json.loads(line)
                for line in path.read_text().splitlines()]
        assert [row["name"] for row in rows] == ["a", "b", "c"]
        assert len({row["span_id"] for row in rows}) == 3

    def test_export_survives_ring_buffer_wrap(self, tmp_path):
        tracer = Tracer(clock=FakeClock(), max_spans=4)
        path = tmp_path / "spans.jsonl"
        for i in range(3):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.export_jsonl(path) == 3
        for i in range(3, 9):  # 6 more; ring holds only the last 4
            with tracer.span(f"s{i}"):
                pass
        assert tracer.export_jsonl(path) == 4
        rows = [json.loads(line)
                for line in path.read_text().splitlines()]
        assert len(rows) == 7
        assert len({row["span_id"] for row in rows}) == 7


# ----------------------------------------------------------------------
# Tail-based sampling
# ----------------------------------------------------------------------
def span_record(name, trace_id, span_id, parent_id=None, start=0.0,
                duration=0.01, status="ok", **attributes):
    return SpanRecord(name=name, trace_id=trace_id, span_id=span_id,
                      parent_id=parent_id, start=start,
                      duration=duration, status=status,
                      attributes=attributes)


class TestTailSampler:
    def test_errored_trace_always_kept(self):
        sampler = TraceSampler(fraction=0.0)
        sampler.observe(span_record("embed", 1, 11, parent_id=10,
                                    status="error"))
        sampler.observe(span_record("request", 1, 10))
        kept = sampler.kept()
        assert [t.verdict for t in kept] == ["error"]
        assert {r.span_id for r in kept[0].spans} == {10, 11}

    def test_flagged_outcome_always_kept(self):
        sampler = TraceSampler(fraction=0.0)
        for i, status in enumerate(("shed", "partial", "degraded",
                                    "timeout"), start=1):
            record = span_record("request", i, i * 10)
            record.attributes["status"] = status
            sampler.observe(record)
        assert [t.verdict for t in sampler.kept()] == ["flagged"] * 4

    def test_slow_trace_kept_via_rolling_p99(self):
        sampler = TraceSampler(fraction=0.0, min_history=10)
        for i in range(1, 12):
            sampler.observe(span_record("request", i, i * 10,
                                        duration=0.01))
        assert sampler.kept() == []   # constant durations: never slow
        sampler.observe(span_record("request", 99, 990, duration=1.0))
        assert [t.verdict for t in sampler.kept()] == ["slow"]
        assert sampler.kept()[0].trace_id == 99

    def test_healthy_retention_matches_fraction(self):
        registry = MetricsRegistry()
        sampler = TraceSampler(fraction=0.25, registry=registry,
                               seed=7)
        n = 600
        for i in range(1, n + 1):
            sampler.observe(span_record("request", i, i * 10,
                                        duration=0.01))
        counter = registry.get("traces_sampled_total")
        sampled = counter.labels(verdict="sampled").value
        dropped = counter.labels(verdict="dropped").value
        assert sampled + dropped == n
        assert sampled / n == pytest.approx(0.25, abs=0.08)
        assert len(sampler.kept()) <= 64

    def test_pending_memory_is_bounded(self):
        registry = MetricsRegistry()
        sampler = TraceSampler(fraction=1.0, max_pending=4,
                               registry=registry)
        for i in range(1, 11):   # ten traces whose roots never close
            sampler.observe(span_record("embed", i, i * 10 + 1,
                                        parent_id=i * 10))
        assert sampler.pending_traces() <= 4
        counter = registry.get("traces_sampled_total")
        assert counter.labels(verdict="evicted").value == 6

    def test_late_span_joins_its_kept_trace(self):
        # A compaction span closes after its ingest request: the span
        # must ride the already-made verdict, not open a new pending
        # trace.
        sampler = TraceSampler(fraction=1.0)
        sampler.observe(span_record("request", 5, 50))
        sampler.observe(span_record("compaction", 5, 51, parent_id=50))
        kept = sampler.get(5)
        assert kept is not None
        assert {r.name for r in kept.spans} == {"request", "compaction"}
        assert sampler.pending_traces() == 0


# ----------------------------------------------------------------------
# Histogram exemplars (+ parse_prometheus round trip, satellite)
# ----------------------------------------------------------------------
class TestExemplars:
    def test_one_exemplar_per_bucket_latest_wins(self):
        histogram = MetricsRegistry().histogram(
            "h_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05, trace_id=1)
        histogram.observe(0.07, trace_id=2)
        histogram.observe(0.5, trace_id=3)
        histogram.observe(5.0)           # no trace: no exemplar
        assert histogram._default().exemplars() == {
            0: (0.07, "2"), 1: (0.5, "3")}

    def test_prometheus_exposition_and_parse_round_trip(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "stage_seconds", labels=("stage",), buckets=(0.1, 1.0))
        histogram.labels(stage="embed").observe(0.5, trace_id=42)
        text = registry.to_prometheus()
        assert '# {trace_id="42"} 0.5' in text
        parsed = parse_prometheus(text)
        key = (("le", "1"), ("stage", "embed"))
        assert parsed["stage_seconds_bucket"][key] == 1.0
        exemplar = parsed.exemplars[("stage_seconds_bucket", key)]
        assert exemplar == {"labels": {"trace_id": "42"},
                            "value": 0.5}
        # untouched series parse exactly as before
        assert parsed["stage_seconds_count"][
            (("stage", "embed"),)] == 1.0

    def test_json_round_trip_preserves_exemplars(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(0.1, 1.0)).observe(
            0.5, trace_id=7)
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.get("h")._default().exemplars() == {1: (0.5, "7")}
        # and a second snapshot of the clone carries them forward
        assert clone.to_dict()["h"]["samples"][0]["exemplars"] == {
            "1": {"value": 0.5, "trace_id": "7"}}

    def test_parse_without_exemplars_is_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        parsed = parse_prometheus(registry.to_prometheus())
        assert parsed["c_total"][()] == 3.0
        assert parsed.exemplars == {}


# ----------------------------------------------------------------------
# Critical-path analyzer
# ----------------------------------------------------------------------
class TestCritPath:
    def make_fanout_trace(self):
        # request [0, 1.0] -> index [0.1, 0.9] -> two shards where
        # shard 0 is the straggler, plus a quick materialize.
        return [
            span_record("request", 1, 1, start=0.0, duration=1.0),
            span_record("index", 1, 2, parent_id=1, start=0.1,
                        duration=0.8),
            span_record("shard_query", 1, 3, parent_id=2, start=0.12,
                        duration=0.7, shard=0),
            span_record("shard_query", 1, 4, parent_id=2, start=0.12,
                        duration=0.1, shard=1),
            span_record("materialize", 1, 5, parent_id=1, start=0.9,
                        duration=0.08),
        ]

    def test_build_traces_flags_orphans(self):
        records = self.make_fanout_trace()
        records.append(span_record("lost", 1, 9, parent_id=777))
        tree = build_traces(records)[1]
        assert [r.name for r in tree.orphans] == ["lost"]
        assert len(tree.roots) == 1
        assert len(tree.spans()) == 5

    def test_self_time_excludes_child_overlap(self):
        tree = build_traces(self.make_fanout_trace())[1]
        index = next(n for n in tree.root.walk() if n.name == "index")
        # index [0.1, 0.9], children cover [0.12, 0.82] -> 0.1 self
        assert self_time(index) == pytest.approx(0.1)
        shard = next(n for n in tree.root.walk()
                     if n.record.attributes.get("shard") == 0)
        assert self_time(shard) == pytest.approx(0.7)

    def test_critical_path_picks_the_straggler(self):
        tree = build_traces(self.make_fanout_trace())[1]
        segments = critical_path(tree.root)
        attributed = {}
        for node, seconds in segments:
            key = (node.name, node.record.attributes.get("shard"))
            attributed[key] = attributed.get(key, 0.0) + seconds
        # the fast shard never appears on the blocking path
        assert ("shard_query", 1) not in attributed
        assert attributed[("shard_query", 0)] == pytest.approx(0.7)
        total = sum(seconds for __, seconds in segments)
        assert total == pytest.approx(tree.root.duration)

    def test_aggregate_breakdown_and_focus(self):
        records = self.make_fanout_trace()
        trees = build_traces(records)
        breakdown = aggregate(trees)
        assert breakdown["traces"] == 1
        assert breakdown["total_s"] == pytest.approx(1.0)
        names = list(breakdown["by_name"])
        assert names[0] == "shard_query"     # dominant, sorted first
        shares = sum(entry["share"]
                     for entry in breakdown["by_name"].values())
        assert shares == pytest.approx(1.0)
        focused = aggregate(trees, focus_quantile=0.99)
        assert focused["traces"] == 1

    def test_render_tree_marks_critical_path(self):
        tree = build_traces(self.make_fanout_trace())[1]
        art = render_tree(tree, critical=True)
        lines = art.splitlines()
        assert lines[0] == "trace 1"
        assert any("└──" in line or "├──" in line for line in lines)
        straggler = next(line for line in lines
                         if "shard=0" in line)
        assert straggler.lstrip("│ ├└─").startswith("*")
        fast = next(line for line in lines if "shard=1" in line)
        assert "*" not in fast


# ----------------------------------------------------------------------
# Whole-path integration through the service (fake clock)
# ----------------------------------------------------------------------
def make_service(world, *, faults=None, clock=None, **overrides):
    dataset, featurizer = world
    engine = make_engine(dataset, featurizer)
    clock = clock or FakeClock()
    defaults = dict(
        deadline=10.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
        admission=AdmissionConfig(),
    )
    defaults.update(overrides)
    service = ResilientSearchService(
        engine, ServiceConfig(**defaults), clock=clock,
        sleep=clock.sleep, rng=random.Random(0), cluster_faults=faults)
    return service, clock


class TestServiceWholePath:
    def test_sharded_request_is_one_tree_with_queue_wait(self, world):
        service, __ = make_service(
            world, cluster=ClusterConfig(num_shards=2, replication=1))
        ingredients = known_ingredients(service._active.engine, 2)
        response = service.search_by_ingredients(ingredients, k=3)
        assert response.ok
        tracer = service.telemetry.tracer
        roots = [r for r in tracer.records()
                 if r.name == "request" and r.parent_id is None]
        tree = tree_of(tracer, roots[-1].trace_id)
        assert tree.orphans == []
        assert len(tree.roots) == 1
        stages = {c.name: c for c in tree.root.children}
        assert {"admit", "embed", "index",
                "materialize"} <= set(stages)
        # the fair-queue wait is an explicit child of admit
        admit_children = [c.name for c in stages["admit"].children]
        assert admit_children == ["queue_wait"]
        queue_wait = stages["admit"].children[0]
        assert queue_wait.record.attributes["tenant"] == "default"
        assert queue_wait.record.attributes["outcome"] == "granted"
        shard_ids = sorted(
            c.record.attributes["shard"]
            for c in stages["index"].children
            if c.name == "shard_query")
        assert shard_ids == [0, 1]

    def test_stage_ms_still_covers_fanout_request(self, world):
        service, __ = make_service(
            world, cluster=ClusterConfig(num_shards=2, replication=1))
        ingredients = known_ingredients(service._active.engine, 2)
        outcome = service.search_by_ingredients(ingredients, k=3).outcome
        assert {"admit", "embed", "index",
                "materialize"} <= set(outcome.stage_ms)

    def test_critpath_blames_the_slow_shard(self, world):
        clock = FakeClock()
        fault = SlowShard(queries=range(0, 1_000_000), shard_id=0,
                          delay=0.5, sleep=clock.sleep)
        service, __ = make_service(
            world, clock=clock, faults=fault,
            cluster=ClusterConfig(num_shards=2, replication=1))
        ingredients = known_ingredients(service._active.engine, 2)
        response = service.search_by_ingredients(ingredients, k=3)
        assert response.ok
        tracer = service.telemetry.tracer
        root_record = [r for r in tracer.records()
                       if r.name == "request"][-1]
        tree = tree_of(tracer, root_record.trace_id)
        assert tree.orphans == []
        attributed = {}
        for node, seconds in critical_path(tree.root):
            attributed[node] = attributed.get(node, 0.0) + seconds
        dominant = max(attributed, key=attributed.get)
        assert dominant.name == "shard_query"
        assert dominant.record.attributes["shard"] == 0
        assert attributed[dominant] >= 0.5

    def test_request_latency_histogram_carries_trace_exemplar(
            self, world):
        service, __ = make_service(world)
        ingredients = known_ingredients(service._active.engine, 2)
        assert service.search_by_ingredients(ingredients, k=3).ok
        tracer = service.telemetry.tracer
        trace_id = [r for r in tracer.records()
                    if r.name == "request"][-1].trace_id
        family = service.telemetry.registry.get(
            "serving_request_seconds")
        exemplars = family._default().exemplars()
        assert str(trace_id) in {t for __, t in exemplars.values()}

    def test_compaction_trace_links_to_triggering_ingest(
            self, world, tmp_path):
        dataset, featurizer = world
        clock = FakeClock()
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(deadline=10.0),
            clock=clock, sleep=clock.sleep,
            ingest_log=tmp_path / "wal",
            ingest_config=IngestConfig(fsync_every=1))
        recipe = list(dataset.split("train"))[0]
        assert service.ingest(recipe).status == "ok"
        report = service.compact_ingest()
        assert report.ok
        tracer = service.telemetry.tracer
        ingest = [r for r in tracer.records()
                  if r.name == "ingest"][-1]
        compaction = [r for r in tracer.records()
                      if r.name == "compaction"][-1]
        assert compaction.trace_id == ingest.trace_id
        assert compaction.parent_id == ingest.span_id


# ----------------------------------------------------------------------
# One latency budget: spans, serving_stage_seconds and stats() agree
# ----------------------------------------------------------------------
class TestLatencyBudgetAgreement:
    @pytest.mark.parametrize("admission", [
        AdmissionConfig.static(2),
        AdmissionConfig(initial_limit=2, min_limit=1, max_limit=4)],
        ids=["static", "adaptive"])
    def test_stage_totals_agree_across_sources(self, world, admission):
        dataset, featurizer = world
        clock = FakeClock()
        slow = SlowEmbedFault(requests=[0, 2, 3], delay=0.05,
                              sleep=clock.sleep)
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(deadline=1.0, admission=admission),
            clock=clock, sleep=clock.sleep, rng=random.Random(0),
            faults=slow)
        ingredients = known_ingredients(service.engine, 2)
        for __ in range(4):
            assert service.search_by_ingredients(ingredients, k=3).ok
        # With every slot held, the static preset sheds at once and
        # the adaptive queue holds the request until its deadline dies.
        held = [service.admission.acquire(
            "holder", None, Deadline(60.0, clock=clock))
            for __ in range(service.admission.limit)]
        assert all(decision.admitted for decision in held)
        shed = service.search_by_ingredients(ingredients, k=3,
                                             deadline=0.3).outcome
        assert shed.status == "shed"
        for __ in held:
            service.admission.release(0.0)

        trees = [tree for tree in build_traces(
            service.telemetry.tracer.records()).values()
            if tree.root is not None and tree.root.name == "request"]
        assert len(trees) == 5
        static = admission.max_queue_depth == 0
        # queue_wait nests under admit for every request that reached
        # the queue; a static shed never does.
        assert [[grandchild.name for grandchild in child.children]
                for tree in trees for child in tree.root.children
                if child.name == "admit"] == \
            [["queue_wait"]] * 4 + [[] if static else ["queue_wait"]]
        from_spans: dict[str, float] = {}
        for tree in trees:
            for child in tree.root.children:
                from_spans[child.name] = (from_spans.get(child.name, 0.0)
                                          + child.duration)
        critical = aggregate(trees)["by_name"]
        from_critpath = {
            name: sum(critical.get(part, {"seconds": 0.0})["seconds"]
                      for part in parts)
            for name, parts in (("admit", ("admit", "queue_wait")),
                                ("embed", ("embed",)),
                                ("index", ("index",)),
                                ("materialize", ("materialize",)))}
        from_outcomes: dict[str, float] = {}
        for outcome in service.outcomes:
            for name, ms in outcome.stage_ms.items():
                from_outcomes[name] = from_outcomes.get(name, 0.0) + ms
        histogram = dict(service.telemetry.registry.get(
            "serving_stage_seconds").children())
        stats = service.stats()["stage_latency_ms"]

        assert set(from_spans) == set(stats) == {
            "admit", "embed", "index", "materialize"}
        for name, seconds in from_spans.items():
            child = histogram[(name,)]
            assert child.sum == pytest.approx(seconds)
            assert stats[name]["total_ms"] == pytest.approx(
                seconds * 1000.0)
            assert from_outcomes[name] == pytest.approx(seconds * 1000.0)
            assert from_critpath[name] == pytest.approx(seconds)
        assert stats["admit"]["count"] == 5
        assert stats["embed"]["count"] == 4
        assert from_spans["embed"] == pytest.approx(0.15)
        if static:
            assert shed.shed_reason == "inflight_limit"
            assert from_spans["admit"] == 0.0
        else:
            assert shed.shed_reason == "expired"
            assert from_spans["admit"] >= 0.3


# ----------------------------------------------------------------------
# Telemetry wiring, flight bundles, CLI
# ----------------------------------------------------------------------
class TestTelemetryAndFlight:
    def test_telemetry_wires_sampler_and_counts_verdicts(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock, trace_sample_fraction=1.0)
        with telemetry.tracer.span("request") as span:
            clock.sleep(0.01)
            span.set_attribute("status", "ok")
        kept = telemetry.sampler.kept()
        assert [t.verdict for t in kept] == ["sampled"]
        counter = telemetry.registry.get("traces_sampled_total")
        assert counter.labels(verdict="sampled").value == 1
        tree = kept_trace_tree(kept[0])
        assert tree.root.name == "request"

    def test_flight_bundle_contains_kept_traces(self, tmp_path):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock, trace_sample_fraction=1.0)
        with telemetry.tracer.span("request"):
            with telemetry.tracer.span("embed"):
                clock.sleep(0.002)
        recorder = FlightRecorder(telemetry, tmp_path,
                                  min_interval_s=0.0)
        bundle = recorder.dump(reason="test")
        traces = (bundle / "traces.jsonl").read_text().splitlines()
        assert len(traces) == 1
        row = json.loads(traces[0])
        assert row["verdict"] == "sampled"
        assert {s["name"] for s in row["spans"]} == {"request",
                                                     "embed"}
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["traces"] == 1
        # and the bundle's span file feeds the analyzer directly
        records = spans_from_jsonl(bundle / "traces.jsonl")
        assert len(build_traces(records)) == 1


class TestTraceCli:
    def export(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("request") as root:
            with tracer.span("index"):
                with tracer.span("shard_query", shard=0):
                    clock.sleep(0.2)
        path = tmp_path / "spans.jsonl"
        tracer.export_jsonl(path)
        return path, root.trace_id

    def test_list_show_critpath(self, tmp_path, capsys):
        from repro.cli import main

        path, trace_id = self.export(tmp_path)
        assert main(["trace", "list", "--jsonl", str(path)]) == 0
        listing = capsys.readouterr().out
        assert "request" in listing and str(trace_id) in listing

        assert main(["trace", "show", str(trace_id), "--jsonl",
                     str(path), "--critical"]) == 0
        art = capsys.readouterr().out
        assert "shard_query" in art and "└──" in art and "*" in art

        assert main(["trace", "critpath", "--jsonl", str(path)]) == 0
        breakdown = capsys.readouterr().out
        assert "shard_query" in breakdown and "%" in breakdown

    def test_show_unknown_trace_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        path, __ = self.export(tmp_path)
        assert main(["trace", "show", "99999", "--jsonl",
                     str(path)]) == 1
        assert "not found" in capsys.readouterr().out
