"""Tests for the telemetry layer (:mod:`repro.obs`) and its wiring
into the trainer and the resilient serving layer.

Run alone with ``pytest -m obs`` (or ``make telemetry-test``).  The
final class doubles as a chaos scenario: injected serving faults must
move the breaker gauges and the shed/degraded counters.
"""

import json
import random
import threading

import numpy as np
import pytest

from repro.core import Trainer, TrainingConfig, build_scenario
from repro.data import DatasetConfig, RecipeFeaturizer, generate_dataset
from repro.obs import (DEFAULT_BUCKETS, EventLog, MetricError,
                       MetricsRegistry, Telemetry, Timer, Tracer,
                       last_metrics_snapshot, parse_prometheus,
                       read_jsonl)
from repro.robustness import NaNEmbedFault
from repro.serving import (AdmissionConfig, CircuitState, Deadline,
                           ResilientSearchService, RetryPolicy,
                           ServiceConfig)
from repro.serving.service import BREAKER_STATE_VALUES

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestCounterAndGauge:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", labels=("a",))
        assert registry.counter("x_total", labels=("a",)) is first
        with pytest.raises(MetricError):
            registry.gauge("x_total")
        with pytest.raises(MetricError):
            registry.counter("x_total", labels=("b",))

    def test_labelled_children_are_independent(self):
        counter = MetricsRegistry().counter("c", labels=("k",))
        counter.labels(k="a").inc(2)
        counter.labels(k="b").inc(3)
        assert counter.labels(k="a").value == 2
        assert counter.labels(k="b").value == 3

    def test_counter_thread_safety(self):
        counter = MetricsRegistry().counter("c_total")
        gauge = MetricsRegistry().gauge("g")

        def work():
            for __ in range(1000):
                counter.inc()
                gauge.inc()

        threads = [threading.Thread(target=work) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000
        assert gauge.value == 8000


class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 5.0, 7.0):
            hist.observe(value)
        # le-inclusive: 1.0 falls in the le=1 bucket, 2.0 in le=2,
        # 5.0 in le=5, 7.0 in the +Inf overflow bucket.
        assert hist.bucket_counts() == [2, 2, 1, 1]
        assert hist.cumulative() == [2, 4, 5, 6]
        assert hist.count == 6
        assert hist.sum == pytest.approx(17.0)

    def test_exact_sum_and_count_survive_prometheus(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(3.0)
        parsed = parse_prometheus(registry.to_prometheus())
        assert parsed["lat_count"][()] == 3
        assert parsed["lat_sum"][()] == pytest.approx(3.55)
        assert parsed["lat_bucket"][(("le", "0.1"),)] == 1
        assert parsed["lat_bucket"][(("le", "1"),)] == 2
        assert parsed["lat_bucket"][(("le", "+Inf"),)] == 3

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestExposition:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests",
                         labels=("kind",)).labels(kind="a").inc(7)
        registry.gauge("temp", "state").set(2)
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        return registry

    def test_prometheus_round_trip(self):
        registry = self._populated()
        parsed = parse_prometheus(registry.to_prometheus())
        assert parsed["req_total"][(("kind", "a"),)] == 7
        assert parsed["temp"][()] == 2
        assert parsed["h_count"][()] == 2

    def test_dict_round_trip_preserves_everything(self):
        registry = self._populated()
        rebuilt = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.to_dict())))
        assert rebuilt.to_prometheus() == registry.to_prometheus()


# ----------------------------------------------------------------------
# Tracing and timing
# ----------------------------------------------------------------------
class TestSpans:
    def test_parenting_and_completion_order(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("request", kind="x") as request:
            with tracer.span("embed"):
                clock.sleep(0.010)
            with tracer.span("index"):
                clock.sleep(0.002)
        # children recorded on the parent, in completion order
        assert [c.name for c in request.children] == ["embed", "index"]
        assert request.children[0].parent_id == request.span_id
        assert request.children[0].duration == pytest.approx(0.010)
        # ring buffer: children before parents
        assert [r.name for r in tracer.finished] == [
            "embed", "index", "request"]
        assert request.record.duration == pytest.approx(0.012)
        # all three share the request's trace id
        assert {r.trace_id for r in tracer.finished} == {
            request.trace_id}

    def test_error_spans_keep_status_and_never_swallow(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("bad") as span:
                raise ValueError("boom")
        assert span.record.status == "error"
        assert "boom" in span.record.error

    def test_attributes_are_nested_in_events(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", kind="shadowing"):  # must not clobber
            pass
        event = tracer.to_events()[0]
        assert event["kind"] == "span"
        assert event["attributes"] == {"kind": "shadowing"}

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(clock=FakeClock(), max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.finished] == ["s2", "s3", "s4"]

    def test_threads_do_not_share_lineage(self):
        tracer = Tracer(clock=FakeClock())
        parents = []

        def worker():
            with tracer.span("child") as span:
                parents.append(span.parent_id)

        with tracer.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert parents == [None]


class TestTimer:
    def test_feeds_histogram_and_records_last(self):
        clock = FakeClock()
        hist = MetricsRegistry().histogram("t", buckets=(0.01, 0.1))
        timer = Timer(histogram=hist, clock=clock)
        with timer:
            clock.sleep(0.05)
        assert timer.last == pytest.approx(0.05)
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.05)

    def test_decorator_times_each_call(self):
        clock = FakeClock()
        hist = MetricsRegistry().histogram("t")
        timer = Timer(histogram=hist, clock=clock)

        @timer
        def work():
            clock.sleep(0.001)

        work()
        work()
        assert hist.count == 2

    def test_failures_are_timed_too(self):
        clock = FakeClock()
        hist = MetricsRegistry().histogram("t")
        with pytest.raises(RuntimeError):
            with Timer(histogram=hist, clock=clock):
                clock.sleep(0.2)
                raise RuntimeError("fail")
        assert hist.count == 1


class TestEventLog:
    def test_printer_only_sees_messages(self):
        printed = []
        log = EventLog(printer=printed.append, clock=FakeClock())
        log.emit("quiet", detail=1)
        log.emit("loud", message="hello", detail=2)
        assert printed == ["hello"]
        assert len(log) == 2
        assert [e["detail"] for e in log.of_type("quiet")] == [1]


# ----------------------------------------------------------------------
# Trainer instrumentation: the mining curriculum is observable
# ----------------------------------------------------------------------
class TestTrainerTelemetry:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        ds = generate_dataset(DatasetConfig(num_pairs=90, num_classes=5,
                                            image_size=12, seed=7))
        feat = RecipeFeaturizer(word_dim=8, sentence_dim=8).fit(ds)
        model, config = build_scenario(
            "adamine", feat, 5, 12,
            base_config=TrainingConfig(epochs=2, freeze_epochs=0,
                                       batch_size=8, augment=False,
                                       eval_bag_size=10, eval_num_bags=1),
            latent_dim=8)
        path = tmp_path_factory.mktemp("obs") / "telemetry.jsonl"
        telemetry = Telemetry(jsonl_path=path)
        trainer = Trainer(
            model, config,
            class_to_group=ds.taxonomy.class_to_group_ids(),
            telemetry=telemetry)
        trainer.fit(feat.encode_split(ds, "train"),
                    feat.encode_split(ds, "val"))
        telemetry.close()
        return trainer, path

    def test_epoch_events_carry_beta_prime_for_both_losses(self, trained):
        __, path = trained
        epochs = [r for r in read_jsonl(path)
                  if r.get("event") == "epoch"]
        assert [e["epoch"] for e in epochs] == [0, 1]
        for event in epochs:
            assert event["beta_instance"] > 0
            assert event["beta_semantic"] > 0
            assert 0 < event["instance_active_fraction"] <= 1

    def test_epoch_spans_cover_training(self, trained):
        trainer, path = trained
        spans = [r for r in read_jsonl(path) if r.get("kind") == "span"]
        assert [s["name"] for s in spans] == ["train_epoch",
                                              "train_epoch"]
        assert trainer.telemetry.tracer.finished  # in-memory too

    def test_final_snapshot_exposes_curriculum_counters(self, trained):
        trainer, path = trained
        snapshot = last_metrics_snapshot(path)
        assert snapshot is not None
        rebuilt = MetricsRegistry.from_dict(snapshot)
        parsed = parse_prometheus(rebuilt.to_prometheus())
        beta = parsed["train_informative_triplets_total"]
        assert beta[(("loss", "instance"),)] > 0
        assert beta[(("loss", "semantic"),)] > 0
        # cumulative beta-prime can never exceed the triplets mined
        total = parsed["train_triplets_total"]
        for key, value in beta.items():
            assert value <= total[key]
        assert parsed["train_steps_total"][()] > 0
        assert parsed["train_grad_norm_count"][()] > 0
        # history and gauges agree on the last epoch's loss breakdown
        last = trainer.history[-1]
        loss = parsed["train_epoch_loss"]
        assert loss[(("component", "instance"),)] == pytest.approx(
            last.instance_loss)
        assert loss[(("component", "semantic"),)] == pytest.approx(
            last.semantic_loss)

    def test_history_beta_matches_events(self, trained):
        trainer, path = trained
        epochs = [r for r in read_jsonl(path)
                  if r.get("event") == "epoch"]
        for stats, event in zip(trainer.history, epochs):
            assert stats.instance_beta == event["beta_instance"]
            assert stats.semantic_beta == event["beta_semantic"]


# ----------------------------------------------------------------------
# Serving instrumentation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    return make_world()


def make_service(world, faults=None, **overrides):
    dataset, featurizer = world
    engine = make_engine(dataset, featurizer)
    clock = FakeClock()
    defaults = dict(
        deadline=1.0,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
    )
    defaults.update(overrides)
    service = ResilientSearchService(
        engine, ServiceConfig(**defaults), clock=clock,
        sleep=clock.sleep, rng=random.Random(0), faults=faults)
    return service, clock


class TestServiceTelemetry:
    def test_request_outcome_carries_stage_breakdown(self, world):
        service, __ = make_service(world)
        ingredients = known_ingredients(service._active.engine)
        response = service.search_by_ingredients(ingredients, k=3)
        assert response.outcome.status == "ok"
        assert set(response.outcome.stage_ms) == {
            "admit", "embed", "index", "materialize"}
        stats = service.stats()
        assert set(stats["stage_latency_ms"]) == {
            "admit", "embed", "index", "materialize"}
        assert stats["stage_latency_ms"]["embed"]["count"] == 1

    def test_prometheus_dump_has_serving_series(self, world):
        service, __ = make_service(world)
        ingredients = known_ingredients(service._active.engine)
        service.search_by_ingredients(ingredients, k=3)
        parsed = parse_prometheus(
            service.telemetry.registry.to_prometheus())
        assert parsed["serving_requests_total"][
            (("kind", "ingredients"), ("status", "ok"))] == 1
        assert parsed["serving_request_seconds_count"][()] == 1
        for stage in ("admit", "embed", "index", "materialize"):
            assert parsed["serving_stage_seconds_count"][
                (("stage", stage),)] == 1
            assert (("stage", stage),) in \
                parsed["serving_deadline_remaining_seconds_count"]
        assert parsed["serving_stage_attempts_total"][
            (("stage", "embed"),)] == 1
        for dependency in ("embed", "index"):
            assert parsed["serving_breaker_state"][
                (("dependency", dependency),)] == 0
        assert parsed["serving_inflight"][()] == 0
        assert parsed["serving_generation"][()] == 0

    def test_request_spans_parent_their_stages(self, world):
        service, __ = make_service(world)
        ingredients = known_ingredients(service._active.engine)
        service.search_by_ingredients(ingredients, k=3)
        events = service.telemetry.tracer.to_events()
        request = [e for e in events if e["name"] == "request"][-1]
        stages = [e for e in events
                  if e.get("parent_id") == request["span_id"]]
        assert [s["name"] for s in stages] == [
            "admit", "embed", "index", "materialize"]
        assert request["attributes"]["status"] == "ok"

    def test_swap_emits_event_and_moves_generation_gauge(self, world):
        service, __ = make_service(world)
        report = service.swap_corpus(service._active.engine.corpus)
        assert report.ok and report.duration_s >= 0
        assert "ms" in report.summary()
        parsed = parse_prometheus(
            service.telemetry.registry.to_prometheus())
        assert parsed["serving_generation"][()] == 1
        assert parsed["serving_swaps_total"][
            (("result", "swapped"),)] == 1
        assert parsed["serving_canaries_total"][()] == report.canaries_run
        swap_events = service.telemetry.events.of_type("swap")
        assert len(swap_events) == 1 and swap_events[0]["ok"]


# ----------------------------------------------------------------------
# Chaos: injected faults must show up on the dashboards
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestTelemetryUnderFaults:
    def test_breaker_gauge_and_degraded_counter_move(self, world):
        fault = NaNEmbedFault(requests=[0])
        service, __ = make_service(world, faults=fault)
        ingredients = known_ingredients(service._active.engine)
        response = service.search_by_ingredients(ingredients, k=3)
        assert response.outcome.status == "degraded"
        assert service.embed_breaker.state is CircuitState.OPEN
        parsed = parse_prometheus(
            service.telemetry.registry.to_prometheus())
        assert parsed["serving_breaker_state"][
            (("dependency", "embed"),)] == \
            BREAKER_STATE_VALUES[CircuitState.OPEN]
        assert parsed["serving_breaker_transitions_total"][
            (("dependency", "embed"), ("state", "open"))] == 1
        assert parsed["serving_requests_total"][
            (("kind", "ingredients"), ("status", "degraded"))] == 1
        # every NaN retry was counted as an attempt
        assert parsed["serving_stage_attempts_total"][
            (("stage", "embed"),)] == 3
        # the failed embed stage still reported its latency, and the
        # degraded fallback appears in the outcome's stage breakdown
        assert set(response.outcome.stage_ms) == {
            "admit", "embed", "degraded", "materialize"}
        breaker_events = service.telemetry.events.of_type("breaker")
        assert [e["state"] for e in breaker_events] == ["open"]

    def test_shed_requests_hit_the_shed_counter(self, world):
        service, clock = make_service(
            world, admission=AdmissionConfig.static(1))
        assert service.admission.acquire(
            "holder", None, Deadline(60.0, clock=clock)).admitted
        ingredients = known_ingredients(service._active.engine)
        response = service.search_by_ingredients(ingredients, k=3)
        assert response.outcome.status == "shed"
        assert set(response.outcome.stage_ms) == {"admit"}
        parsed = parse_prometheus(
            service.telemetry.registry.to_prometheus())
        assert parsed["serving_requests_total"][
            (("kind", "ingredients"), ("status", "shed"))] == 1
        assert service.stats()["statuses"] == {"shed": 1}

    def test_recovery_closes_the_gauge_again(self, world):
        fault = NaNEmbedFault(requests=[0])
        service, clock = make_service(world, faults=fault)
        ingredients = known_ingredients(service._active.engine)
        service.search_by_ingredients(ingredients, k=3)
        clock.sleep(5.0)
        service.search_by_ingredients(ingredients, k=3)
        service.search_by_ingredients(ingredients, k=3)
        assert service.embed_breaker.state is CircuitState.CLOSED
        parsed = parse_prometheus(
            service.telemetry.registry.to_prometheus())
        assert parsed["serving_breaker_state"][
            (("dependency", "embed"),)] == 0
        transitions = parsed["serving_breaker_transitions_total"]
        assert transitions[(("dependency", "embed"),
                            ("state", "open"))] == 1
        assert transitions[(("dependency", "embed"),
                            ("state", "half_open"))] == 1
        assert transitions[(("dependency", "embed"),
                            ("state", "closed"))] == 1
