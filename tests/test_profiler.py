"""Continuous-profiling and memory-ledger tests.

Fast tests run in tier-1 on injected fakes (frames, threads, CPU
probe) by calling ``sample_once`` directly — no sampler thread, no
real clock.  Real-clock scenarios (sleep-vs-spin attribution, the
SlowShard + hot-spin flight-bundle acceptance, RSS-growth
accounting) carry ``@pytest.mark.profile`` and run via
``make profile-test``.
"""

import json
import math
import pathlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (MemoryLedger, MetricsRegistry, SamplingProfiler,
                       Telemetry, Tracer, approx_bytes, classify_thread,
                       parse_collapsed, render_flame, ring_bytes,
                       rss_bytes, top_frames)
from repro.obs.flight import FlightRecorder
from repro.obs.memledger import ndarray_bytes
from repro.obs.profiler import proc_cpu_seconds
from repro.obs.sanitize import json_safe
from repro.robustness import SlowShard
from repro.serving import (AdmissionConfig, ClusterConfig,
                           ResilientSearchService, ServiceConfig)

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)


@pytest.fixture(scope="module")
def world():
    return make_world(num_pairs=60, num_classes=4, seed=11)


# ----------------------------------------------------------------------
# Fakes: frames / threads / CPU clocks the sampler can be fed
# ----------------------------------------------------------------------
class FakeCode:
    def __init__(self, name, filename="fake.py"):
        self.co_name = name
        self.co_filename = filename


class FakeFrame:
    def __init__(self, names, filename="fake.py"):
        """``names`` root-first; the instance is the innermost frame."""
        prev = None
        for name in names[:-1]:
            node = _Node(FakeCode(name, filename), prev)
            prev = node
        self.f_code = FakeCode(names[-1], filename)
        self.f_back = prev


class _Node:
    def __init__(self, code, back):
        self.f_code = code
        self.f_back = back


class FakeThread:
    def __init__(self, ident, name, native_id=None):
        self.ident = ident
        self.name = name
        self.native_id = native_id if native_id is not None else ident


class SteppingCpu:
    """cpu_probe fake: tick() advances the clocks of chosen tids."""

    def __init__(self, tids):
        self.clocks = {tid: 0.0 for tid in tids}

    def tick(self, *tids):
        for tid in tids:
            self.clocks[tid] += 0.01

    def __call__(self, tids=None):
        return dict(self.clocks)


def make_profiler(frames, threads, cpu=None, **kwargs):
    return SamplingProfiler(
        frames_fn=lambda: dict(frames),
        threads_fn=lambda: list(threads),
        cpu_probe=cpu,
        **kwargs)


# ----------------------------------------------------------------------
# Thread-role classification and folded-profile helpers
# ----------------------------------------------------------------------
class TestClassification:
    @pytest.mark.parametrize("name,role", [
        ("gateway-conn-3", "gateway_handler"),
        ("gateway-acceptor", "gateway_control"),
        ("profiler-sampler", "profiler"),
        ("loadgen-2", "loadgen"),
        ("MainThread", "main"),
        ("ThreadPoolExecutor-0_0", "other"),
    ])
    def test_prefix_mapping(self, name, role):
        assert classify_thread(name) == role

    def test_parse_round_trip(self):
        lines = ["main;cli.main;engine.search 7",
                 "shard_worker;cluster.query 3", "", "garbage"]
        parsed = parse_collapsed(lines)
        assert parsed == [(["main", "cli.main", "engine.search"], 7),
                          (["shard_worker", "cluster.query"], 3)]

    def test_top_frames_ranks_leaves_by_self_samples(self):
        lines = ["main;a.f;b.hot 8", "main;c.g;b.hot 4", "main;a.f 3"]
        top = top_frames(lines, n=2)
        assert top[0]["frame"] == "b.hot"
        assert top[0]["samples"] == 12
        assert top[0]["share"] == pytest.approx(12 / 15)
        assert top[1]["frame"] == "a.f"

    def test_render_flame_shows_shares_and_depth(self):
        art = render_flame(["main;a.f;b.hot 9", "main;a.f 1"],
                           width=80)
        assert "total samples: 10" in art
        assert "b.hot" in art and "90.0%" in art
        # depth-2 frame is indented under its parent
        lines = [l for l in art.splitlines() if "b.hot" in l]
        assert lines[0].startswith("    ")

    def test_render_flame_empty(self):
        assert render_flame([]) == "(no samples)"


# ----------------------------------------------------------------------
# Deterministic sampling: roles, CPU state, stages, bounded stacks
# ----------------------------------------------------------------------
class TestSampling:
    def test_cpu_clock_delta_splits_running_from_blocked(self):
        spin = FakeThread(1, "loadgen-s-0")
        idle = FakeThread(2, "gateway-conn-7")
        frames = {1: FakeFrame(["query", "dot"]),
                  2: FakeFrame(["handle", "recv"])}
        cpu = SteppingCpu([1, 2])
        prof = make_profiler(frames, [spin, idle], cpu)
        prof.sample_once()    # primes _last_cpu (heuristic pass)
        for _ in range(5):
            cpu.tick(1)              # only the spinner burns CPU
            prof.sample_once()
        snap = prof.snapshot()
        # 5 delta-attributed samples + 1 heuristic priming sample
        assert snap["roles"]["loadgen"]["cpu"] == 6
        assert snap["roles"]["gateway_handler"]["blocked"] == 6
        assert snap["samples"] == 6

    def test_heuristic_fallback_without_cpu_probe(self):
        threads = [FakeThread(1, "loadgen-s-0"),
                   FakeThread(2, "loadgen-s-1")]
        frames = {1: FakeFrame(["query", "dot"]),
                  2: FakeFrame(["query", "wait"])}
        prof = make_profiler(frames, threads, cpu=None)
        prof.sample_once()
        roles = prof.snapshot()["roles"]["loadgen"]
        assert roles == {"cpu": 1, "blocked": 1}

    def test_stage_attribution_via_open_spans(self):
        tracer = Tracer(clock=FakeClock())
        registry = MetricsRegistry()
        ident = threading.get_ident()
        thread = FakeThread(ident, "MainThread")
        frames = {ident: FakeFrame(["service.search", "engine.embed"])}
        cpu = SteppingCpu([ident])
        prof = make_profiler(frames, [thread], cpu, tracer=tracer,
                             registry=registry)
        prof.sample_once()
        with tracer.span("embed"):
            cpu.tick(ident)
            prof.sample_once()       # on-CPU inside the embed span
            prof.sample_once()       # clock stalled -> blocked
        prof.sample_once()           # span closed -> no stage
        snap = prof.snapshot()
        assert snap["stages"] == {"embed": {"cpu": 1, "blocked": 1}}
        family = registry.get("profiler_stage_samples_total")
        assert family.labels(stage="embed", state="cpu").value == 1

    def test_innermost_open_span_wins(self):
        tracer = Tracer(clock=FakeClock())
        ident = threading.get_ident()
        frames = {ident: FakeFrame(["a.b"])}
        prof = make_profiler(frames,
                             [FakeThread(ident, "MainThread")],
                             tracer=tracer)
        with tracer.span("request"):
            with tracer.span("index"):
                prof.sample_once()
        stages = prof.snapshot()["stages"]
        assert list(stages) == ["index"]

    def test_bounded_stacks_fold_into_overflow(self):
        thread = FakeThread(1, "loadgen-s-0")
        prof = SamplingProfiler(
            frames_fn=lambda: {},      # unused; we drive _record_stack
            threads_fn=lambda: [thread],
            cpu_probe=None, max_stacks=4)
        for i in range(20):
            frames = {1: FakeFrame([f"mod.fn_{i}"])}
            prof._frames_fn = lambda f=frames: dict(f)
            prof.sample_once()
        snap = prof.snapshot()
        assert snap["distinct_stacks"] <= 5   # 4 + overflow bucket
        assert snap["dropped_stacks"] == 16
        overflow = [l for l in prof.collapsed()
                    if "<overflow>" in l]
        assert overflow and overflow[0].startswith("loadgen;")

    def test_own_stack_counted_as_role_but_not_folded(self):
        prof = make_profiler({7: FakeFrame(["profiler.sample_once"])},
                             [FakeThread(7, "whatever")])
        prof._own_ident = 7
        prof.sample_once()
        snap = prof.snapshot()
        assert "profiler" in snap["roles"]
        assert prof.collapsed() == []

    def test_unknown_thread_ident_still_sampled(self):
        # frames for a thread not in threads_fn (it exited between
        # the two reads) must not crash and classify as other
        prof = make_profiler({99: FakeFrame(["x.y"])}, [])
        prof.sample_once()
        assert "other" in prof.snapshot()["roles"]

    def test_reset_clears_aggregates(self):
        prof = make_profiler({1: FakeFrame(["a.b"])},
                             [FakeThread(1, "MainThread")])
        prof.sample_once()
        prof.reset()
        snap = prof.snapshot()
        assert snap["samples"] == 0
        assert snap["distinct_stacks"] == 0
        assert snap["roles"] == {}

    def test_snapshot_is_json_safe(self):
        prof = make_profiler({1: FakeFrame(["a.b"])},
                             [FakeThread(1, "loadgen-x-1")])
        prof.sample_once()
        json.dumps(json_safe(prof.snapshot()))

    def test_overhead_is_measured(self):
        prof = make_profiler({1: FakeFrame(["a.b"])},
                             [FakeThread(1, "MainThread")])
        for _ in range(3):
            prof.sample_once()
        overhead = prof.snapshot()["self_overhead"]
        assert overhead["seconds"] > 0.0
        assert overhead["per_sample_us"] > 0.0


# ----------------------------------------------------------------------
# Sampler lifecycle: idempotent start/stop, bounded capture windows
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_start_stop_idempotent_and_restartable(self):
        prof = SamplingProfiler(hz=200.0)
        assert prof.start() is True
        assert prof.start() is False     # second start is a no-op
        assert prof.running
        assert prof.stop() is True
        assert prof.stop() is False      # second stop is a no-op
        assert not prof.running
        assert prof.start() is True      # restart works
        prof.stop()
        assert prof.snapshot()["samples"] >= 1

    def test_set_hz_updates_interval(self):
        prof = SamplingProfiler(hz=10.0)
        prof.set_hz(100.0)
        assert prof.interval == pytest.approx(0.01)

    def test_capture_window_starts_and_auto_stops(self):
        registry = MetricsRegistry()
        prof = SamplingProfiler(hz=200.0, registry=registry,
                                window_s=0.15)
        assert prof.capture_window() is True
        assert prof.running
        deadline = time.monotonic() + 5.0
        while prof.running and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not prof.running, "window never closed"
        snap = prof.snapshot()
        assert snap["windows"] == 1
        assert snap["samples"] > 0
        assert registry.get("profiler_windows_total") \
            .labels().value == 1

    def test_window_never_stops_an_already_running_sampler(self):
        prof = SamplingProfiler(hz=200.0)
        prof.start()
        assert prof.capture_window(0.05) is False
        time.sleep(0.3)
        assert prof.running          # window must not kill it
        prof.stop()

    def test_on_alert_is_a_capture_hook(self):
        prof = SamplingProfiler(hz=200.0, window_s=0.1)
        prof.on_alert(alert=None)
        assert prof.snapshot()["windows"] == 1
        deadline = time.monotonic() + 5.0
        while prof.running and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not prof.running
        assert prof.snapshot()["samples"] > 0


# ----------------------------------------------------------------------
# Memory ledger
# ----------------------------------------------------------------------
class TestMemoryLedger:
    def test_int_and_dict_reporters_flatten(self):
        ledger = MemoryLedger()
        ledger.register("wal", lambda: 1024)
        ledger.register("index", lambda: {"image": 10, "recipe": 20})
        values, errors = ledger.components()
        assert values == {"wal": 1024, "index.image": 10,
                          "index.recipe": 20}
        assert errors == {}
        snap = ledger.snapshot()
        assert snap["tracked_bytes"] == 1054

    def test_raising_reporter_is_contained(self):
        ledger = MemoryLedger()
        ledger.register("good", lambda: 7)
        ledger.register("bad", lambda: 1 / 0)
        values, errors = ledger.components()
        assert values == {"good": 7}
        assert "ZeroDivisionError" in errors["bad"]
        snap = ledger.snapshot()
        assert snap["tracked_bytes"] == 7
        assert "bad" in snap["errors"]
        json.dumps(json_safe(snap))      # never raises

    def test_unregister_and_names(self):
        ledger = MemoryLedger()
        ledger.register("a", lambda: 1)
        ledger.register("b", lambda: 2)
        ledger.unregister("a")
        assert ledger.names() == ["b"]

    def test_rss_and_untracked(self):
        ledger = MemoryLedger()
        ledger.register("tiny", lambda: 1)
        snap = ledger.snapshot()
        assert snap["rss_bytes"] is None or snap["rss_bytes"] > 0
        if snap["rss_bytes"] is not None:
            assert snap["untracked_bytes"] == snap["rss_bytes"] - 1

    def test_gauges_updated(self):
        registry = MetricsRegistry()
        ledger = MemoryLedger(registry=registry)
        ledger.register("index", lambda: 4096)
        ledger.snapshot()
        family = registry.get("memory_component_bytes")
        assert family.labels(component="index").value == 4096.0
        assert registry.get("memory_tracked_bytes") \
            .labels().value == 4096.0

    def test_tracemalloc_top_appears_only_when_enabled(self):
        ledger = MemoryLedger()
        assert "tracemalloc_top" not in ledger.snapshot()
        assert ledger.enable_tracemalloc(frames=1)
        blob = [bytes(4096) for _ in range(64)]   # grow since baseline
        snap = ledger.snapshot()
        assert "tracemalloc_top" in snap
        assert isinstance(snap["tracemalloc_top"], list)
        json.dumps(json_safe(snap))
        ledger.disable_tracemalloc()
        assert "tracemalloc_top" not in ledger.snapshot()
        del blob

    def test_helpers(self):
        arr = np.zeros((4, 8))
        assert ndarray_bytes(arr, None, arr) == 2 * arr.nbytes
        assert ring_bytes([]) == 0
        one = approx_bytes({"k": "v" * 50})
        many = ring_bytes([{"k": "v" * 50} for _ in range(100)])
        assert many == pytest.approx(100 * one, rel=0.05)
        # cycle safety
        loop = []
        loop.append(loop)
        assert approx_bytes(loop) > 0
        # nested beats shallow
        nested = {"a": list(range(100))}
        assert approx_bytes(nested) > sys.getsizeof(nested)


# ----------------------------------------------------------------------
# Sanitizer: everything dumps, nothing raises (property)
# ----------------------------------------------------------------------
def _adversarial():
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=8),
        st.binary(max_size=8),
        st.sampled_from([float("nan"), float("inf"), -float("inf"),
                         object(), pathlib.Path("/tmp/x"),
                         np.float64("nan"), np.int32(7),
                         np.array([1.0, float("inf")])]))
    keys = st.one_of(st.text(max_size=6), st.integers(),
                     st.booleans(), st.none(),
                     st.tuples(st.integers(), st.text(max_size=3)))
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(keys, inner, max_size=4),
            st.frozensets(st.integers(), max_size=4),
            st.tuples(inner, inner)),
        max_leaves=20)


class TestSanitize:
    @settings(max_examples=120, deadline=None)
    @given(value=_adversarial())
    def test_json_safe_output_always_dumps(self, value):
        json.dumps(json_safe(value))

    def test_non_finite_floats_become_null(self):
        out = json_safe({"a": float("nan"), "b": float("inf"),
                         "c": 1.5})
        assert out == {"a": None, "b": None, "c": 1.5}

    def test_non_string_keys_coerced(self):
        out = json_safe({(1, 2): "x", 3: "y"})
        assert out == {"(1, 2)": "x", 3: "y"}
        json.dumps(out)

    def test_numpy_and_fallback(self):
        out = json_safe({"arr": np.array([1.0, float("nan")]),
                         "obj": object()})
        assert out["arr"] == [1.0, None]
        assert isinstance(out["obj"], str)


# ----------------------------------------------------------------------
# Service wiring: ledger + profiler in stats(), ring-buffer reporters
# ----------------------------------------------------------------------
class TestServiceWiring:
    def test_stats_has_memory_and_profiler_and_dumps(self, world):
        dataset, featurizer = world
        clock = FakeClock()
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(deadline=10.0),
            clock=clock, sleep=clock.sleep)
        ingredients = known_ingredients(service._active.engine, 2)
        assert service.search_by_ingredients(ingredients, k=3).ok
        stats = service.stats()
        json.dumps(json_safe(stats))
        memory = stats["memory"]
        comps = memory["components"]
        assert comps["index.image"] > 0
        assert comps["index.recipe"] > 0
        assert "tracer_ring" in comps
        assert "event_ring" in comps
        assert "outcome_ring" in comps
        assert memory["tracked_bytes"] >= comps["index.image"]
        assert stats["profiler"]["running"] is False
        assert stats["profiler"]["samples"] == 0

    def test_start_profiler_sets_hz(self, world):
        dataset, featurizer = world
        clock = FakeClock()
        service = ResilientSearchService(
            make_engine(dataset, featurizer), ServiceConfig(),
            clock=clock, sleep=clock.sleep)
        prof = service.start_profiler(hz=97.0)
        try:
            assert prof.running and prof.hz == 97.0
            assert service.stats()["profiler"]["running"] is True
        finally:
            prof.stop()

    def test_ring_buffer_reporters(self):
        telemetry = Telemetry(clock=FakeClock(),
                              trace_sample_fraction=1.0)
        with telemetry.tracer.span("request"):
            pass
        telemetry.events.emit("test", "hello", detail=1)
        assert telemetry.tracer.retained_bytes() > 0
        assert telemetry.events.retained_bytes() > 0
        assert telemetry.sampler.retained_bytes() > 0

    def test_open_spans_by_thread(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.open_spans_by_thread() == {}
        with tracer.span("request"):
            with tracer.span("embed"):
                spans = tracer.open_spans_by_thread()
                assert spans[threading.get_ident()].name == "embed"
        assert tracer.open_spans_by_thread() == {}


# ----------------------------------------------------------------------
# Real-clock scenarios (-m profile)
# ----------------------------------------------------------------------
def _spin(stop, sink=[0.0]):
    x = 1.0001
    while not stop.is_set():
        for _ in range(2000):
            x = x * x % 1.7
        sink[0] = x


@pytest.mark.profile
class TestAttributionRealClock:
    def test_sleep_vs_spin(self):
        stop = threading.Event()
        spinner = threading.Thread(target=_spin, args=(stop,),
                                   name="loadgen-spin-0", daemon=True)
        sleeper = threading.Thread(target=stop.wait,
                                   name="gateway-conn-9", daemon=True)
        prof = SamplingProfiler(hz=61.0)
        spinner.start()
        sleeper.start()
        prof.start()
        time.sleep(1.0)
        prof.stop()
        stop.set()
        spinner.join()
        sleeper.join()
        roles = prof.snapshot()["roles"]
        spin_cpu = roles["loadgen"].get("cpu", 0)
        spin_blk = roles["loadgen"].get("blocked", 0)
        idle_cpu = roles["gateway_handler"].get("cpu", 0)
        idle_blk = roles["gateway_handler"].get("blocked", 0)
        assert spin_cpu / max(spin_cpu + spin_blk, 1) > 0.5
        assert idle_blk / max(idle_cpu + idle_blk, 1) > 0.8
        folded = "\n".join(prof.collapsed())
        assert "loadgen;" in folded
        assert "_spin" in folded

    def test_proc_cpu_seconds_tracks_burn(self):
        before = proc_cpu_seconds()
        if before is None:
            pytest.skip("no /proc on this platform")
        t0 = time.monotonic()
        x = 1.0001
        while time.monotonic() - t0 < 0.25:
            x = x * x % 1.7
        after = proc_cpu_seconds()
        me = threading.current_thread().native_id
        assert after[me] > before.get(me, 0.0)

    def test_overhead_fraction_small_at_default_hz(self):
        prof = SamplingProfiler()      # DEFAULT_HZ
        prof.start()
        time.sleep(1.0)
        prof.stop()
        frac = prof.snapshot()["self_overhead"]["fraction"]
        assert frac < 0.05


@pytest.mark.profile
class TestLedgerRssAccounting:
    def test_component_sum_tracks_rss_growth(self):
        if rss_bytes() is None:
            pytest.skip("no /proc on this platform")
        ledger = MemoryLedger()        # baseline = current RSS
        arrays = [np.ones((8192, 1024)) for _ in range(2)]  # 128 MiB
        ledger.register(
            "index", lambda: ndarray_bytes(*arrays))
        snap = ledger.snapshot()
        growth = snap["rss_growth_bytes"]
        tracked = snap["tracked_bytes"]
        assert tracked == 2 * 8192 * 1024 * 8
        assert growth > 0
        assert abs(tracked - growth) / growth < 0.2
        del arrays


@pytest.mark.profile
class TestFlightBundleAcceptance:
    """Induced SlowShard + hot-spin: the bundle's profile must blame
    the spin on the loadgen role and the memory ledger must
    itemize the serving components."""

    def test_profile_and_memory_land_in_bundle(self, world, tmp_path):
        dataset, featurizer = world
        fault = SlowShard(queries=range(10_000), shard_id=0,
                          delay=0.02, sleep=time.sleep)
        import random as _random
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(
                deadline=5.0, admission=AdmissionConfig(),
                cluster=ClusterConfig(num_shards=2, replication=1)),
            rng=_random.Random(0), cluster_faults=fault)
        stop = threading.Event()
        spinner = threading.Thread(target=_spin, args=(stop,),
                                   name="loadgen-hot-9", daemon=True)
        spinner.start()
        prof = service.start_profiler(hz=97.0)
        ingredients = known_ingredients(service._active.engine, 2)
        t0 = time.monotonic()
        while time.monotonic() - t0 < 1.0:
            assert service.search_by_ingredients(ingredients,
                                                 k=3).ok
        prof.stop()
        stop.set()
        spinner.join()
        service.telemetry.events.emit(
            "profile", "capture complete for acceptance bundle")

        recorder = FlightRecorder(
            service.telemetry, tmp_path / "flight",
            profiler=prof, memory=service.memory,
            min_interval_s=0.0)
        bundle = recorder.dump(reason="profile-acceptance")

        manifest = json.loads(
            (bundle / "manifest.json").read_text())
        assert manifest["has_profile"] and manifest["has_memory"]

        profile_txt = (bundle / "profile.txt").read_text()
        folded = [l for l in profile_txt.splitlines()
                  if l and not l.startswith("#")]
        spin_lines = [l for l in folded if "_spin" in l]
        assert spin_lines, "hot spin never sampled"
        assert all(l.startswith("loadgen;")
                   for l in spin_lines)
        top = top_frames(folded, n=5)
        assert any("_spin" in entry["frame"] for entry in top)
        # blocked SlowShard time attributed to the shard_query stage
        snap = prof.snapshot()
        assert snap["stages"].get("shard_query", {}) \
            .get("blocked", 0) > 0

        memory = json.loads((bundle / "memory.json").read_text())
        comps = memory["components"]
        for name in ("index.image", "index.recipe", "tracer_ring",
                     "event_ring", "outcome_ring"):
            assert comps.get(name, 0) > 0, name
        assert memory["tracked_bytes"] == sum(comps.values())
