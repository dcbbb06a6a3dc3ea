"""Shared fixtures for the benchmark harness.

One :class:`ExperimentRunner` is built per session so every scenario is
trained exactly once and then reused by all table/figure benchmarks.
Set ``REPRO_BENCH_SCALE=full`` for the larger configuration.

Component benchmarks report their headline number through the
``bench_record`` fixture, which lands in an in-process
:class:`~repro.obs.MetricsRegistry`; at session end the registry is
exported via the obs JSON exposition to ``BENCH_components.json`` next
to this file, giving CI a machine-readable {metric -> value, wall_ms}
artifact.
"""

import os
import pathlib
import time

import pytest

from repro.experiments import ExperimentRunner
from repro.obs import MetricsRegistry

#: Artifact ``BENCH_<name>.json`` → the benchmarks recording into it
#: (the help text of its ``bench_value`` gauge).  Each artifact has
#: its own registry so one subsystem's budget is tracked apart from
#: the others:
#:
#: * ``components`` — substrate micro-benchmarks;
#: * ``serving`` — quality-observability overhead (probe replay, drift
#:   sketch updates, alert evaluation);
#: * ``ingest`` — delta-overlay query overhead, WAL recovery-replay
#:   throughput;
#: * ``overload`` — goodput at 1x/3x/10x offered load, static vs
#:   adaptive admission;
#: * ``tracing`` — span overhead per request with tracing off / on /
#:   on + tail sampling;
#: * ``gateway`` — requests/sec and p99 over real sockets with the
#:   result cache off/on, drain latency under load;
#: * ``profiler`` — per-request latency with the sampling profiler off
#:   vs on, sampler pass cost (the <5% continuous-profiling budget).
_ARTIFACTS = {
    "components": "micro-benchmark",
    "serving": "serving benchmark",
    "ingest": "ingest benchmark",
    "overload": "overload benchmark",
    "tracing": "tracing benchmark",
    "gateway": "gateway benchmark",
    "profiler": "profiler benchmark",
}


def _registry(what: str):
    registry = MetricsRegistry()
    value = registry.gauge(
        "bench_value", f"headline value reported by each {what}",
        labels=("bench",))
    wall_ms = registry.gauge(
        "bench_wall_ms", "mean wall time per benchmark iteration (ms)",
        labels=("bench",))
    return registry, value, wall_ms


_REGISTRIES = {name: _registry(what) for name, what in _ARTIFACTS.items()}


def pytest_configure(config):
    # Benchmark runs should keep the regenerated paper tables visible:
    # show captured stdout for passing tests in the summary (-rA).
    config.option.reportchars = "A"


def pytest_sessionfinish(session, exitstatus):
    if getattr(session.config.option, "collectonly", False):
        return
    for name, (registry, _, _) in _REGISTRIES.items():
        recorded = any(family.children()
                       for family in registry.families())
        if recorded:
            registry.dump_json(
                pathlib.Path(__file__).parent / f"BENCH_{name}.json")


def _mean_ms(benchmark, fallback_s: float) -> float:
    """Mean iteration time in ms; falls back to the elapsed wall time
    when the plugin ran with ``--benchmark-disable`` (stats absent)."""
    try:
        return float(benchmark.stats.stats.mean) * 1000.0
    except AttributeError:
        return fallback_s * 1000.0


def _recorder(artifact: str, fixture_name: str):
    """A fixture recording ``(value, wall_ms)`` for the current
    benchmark test into ``BENCH_<artifact>.json``."""
    _, value_gauge, wall_gauge = _REGISTRIES[artifact]

    def record_fixture(request):
        started = time.perf_counter()

        def record(value: float, benchmark=None, name: str | None = None):
            name = name or request.node.name.removeprefix("test_bench_")
            value_gauge.labels(bench=name).set(float(value))
            wall_gauge.labels(bench=name).set(
                _mean_ms(benchmark, time.perf_counter() - started))

        return record

    return pytest.fixture(record_fixture, name=fixture_name)


bench_record = _recorder("components", "bench_record")
bench_record_serving = _recorder("serving", "bench_record_serving")
bench_record_ingest = _recorder("ingest", "bench_record_ingest")
bench_record_overload = _recorder("overload", "bench_record_overload")
bench_record_tracing = _recorder("tracing", "bench_record_tracing")
bench_record_gateway = _recorder("gateway", "bench_record_gateway")
bench_record_profiler = _recorder("profiler", "bench_record_profiler")


@pytest.fixture(scope="session")
def runner():
    scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
    return ExperimentRunner(scale=scale, verbose=True)


def medr_mean(result):
    """Mean MedR over both retrieval directions."""
    return 0.5 * (result.medr("image_to_recipe")
                  + result.medr("recipe_to_image"))
