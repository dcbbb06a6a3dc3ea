"""The in-process workloads: ``scan-50k`` and ``fanout-write-20k``.

Load model: closed loop with one calling thread (the box has two
cores); each call returns before the next is issued.

``scan-50k``
    A ``ResilientSearchService`` over a monolithic index (``shards=1``)
    with no WAL: 50,000 seeded rows x 32 dims adopted through
    ``RecipeSearchEngine(indexes=...)``, queried with
    ``search_by_ingredients(k=10)`` through a stub embedder.  The exact
    scan plus top-k is nearly the whole request, so kernel and top-k
    work shows here; fan-out, WAL, gateway and model work are absent
    and should read flat.  Its set-up is mostly ``DegradedRanker``.

``fanout-write-20k``
    ``ClusterConfig(num_shards=4, replication=2, hedge_enabled=False)``
    with the WAL on, 20,000 x 32 rows and the stub embedder.  The
    caller repeats four ``search_by_ingredients(k=10)`` calls and one
    write; writes alternate an ``ingest`` of a new streamed recipe and
    a ``delete`` of the oldest one, so the live corpus keeps its size.
    Per-query thread fan-out and per-write shard copies show here and
    nowhere else.

Noise controls (both workloads):

* hedging is off on ``fanout-write-20k``: in-process replicas share the
  same two cores, so a backup lane can only add contention;
* harness-built inputs are frozen out of the collector
  (``gc.freeze``) before the first boot, so the program's collections
  never sweep the harness's heap;
* garbage is collected before every boot and before every measured
  phase, and each measured phase follows a warm-up;
* the WAL lives in ``.bench_work/`` under the working directory — the
  benchmark may write only inside its checkout — and the traced run
  reports ``wal.fsyncs_per_write`` so the durability work stays
  counted;
* set-up runs a fixed number of times per workload (``BOOTS``, about
  ten seconds of boots) and the median is reported.  Boot time swings
  by a third between host states that last seconds, so half the boots
  run before the measured phase and half after it: the median then
  samples two stretches of the run instead of one.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import itertools
import pathlib
import resource
import shutil
import time

import numpy as np

from repro.core.engine import RecipeSearchEngine
from repro.retrieval.index import NearestNeighborIndex
from repro.serving import (ClusterConfig, ResilientSearchService,
                           ServiceConfig)

from . import inputs as inputs_module
from . import oracle, tracing
from .stats import Tally, needed_samples, percentile

DEADLINE_S = 5.0       # far above any healthy request: no timeouts
WARMUP_S = 1.0
PREFILL = 32           # streamed items live before measuring
MIN_SEARCHES = needed_samples(99)
MIN_WRITES = needed_samples(99)
MAX_PHASE_S = 75.0
BOOTS = {"scan-50k": 9, "fanout-write-20k": 21}  # setup_s: their median
WORKDIR = pathlib.Path(".bench_work")


def _boot_service(inputs, cluster: ClusterConfig | None, wal_dir):
    n = len(inputs.image_rows)
    ids = np.arange(n)
    image = NearestNeighborIndex(inputs.image_rows, ids=ids,
                                 class_ids=inputs.corpus.true_class_ids)
    recipe = NearestNeighborIndex(inputs.recipe_rows, ids=ids,
                                  class_ids=inputs.corpus.true_class_ids)
    engine = RecipeSearchEngine(inputs.embedder, inputs.featurizer,
                                inputs.dataset, inputs.corpus,
                                indexes=(image, recipe))
    return ResilientSearchService(
        engine, ServiceConfig(deadline=DEADLINE_S, cluster=cluster),
        ingest_log=wal_dir)


class _Writer:
    """The write stream and the harness's own add/delete log."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.recipes = itertools.cycle(range(len(inputs.streamed)))
        self.live: collections.deque = collections.deque()
        self.log: list[tuple[str, int, int]] = []  # op, item id, pool row

    def add(self, service):
        row = next(self.recipes)
        outcome = service.ingest(self.inputs.streamed[row])
        if outcome.ok:
            self.live.append((outcome.item_id, row))
            self.log.append(("add", outcome.item_id, row))
        return outcome

    def delete(self, service):
        item_id, row = self.live.popleft()
        outcome = service.delete(item_id)
        if outcome.ok:
            self.log.append(("delete", item_id, row))
        else:
            self.live.appendleft((item_id, row))
        return outcome


class _Run:
    """One workload run: boots, phases, checks and metrics."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.recorder = tracing.Recorder() if trace else None
        self.fanout = workload == "fanout-write-20k"
        self.inputs = inputs_module.stub_inputs(
            seed, 20_000 if self.fanout else 50_000,
            streamed=self.fanout)
        self.ops = inputs_module.OPS[workload](seed)
        self.writer = _Writer(self.inputs) if self.fanout else None
        # (latency s, query, rows, distances, status, write-log length,
        #  phase tally)
        self.searches: list[tuple] = []
        self.tallies: list[Tally] = []
        self.setups: list[float] = []
        self.service = None

    # -- boot ----------------------------------------------------------
    def boot(self, count: int) -> None:
        """Boot ``count`` more times, timing each into ``setups``; the
        last service booted is the one served."""
        cluster = (ClusterConfig(num_shards=4, replication=2,
                                 hedge_enabled=False)
                   if self.fanout else None)
        for _ in range(count):
            self._close_service()
            gc.collect()
            wal_dir = (WORKDIR / f"wal-{self.seed}-{len(self.setups)}"
                       if self.fanout else None)
            if wal_dir is not None:
                shutil.rmtree(wal_dir, ignore_errors=True)
            started = time.perf_counter()
            with (self.recorder.span("boot") if self.recorder is not None
                  else contextlib.nullcontext()):
                self.service = _boot_service(self.inputs, cluster, wal_dir)
            self.setups.append(time.perf_counter() - started)

    def _close_service(self):
        if self.service is not None and self.service.ingestor is not None:
            self.service.ingestor.close()
        self.service = None

    # -- phases --------------------------------------------------------
    def phase(self, name: str, seconds: float, min_searches: int = 0,
              min_writes: int = 0) -> dict:
        """Run the closed loop; returns the phase's raw timings."""
        tally = Tally(name)
        self.tallies.append(tally)
        service, writer = self.service, self.writer
        queries = self.inputs.queries
        first = len(self.searches)
        search_s, write_s = [], []
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= MAX_PHASE_S or (
                    elapsed >= seconds and len(search_s) >= min_searches
                    and len(write_s) >= min_writes):
                break
            kind, query = next(self.ops)
            if kind == "search":
                t0 = time.perf_counter()
                response = service.search_by_ingredients(queries[query],
                                                         k=inputs_module.K)
                search_s.append(time.perf_counter() - t0)
                self.searches.append((
                    search_s[-1], query,
                    [r.corpus_row for r in response.results],
                    [r.distance for r in response.results],
                    response.outcome.status,
                    len(writer.log) if writer else 0, tally))
                continue
            t0 = time.perf_counter()
            outcome = (writer.add(service) if kind == "add"
                       else writer.delete(service))
            write_s.append(time.perf_counter() - t0)
            tally.add(kind, outcome.ok)
        elapsed = time.perf_counter() - started
        return {"elapsed": elapsed, "search_s": search_s,
                "write_s": write_s, "searches": (first, len(self.searches))}

    def warm_up(self) -> None:
        if self.writer is not None:
            tally = Tally("prefill")
            self.tallies.append(tally)
            for _ in range(PREFILL):
                tally.add("add", self.writer.add(self.service).ok)
        self.phase("warmup", WARMUP_S)

    # -- checks --------------------------------------------------------
    def check(self) -> tuple[float, int]:
        """Mean recall@10 over every search, and the failed count."""
        reference = self.inputs.reference
        live: dict[int, int] = {}
        applied = 0
        log = self.writer.log if self.writer else []
        recalls = []
        for _, query, rows, dists, status, version, tally in self.searches:
            while applied < version:
                op, item_id, row = log[applied]
                if op == "add":
                    live[item_id] = row
                else:
                    live.pop(item_id)
                applied += 1
            ok = (status == "ok" and len(rows) == inputs_module.K
                  and len(set(rows)) == len(rows)
                  and all(a <= b for a, b in zip(dists, dists[1:])))
            tally.add("search", ok)
            if not ok:
                continue
            keys = list(live)
            exact = reference.ids(
                query, keys,
                self.inputs.streamed_rows[[live[k] for k in keys]]
                if keys else None)
            recalls.append(oracle.recall(rows, exact))
        failed = sum(t.failed for t in self.tallies)
        return (float(np.mean(recalls)) if recalls else 0.0), failed

    def finish(self) -> None:
        self._close_service()
        shutil.rmtree(WORKDIR, ignore_errors=True)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns ``(metrics, recall@10, failed ops, tallies,
    report lines)``."""
    bench = _Run(workload, seed, trace)
    recorder = bench.recorder
    gc.collect()
    gc.freeze()
    lines: list[str] = []
    try:
        if recorder is not None:
            recorder.install_program()
            recorder.bind_caller()
            recorder.enabled = True
        boots = BOOTS[workload]
        bench.boot(boots if recorder is not None else (boots + 1) // 2)
        if recorder is not None:
            builds = tracing.build_metrics(recorder.spans)
            recorder.enabled = False
            recorder.install_service(bench.service)
        bench.warm_up()
        gc.collect()
        if recorder is None:
            main = bench.phase("measure", seconds, MIN_SEARCHES)
            bench.boot(boots - len(bench.setups))
            recall, failed = bench.check()
            metrics = {
                "setup_s": float(np.median(bench.setups)),
                "qps": len(main["search_s"]) / main["elapsed"],
                "p50_ms": percentile(main["search_s"], 50) * 1000.0,
                "p95_ms": percentile(main["search_s"], 95) * 1000.0,
                "rss_mb": _rss_mb(),
                "recall_at_10": recall,
            }
        else:
            min_writes = MIN_WRITES if bench.fanout else 0
            plain = bench.phase("untraced", seconds / 2, MIN_SEARCHES,
                              min_writes)
            gc.collect()
            window = tracing.StageWindow(bench.service)
            recorder.start_phase()
            traced = bench.phase("traced", seconds / 2, MIN_SEARCHES,
                               min_writes)
            recorder.enabled = False
            writes = len(traced["write_s"])
            metrics = dict(builds)
            metrics["e2e.search_p99_ms"] = percentile(
                plain["search_s"], 99) * 1000.0
            metrics.update(tracing.layer_metrics(recorder.spans, writes))
            metrics.update(recorder.gc_metrics())
            if bench.fanout:
                metrics["service.write_p50_ms"] = percentile(
                    plain["write_s"], 50) * 1000.0
                metrics["service.write_p99_ms"] = percentile(
                    plain["write_s"], 99) * 1000.0
            metrics["trace.overhead_p50_ms"] = (
                percentile(traced["search_s"], 50)
                - percentile(plain["search_s"], 50)) * 1000.0
            lines += tracing.cross_check_lines(
                workload, tracing.stage_means(recorder.spans),
                window.means())
            recorder.dump(pathlib.Path(".bench_out")
                          / f"spans-{workload}-{seed}.jsonl")
            recall, failed = bench.check()
        return metrics, recall, failed, bench.tallies, lines
    finally:
        if recorder is not None:
            recorder.uninstall()
        bench.finish()
        gc.unfreeze()
