"""Fault-contained serving layer over :class:`RecipeSearchEngine`.

The engine itself is a bare library: a slow or NaN-poisoned embed, an
oversized burst of queries, or a corpus refresh mid-flight all fail
hard.  :class:`ResilientSearchService` wraps it in the containment a
production deployment needs:

* **admission control** — an
  :class:`~repro.serving.admission.AdmissionController` sheds excess
  load up front with a structured ``shed`` outcome instead of queueing
  unboundedly: a fixed in-flight cap by default
  (:meth:`~repro.serving.admission.AdmissionConfig.static`), or token
  buckets, fair queuing, AIMD concurrency, and a brownout ladder;
* **deadlines** — every request carries a cooperative time budget
  threaded through embed → index → materialize
  (:mod:`~repro.serving.deadline`);
* **retries + circuit breakers** — transient embed faults retry with
  exponential backoff and jitter; persistent faults trip a
  per-dependency breaker (:mod:`~repro.serving.retry`) so a broken
  model or index stops burning everyone's budget;
* **graceful degradation** — with the embed or index stage
  unavailable, requests are answered by the model-free
  :class:`~repro.serving.degraded.DegradedRanker` and marked
  ``degraded=True``;
* **one index path** — each of a generation's two indexes is served
  by an :class:`~repro.serving.cluster.IndexCluster`: one shard with
  one replica over the engine's own index rows by default, or the
  configured ``cluster`` topology (replicated shards answering in turn
  on the request thread, failover, anti-entropy).  The index stage is
  one fan-out with no retry loop; a fan-out that loses shards
  degrades to a ``partial`` outcome carrying
  ``shards_answered``/``shards_total`` instead of failing;
* **hot-swap** — :meth:`ResilientSearchService.swap_corpus` builds a
  new corpus+index generation aside, canary-validates it, and swaps a
  single reference under the lock (:mod:`~repro.serving.hotswap`);
* **streaming ingest** — configured with an ``ingest_log`` directory,
  :meth:`ResilientSearchService.ingest` /
  :meth:`~ResilientSearchService.delete` append crash-safe WAL records,
  apply them to a delta overlay (:mod:`~repro.serving.ingest`), and
  mirror them into the clusters' liveness mask and delta segment,
  which every search merges exactly;
  :meth:`~ResilientSearchService.compact_ingest` folds the deltas into
  a new canary-validated base generation;
* **outcome records** — every request, including shed and timed-out
  ones, produces a :class:`RequestOutcome`; the public search methods
  never raise for operational faults;
* **telemetry** — every request runs inside a
  :class:`~repro.obs.tracing.Span` with one child span per stage
  (admit → embed → index → materialize, or the degraded fallback),
  feeding
  per-stage latency histograms, deadline-remaining histograms, outcome
  counters by status, breaker-state gauges, and hot-swap events into
  the shared :class:`~repro.obs.Telemetry` registry.

All time and randomness are injected (``clock``, ``sleep``, ``rng``)
so chaos tests run on a fake clock with zero real sleeping.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..core.engine import RecipeSearchEngine, SearchResult
from ..data.schema import Recipe
from ..obs import LATENCY_BUCKETS, Telemetry
from ..obs.drift import DriftMonitor, DriftReference
from ..obs.memledger import MemoryLedger, ndarray_bytes, ring_bytes
from ..obs.profiler import SamplingProfiler
from ..robustness.faults import SimulatedCrash
from .admission import (CRITICALITIES, SHED_REASONS, AdmissionConfig,
                        AdmissionController)
from .cluster import ClusterConfig, ClusterResult, IndexCluster
from .deadline import Deadline, DeadlineExceeded
from .degraded import DegradedRanker
from .hotswap import EngineGeneration, SwapReport, run_canaries
from .ingest import (IngestAck, IngestConfig, IngestError, IngestOp,
                     Ingestor, payload_to_recipe, recipe_to_payload)
from .retry import CircuitBreaker, CircuitState, RetryPolicy
from .wal import WalWriteError

__all__ = ["ServiceConfig", "RequestOutcome", "ServiceResponse",
           "IngestOutcome", "ResilientSearchService", "STATUSES",
           "INGEST_STATUSES", "BREAKER_STATE_VALUES", "SHED_REASONS"]

#: Every request resolves to exactly one of these.
STATUSES = ("ok", "partial", "degraded", "shed", "timeout", "invalid",
            "error")

#: Every ingest/delete call resolves to exactly one of these.
INGEST_STATUSES = ("ok", "invalid", "error", "unavailable")

#: Gauge encoding of breaker states (closed is the healthy zero).
BREAKER_STATE_VALUES = {CircuitState.CLOSED: 0,
                        CircuitState.HALF_OPEN: 1,
                        CircuitState.OPEN: 2}

#: Embed's slice of the remaining request budget for retrying.
_EMBED_BUDGET_FRACTION = 0.5
#: Canary queries per hot-swap or compaction validation.
_CANARY_QUERIES = 3
#: Ring-buffer length of the request and ingest outcome logs.
_OUTCOME_LOG_SIZE = 512
#: Per-request result depth while the brownout ladder's ``shrink_k``
#: rung is engaged.
_BROWNOUT_K_CAP = 3
#: Cluster topology when the config names none: the monolith.
_ONE_SHARD = ClusterConfig(num_shards=1, replication=1)
#: Per-dependency (embed, index) breaker: open after this many
#: failures in a row, stay open this many seconds, close after this
#: many half-open successes.  The cluster's per-replica breakers have
#: their own, in :mod:`~repro.serving.cluster`.
_BREAKER_FAILURE_THRESHOLD = 3
_BREAKER_RESET_AFTER = 5.0
_BREAKER_HALF_OPEN_SUCCESSES = 2


class _StageUnavailable(RuntimeError):
    """Internal: a resilient stage gave up (breaker open, retries
    exhausted, no shard answered, or its budget slice drained);
    triggers the degraded fallback rather than failing the request."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"{stage} unavailable: {reason}")
        self.stage = stage
        self.reason = reason


class _IngestEngine(RecipeSearchEngine):
    """Engine variant that can materialize streamed rows.

    With ingest on, result rows may lie beyond the frozen corpus
    (streamed adds) or belong to corpus rows whose payload an upsert
    superseded; both resolve through the ingestor's live payload
    store.  Canary validation and generation hooks call
    ``engine.materialize`` directly, so the engine itself — not just
    the service request path — must know how.
    """

    def __init__(self, model, featurizer, dataset, corpus, indexes,
                 ingestor: Ingestor):
        super().__init__(model, featurizer, dataset, corpus,
                         indexes=indexes)
        self._ingestor = ingestor

    def materialize(self, rows, distances):
        corpus_len = len(self.corpus)
        results = []
        for row, distance in zip(rows, distances):
            row = int(row)
            payload = self._ingestor.payloads.get(row)
            if payload is not None or row >= corpus_len:
                results.append(SearchResult(
                    recipe=payload_to_recipe(payload, row),
                    distance=float(distance), corpus_row=row))
            else:
                results.extend(super().materialize(
                    np.array([row]), np.array([float(distance)])))
        return results


@dataclass(frozen=True)
class ServiceConfig:
    """Resilience knobs; the defaults suit interactive serving."""

    deadline: float = 1.0              # seconds per request
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Overload control.  The default admits 8 requests at a time and
    #: sheds the rest at once; an adaptive config adds token buckets,
    #: fair queuing, AIMD concurrency, and the brownout ladder.
    admission: AdmissionConfig = field(
        default_factory=lambda: AdmissionConfig.static(8))
    degraded_enabled: bool = True
    #: Topology of the :class:`~repro.serving.cluster.IndexCluster`
    #: serving each generation's indexes; ``None`` is one shard with
    #: one replica that shares the engine index's rows.
    cluster: ClusterConfig | None = None


@dataclass(frozen=True)
class RequestOutcome:
    """Structured record of one request, whatever its fate."""

    request_id: int
    kind: str                 # ingredients | recipe | image | without
    status: str               # one of STATUSES
    degraded: bool
    attempts: int             # embed-stage attempts actually made
    generation: int           # engine generation that served it
    latency: float            # seconds, admission to response
    stage: str | None = None  # stage the request fell over at, if any
    error: str | None = None  # human-readable fault description
    #: Per-stage wall time in milliseconds, from the request span's
    #: child spans (admit / embed / index / materialize / degraded).
    #: Stages a request never reached are absent.
    stage_ms: dict = field(default_factory=dict)
    #: Cluster fan-out coverage; ``None`` on requests the index stage
    #: did not answer (degraded, shed, timed-out, invalid or failed).
    #: ``shards_answered < shards_total`` is exactly the ``partial``
    #: status: the answer covers only the shards that made it.
    shards_total: int | None = None
    shards_answered: int | None = None
    #: Which tenant the request was billed to ("default" when the
    #: caller named none).
    tenant: str = "default"
    #: For ``shed`` outcomes, one of
    #: :data:`~repro.serving.admission.SHED_REASONS` — rate-limit vs
    #: queue-full vs in-queue expiry are different operator actions.
    shed_reason: str | None = None
    #: Where this request's deadline budget came from: ``"default"``
    #: (the service config — nobody chose it), ``"caller"`` (an
    #: explicit in-process argument), or ``"header"`` (the gateway's
    #: ``X-Deadline-Ms``).  Distinguishes a deliberately tight budget
    #: from a silently defaulted one when reading timeout outcomes.
    deadline_source: str = "default"


@dataclass(frozen=True)
class ServiceResponse:
    """What callers get back — results plus the outcome record."""

    results: tuple[SearchResult, ...]
    degraded: bool
    generation: int
    outcome: RequestOutcome

    @property
    def ok(self) -> bool:
        """Did the request produce an answer (possibly degraded or
        covering only part of the corpus)?"""
        return self.outcome.status in ("ok", "partial", "degraded")


@dataclass(frozen=True)
class IngestOutcome:
    """Structured record of one streaming mutation, whatever its fate.

    Like search, the ingest entry points never raise for operational
    faults — a full disk or an unknown id comes back as a status here
    (the one exception is :class:`SimulatedCrash`, which by definition
    models the process dying and must propagate).  ``epoch`` is the
    delta epoch the mutation landed in; a compaction bumps it together
    with the serving generation.
    """

    op: str                   # add | delete | compact
    status: str               # one of INGEST_STATUSES
    item_id: int | None
    generation: int
    epoch: int
    latency: float
    durable: bool = False
    replaced: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _RequestTrace:
    """Mutable per-request bookkeeping shared across stages."""

    __slots__ = ("attempts",)

    def __init__(self):
        self.attempts = 0


class _StageSpan:
    """One stage's child span and its deadline/latency histograms; a
    plain object, several times cheaper than a generator."""

    __slots__ = ("_service", "_stage", "_budget", "_span", "_start")

    def __init__(self, service: "ResilientSearchService", stage: str,
                 budget: Deadline):
        self._service, self._stage, self._budget = service, stage, budget

    def __enter__(self):
        service = self._service
        remaining = max(self._budget.remaining(), 0.0)
        service._m_deadline_remaining.child(self._stage).observe(remaining)
        self._start = service._clock()
        self._span = service.telemetry.tracer.span(
            self._stage, deadline_remaining_s=remaining).__enter__()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        service, span = self._service, self._span
        # The trace id rides along as an OpenMetrics exemplar: a hot
        # p99 bucket links straight to a kept trace.
        service._m_stage_latency.child(self._stage).observe(
            service._clock() - self._start, trace_id=span.trace_id)
        return span.__exit__(exc_type, exc, tb)


class ResilientSearchService:
    """Wrap an engine in deadlines, breakers, shedding, and hot-swap.

    Parameters
    ----------
    engine:
        The initial :class:`RecipeSearchEngine` (generation 0).
    config:
        Resilience knobs; defaults are sensible for tests and demos.
    clock, sleep, rng:
        Injectable time and jitter sources (fake them under test).
    faults:
        Optional :class:`~repro.robustness.faults.ServingFault` hook
        object; production passes ``None``.
    cluster_faults:
        Optional :class:`~repro.robustness.faults.ClusterFault` hook
        object threaded into every generation's clusters.
    telemetry:
        Optional shared :class:`~repro.obs.Telemetry`.  A private
        in-memory instance (on the service clock) is created when
        omitted, so the metrics and spans below always exist.
    drift_reference:
        Optional training-time
        :class:`~repro.obs.drift.DriftReference`; when given, every
        successful index-stage result feeds the service's
        :class:`~repro.obs.drift.DriftMonitor` and PSI drift scores
        are exported per signal.  Without it the monitor is inert.
    ingest_log:
        Optional directory for the streaming-ingest write-ahead log.
        When given, the service boots by *recovering* from it — folded
        base snapshot (if a compaction committed) plus log replay —
        and exposes :meth:`ingest` / :meth:`delete` /
        :meth:`compact_ingest`.  Search then runs over the clusters'
        exact base ∪ delta merge.  Without it, the ingest entry points
        answer ``unavailable``.
    ingest_config:
        Optional :class:`~repro.serving.ingest.IngestConfig` (fsync
        batching).
    ingest_faults:
        Optional :class:`~repro.robustness.faults.IngestFault` hook
        object threaded into the WAL and the compaction protocol.
    """

    def __init__(self, engine: RecipeSearchEngine,
                 config: ServiceConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: random.Random | None = None,
                 faults=None, cluster_faults=None,
                 telemetry: Telemetry | None = None,
                 drift_reference: DriftReference | None = None,
                 ingest_log=None,
                 ingest_config: IngestConfig | None = None,
                 ingest_faults=None):
        self._config = config or ServiceConfig()
        self._clock = clock
        self._sleep = sleep
        self._rng = rng or random.Random(0)
        self._faults = faults
        self._cluster_faults = cluster_faults
        self._lock = threading.Lock()
        # Serializes mutations (ingest/delete/compaction commit)
        # against each other; queries never take it.  Lock order is
        # always ingest lock -> service lock, never the reverse.
        self._ingest_lock = threading.RLock()
        self._next_request_id = 0
        self._status_counts: Counter[str] = Counter()
        self.telemetry = telemetry or Telemetry(clock=clock)
        self._setup_metrics()
        self.admission = AdmissionController(
            self._config.admission, clock=clock, sleep=sleep,
            registry=self.telemetry.registry,
            events=self.telemetry.events, tracer=self.telemetry.tracer)
        self.drift = DriftMonitor(
            drift_reference, registry=self.telemetry.registry,
            on_scores=lambda scores: self.telemetry.events.emit(
                "drift", **scores))
        #: Generation-change hooks, called as ``hook(generation,
        #: engine)`` after every successful hot-swap; dict returns are
        #: merged into the swap report's ``quality_baseline``.  The
        #: golden probe registers here to re-baseline per generation.
        self.on_generation: list[Callable] = []
        self.ingestor: Ingestor | None = None
        if ingest_log is not None:
            self.ingestor = Ingestor(
                ingest_log,
                {"image": engine.image_index,
                 "recipe": engine.recipe_index},
                config=ingest_config, telemetry=self.telemetry,
                faults=ingest_faults)
            # Rebuild the engine over the ingestor's recovered bases
            # (the caller's indexes, or the folded snapshot when a
            # committed compaction superseded them — adopted verbatim,
            # no re-encode) with payload-aware materialize on top.
            engine = _IngestEngine(
                engine.model, engine.featurizer, engine.dataset,
                engine.corpus,
                (self.ingestor.bases["image"],
                 self.ingestor.bases["recipe"]),
                self.ingestor)
        self._active = self._make_generation(0, engine)
        # Trace link from the most recent ingest span to a compaction
        # called outside any span (see compact_ingest).
        self._last_ingest_ctx = None
        if self.ingestor is not None:
            self._replay_overlay_into_clusters(self._active)
        self.embed_breaker = CircuitBreaker(
            "embed", _BREAKER_FAILURE_THRESHOLD, _BREAKER_RESET_AFTER,
            _BREAKER_HALF_OPEN_SUCCESSES, clock=clock,
            on_transition=self._on_breaker_transition)
        self.index_breaker = CircuitBreaker(
            "index", _BREAKER_FAILURE_THRESHOLD, _BREAKER_RESET_AFTER,
            _BREAKER_HALF_OPEN_SUCCESSES, clock=clock,
            on_transition=self._on_breaker_transition)
        for dependency in ("embed", "index"):
            self._m_breaker_state.labels(dependency=dependency).set(0)
        self._m_generation.set(0)
        self.outcomes: deque[RequestOutcome] = deque(
            maxlen=_OUTCOME_LOG_SIZE)
        self.ingest_outcomes: deque[IngestOutcome] = deque(
            maxlen=_OUTCOME_LOG_SIZE)
        self.swaps: list[SwapReport] = []
        #: Per-component memory ledger + sampling profiler.  The
        #: ledger is always live (reporters are just callbacks); the
        #: profiler is constructed idle and started by the CLI's
        #: ``--profile-hz``, an alert-triggered capture window, or a
        #: direct ``start_profiler`` call.
        self.memory = MemoryLedger(registry=self.telemetry.registry,
                                   clock=clock)
        self.profiler = SamplingProfiler(
            tracer=self.telemetry.tracer,
            registry=self.telemetry.registry)
        self._register_memory_reporters()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _register_memory_reporters(self) -> None:
        """Teach the ledger where this service's bytes live: index
        rows, cluster replicas + delta segment, ingest overlay +
        WAL-on-disk, telemetry ring buffers,
        admission queue, outcome logs.  Every reporter reads the
        *current* generation through ``self`` so hot-swaps are
        reflected without re-registration."""
        def index_arrays(which: str) -> tuple:
            index = getattr(self._active.engine, f"{which}_index")
            return index.embeddings, index.ids, index.class_ids

        # A one-shard cluster shares the engine index's rows; the
        # ledger counts them once, under ``index``.
        self.memory.register("index", lambda: {
            which: ndarray_bytes(*index_arrays(which))
            for which in ("image", "recipe")})
        self.memory.register("cluster", lambda: {
            which: getattr(self._active, f"{which}_cluster")
            .retained_bytes(counted=index_arrays(which))
            for which in ("image", "recipe")})
        if self.ingestor is not None:
            self.memory.register("overlay", lambda: sum(
                overlay.retained_bytes()
                for overlay in self.ingestor.overlays.values()))
            self.memory.register("wal_disk",
                                 self.ingestor.log.disk_bytes)
        self.memory.register("tracer_ring",
                             self.telemetry.tracer.retained_bytes)
        self.memory.register("event_ring",
                             self.telemetry.events.retained_bytes)
        if self.telemetry.sampler is not None:
            self.memory.register(
                "trace_sampler", self.telemetry.sampler.retained_bytes)
        self.memory.register("admission_queue",
                             self.admission.retained_bytes)
        self.memory.register("outcome_ring", lambda: (
            ring_bytes(self.outcomes)
            + ring_bytes(self.ingest_outcomes)))

    def start_profiler(self, hz: float | None = None
                       ) -> "SamplingProfiler":
        """Start continuous sampling (``--profile-hz`` entry point)."""
        if hz is not None:
            self.profiler.set_hz(hz)
        self.profiler.start()
        return self.profiler

    def _setup_metrics(self) -> None:
        registry = self.telemetry.registry
        self._m_requests = registry.counter(
            "serving_requests_total", "requests by kind and outcome",
            labels=("kind", "status"))
        self._m_request_latency = registry.histogram(
            "serving_request_seconds",
            "request latency, admission to response",
            buckets=LATENCY_BUCKETS)
        self._m_stage_latency = registry.histogram(
            "serving_stage_seconds", "per-stage latency",
            labels=("stage",), buckets=LATENCY_BUCKETS)
        self._m_deadline_remaining = registry.histogram(
            "serving_deadline_remaining_seconds",
            "request budget left when each stage started",
            labels=("stage",), buckets=LATENCY_BUCKETS)
        self._m_attempts = registry.counter(
            "serving_stage_attempts_total",
            "dependency call attempts, including retries",
            labels=("stage",))
        self._m_breaker_state = registry.gauge(
            "serving_breaker_state",
            "0 closed, 1 half-open, 2 open", labels=("dependency",))
        self._m_breaker_transitions = registry.counter(
            "serving_breaker_transitions_total",
            "breaker state changes", labels=("dependency", "state"))
        self._m_inflight = registry.gauge(
            "serving_inflight", "requests currently admitted")
        self._m_generation = registry.gauge(
            "serving_generation", "active engine generation")
        self._m_swaps = registry.counter(
            "serving_swaps_total", "hot-swap attempts by result",
            labels=("result",))
        self._m_canaries = registry.counter(
            "serving_canaries_total", "canary queries run during swaps")
        self._m_ingest = registry.counter(
            "ingest_requests_total",
            "streaming ingest requests by op and outcome",
            labels=("op", "status"))
        self._m_shed = registry.counter(
            "requests_shed_total",
            "requests shed at admission by reason and tenant",
            labels=("reason", "tenant"))

    def _on_breaker_transition(self, name: str,
                               state: CircuitState) -> None:
        self._m_breaker_state.labels(dependency=name).set(
            BREAKER_STATE_VALUES[state])
        self._m_breaker_transitions.labels(dependency=name,
                                           state=state.value).inc()
        self.telemetry.events.emit("breaker", dependency=name,
                                   state=state.value)

    # ------------------------------------------------------------------
    # Public search API — never raises for operational faults
    # ------------------------------------------------------------------
    def search_by_ingredients(self, ingredients: list[str], k: int = 5,
                              class_name: str | None = None,
                              deadline: float | None = None,
                              tenant: str = "default",
                              criticality: str | None = None,
                              deadline_source: str | None = None
                              ) -> ServiceResponse:
        """Resilient fridge search (ingredient list → dishes)."""
        ingredients = list(ingredients)
        return self._serve(
            "ingredients", k, class_name, deadline,
            embed=lambda engine: engine.embed_ingredients(ingredients),
            fallback=lambda ranker, class_id, k, mask: (
                ranker.rank_ingredients(ingredients, k, class_id, mask)),
            which_index="image", tenant=tenant, criticality=criticality,
            deadline_source=deadline_source)

    def search_by_recipe(self, recipe: Recipe, k: int = 5,
                         class_name: str | None = None,
                         deadline: float | None = None,
                         tenant: str = "default",
                         criticality: str | None = None,
                         deadline_source: str | None = None
                         ) -> ServiceResponse:
        """Resilient recipe → images search."""
        return self._serve(
            "recipe", k, class_name, deadline,
            embed=lambda engine: engine.embed_recipe(recipe),
            fallback=lambda ranker, class_id, k, mask: (
                ranker.rank_recipe(recipe, k, class_id, mask)),
            which_index="image", tenant=tenant, criticality=criticality,
            deadline_source=deadline_source)

    def search_by_image(self, image: np.ndarray, k: int = 5,
                        class_name: str | None = None,
                        deadline: float | None = None,
                        tenant: str = "default",
                        criticality: str | None = None,
                        deadline_source: str | None = None
                        ) -> ServiceResponse:
        """Resilient image → recipes search.

        Degraded mode has no pixels-to-text bridge, so the fallback is
        a deterministic class-filtered slate (availability over
        relevance — documented semantics).
        """
        return self._serve(
            "image", k, class_name, deadline,
            embed=lambda engine: engine.embed_image(image),
            fallback=lambda ranker, class_id, k, mask: (
                ranker.rank_default(k, class_id, mask)),
            which_index="recipe", tenant=tenant, criticality=criticality,
            deadline_source=deadline_source)

    def search_without(self, recipe: Recipe, ingredient: str, k: int = 5,
                       class_name: str | None = None,
                       deadline: float | None = None,
                       tenant: str = "default",
                       criticality: str | None = None,
                       deadline_source: str | None = None
                       ) -> ServiceResponse:
        """Resilient dietary-filter search (§5.3)."""
        edited = recipe.without_ingredient(ingredient)
        return self._serve(
            "without", k, class_name, deadline,
            embed=lambda engine: engine.embed_recipe(edited),
            fallback=lambda ranker, class_id, k, mask: (
                ranker.rank_recipe(edited, k, class_id, mask)),
            which_index="image", tenant=tenant, criticality=criticality,
            deadline_source=deadline_source)

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------
    def _make_generation(self, generation: int,
                         engine: RecipeSearchEngine) -> EngineGeneration:
        """Assemble one serving generation: engine + fallback, plus
        fresh clusters over both indexes."""
        fallback = DegradedRanker(engine.dataset, engine.corpus)
        cluster_config = self._config.cluster or _ONE_SHARD
        return EngineGeneration(
            generation, engine, fallback,
            image_cluster=IndexCluster(
                engine.image_index, cluster_config, name="image",
                clock=self._clock, telemetry=self.telemetry,
                faults=self._cluster_faults),
            recipe_cluster=IndexCluster(
                engine.recipe_index, cluster_config, name="recipe",
                clock=self._clock, telemetry=self.telemetry,
                faults=self._cluster_faults))

    # ------------------------------------------------------------------
    # Hot-swap
    # ------------------------------------------------------------------
    def swap_corpus(self, corpus, dataset=None,
                    drift_reference: DriftReference | None = None
                    ) -> SwapReport:
        """Atomically replace the serving corpus+indexes.

        Builds the candidate generation aside, canary-validates it,
        and only then swaps the active-generation reference.  On any
        failure the old generation keeps serving and the report says
        ``rolled_back=True``.  Never raises.

        ``drift_reference`` installs the new model/corpus generation's
        training-time sketches into the drift monitor; omitted, the
        previous reference carries over (live sketches still reset —
        drift is always measured within one generation).  After a
        successful swap every ``on_generation`` hook runs and their
        dict returns land in the report's ``quality_baseline``.
        """
        started = self._clock()
        old = self._active
        if self.ingestor is not None:
            # A wholesale corpus replacement would silently discard the
            # delta log's acknowledged writes; folding is the only
            # legal path to a new base while ingest is on.
            report = SwapReport(
                ok=False, generation=old.generation, canaries_run=0,
                failures=("corpus hot-swap is disabled while streaming "
                          "ingest is active; fold deltas with "
                          "compact_ingest() instead",),
                rolled_back=True)
            return self._record_swap(report, started)
        if dataset is None:
            dataset = old.engine.dataset
        try:
            # A poisoned corpus must surface as a canary veto, not as
            # FP warnings escaping from the side build.
            with np.errstate(all="ignore"):
                engine = RecipeSearchEngine(
                    old.engine.model, old.engine.featurizer, dataset,
                    corpus)
                candidate = self._make_generation(
                    old.generation + 1, engine)
        except Exception as exc:
            report = SwapReport(
                ok=False, generation=old.generation, canaries_run=0,
                failures=(f"candidate build failed: "
                          f"{type(exc).__name__}: {exc}",),
                rolled_back=True)
            return self._record_swap(report, started)
        run, failures = run_canaries(candidate, _CANARY_QUERIES)
        if failures:
            report = SwapReport(ok=False, generation=old.generation,
                                canaries_run=run,
                                failures=tuple(failures), rolled_back=True)
        else:
            with self._lock:
                self._active = candidate
            # The index dependency was replaced wholesale; its breaker
            # history belongs to the retired generation.
            self.index_breaker.reset()
            self.drift.start_generation(
                drift_reference if drift_reference is not None
                else self.drift.reference)
            report = SwapReport(ok=True, generation=candidate.generation,
                                canaries_run=run, failures=(),
                                rolled_back=False,
                                quality_baseline=self._run_generation_hooks(
                                    candidate))
        return self._record_swap(report, started)

    def _run_generation_hooks(self,
                              generation: EngineGeneration) -> dict | None:
        """Invoke ``on_generation`` hooks; merge their dict returns.

        A failing hook must not fail the swap (the new generation is
        already serving) — it is recorded in the baseline instead.
        """
        if not self.on_generation:
            return None
        baseline: dict = {}
        for hook in list(self.on_generation):
            try:
                payload = hook(generation.generation, generation.engine)
            except Exception as exc:
                baseline.setdefault("hook_failures", []).append(
                    f"{type(exc).__name__}: {exc}")
            else:
                if isinstance(payload, dict):
                    baseline.update(payload)
        return baseline or None

    def _record_swap(self, report: SwapReport,
                     started: float) -> SwapReport:
        report = replace(report, duration_s=self._clock() - started)
        self.swaps.append(report)
        self._m_swaps.labels(
            result="swapped" if report.ok else "rolled_back").inc()
        if report.canaries_run:
            self._m_canaries.inc(report.canaries_run)
        self._m_generation.set(report.generation)
        self.telemetry.events.emit(
            "swap", message=report.summary(), ok=report.ok,
            generation=report.generation, canaries=report.canaries_run,
            rolled_back=report.rolled_back,
            duration_ms=report.duration_s * 1000.0,
            quality_baseline=report.quality_baseline)
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._active.generation

    @property
    def engine(self) -> RecipeSearchEngine:
        """The active generation's engine (read-only handle)."""
        return self._active.engine

    def stats(self) -> dict:
        """Operational counters for dashboards and tests."""
        stage_latency = {}
        for key, child in self._m_stage_latency.children():
            count = child.count
            if count == 0:
                continue
            total_ms = child.sum * 1000.0
            quantiles = child.quantiles((0.5, 0.95, 0.99))
            stage_latency[key[0]] = {
                "count": count,
                "total_ms": total_ms,
                "mean_ms": total_ms / count,
                "p50_ms": quantiles[0.5] * 1000.0,
                "p95_ms": quantiles[0.95] * 1000.0,
                "p99_ms": quantiles[0.99] * 1000.0,
            }
        with self._lock:
            active = self._active
            stats = {
                "requests": self._next_request_id,
                "inflight": self.admission.inflight,
                "admission": self.admission.snapshot(),
                "generation": active.generation,
                "statuses": dict(self._status_counts),
                "embed_breaker": self.embed_breaker.state.value,
                "index_breaker": self.index_breaker.state.value,
                "swaps": len(self.swaps),
                "stage_latency_ms": stage_latency,
            }
        stats["drift"] = self.drift.summary()
        stats["memory"] = self.memory.snapshot()
        profile = self.profiler.snapshot()
        stats["profiler"] = {key: profile[key] for key in
                             ("running", "hz", "samples", "windows",
                              "self_overhead")}
        if self.ingestor is not None:
            stats["ingest"] = self.ingestor.status()
        stats["cluster"] = {
            "image": active.image_cluster.describe(),
            "recipe": active.recipe_cluster.describe(),
        }
        return stats

    # ------------------------------------------------------------------
    # Request pipeline
    # ------------------------------------------------------------------
    def _serve(self, kind: str, k: int, class_name: str | None,
               deadline_s: float | None, embed, fallback,
               which_index: str, tenant: str = "default",
               criticality: str | None = None,
               deadline_source: str | None = None) -> ServiceResponse:
        started = self._clock()
        generation = self._active  # snapshot: the whole request uses it
        # An explicit source (the gateway says "header") wins; else the
        # presence of a caller-chosen budget decides.
        deadline_source = deadline_source or (
            "caller" if deadline_s is not None else "default")
        budget = Deadline(deadline_s or self._config.deadline,
                          clock=self._clock)
        with self.telemetry.tracer.span(
                "request", kind=kind,
                generation=generation.generation) as span:
            with self._lock:
                request_id = self._next_request_id
                self._next_request_id += 1
            span.set_attribute("request_id", request_id)
            if criticality and criticality not in CRITICALITIES:
                return self._finish(
                    request_id, kind, "invalid", generation, started,
                    stage="admission", span=span, tenant=tenant,
                    error=f"unknown criticality {criticality!r}; "
                          f"expected one of {CRITICALITIES}",
                    deadline_source=deadline_source)
            # The admit span covers any fair-queue wait, so queue time
            # shows up as admit-stage latency, not as mystery slack.
            with _StageSpan(self, "admit", budget):
                decision = self.admission.acquire(tenant, criticality,
                                                  budget)
            if not decision.admitted:
                return self._finish(
                    request_id, kind, "shed", generation, started,
                    stage="admission", span=span, error=decision.detail,
                    tenant=tenant, shed_reason=decision.reason,
                    deadline_source=deadline_source)
            self._m_inflight.set(self.admission.inflight)
            trace = _RequestTrace()
            try:
                try:
                    # Brownout effects, evaluated once per request
                    # against the ladder the admission plane steps.
                    brownout = self.admission.brownout
                    k_effective = (max(1, min(k, _BROWNOUT_K_CAP))
                                   if brownout.active("shrink_k") else k)
                    force_degraded = (brownout.active("degraded")
                                      and self._config.degraded_enabled)
                    class_id = generation.engine.resolve_class(class_name)
                    degraded_reason = None
                    fan_out = None
                    try:
                        if force_degraded:
                            raise _StageUnavailable(
                                "admission",
                                f"brownout ladder at level "
                                f"{brownout.level}: serving model-free")
                        # A deadline that died between grant and here
                        # must not burn an embed call.
                        budget.check("queue")
                        with _StageSpan(self, "embed", budget):
                            vector = self._embed_stage(
                                generation, request_id, embed, budget,
                                trace)
                        with _StageSpan(self, "index", budget):
                            fan_out = self._index_stage(
                                generation, request_id, vector,
                                k_effective, class_id, which_index,
                                budget)
                        rows, distances = fan_out.ids, fan_out.distances
                        status = "partial" if fan_out.partial else "ok"
                        # Feed the drift monitor from the healthy
                        # path only — degraded answers have no model
                        # geometry to judge.
                        self.drift.observe_query(vector, distances)
                    except _StageUnavailable as exc:
                        budget.check("degraded-fallback")
                        if not self._config.degraded_enabled:
                            return self._finish(
                                request_id, kind, "error", generation,
                                started, attempts=trace.attempts,
                                stage=exc.stage, error=str(exc),
                                span=span, tenant=tenant,
                                deadline_source=deadline_source)
                        with _StageSpan(self, "degraded", budget):
                            rows, distances = fallback(
                                generation.fallback, class_id,
                                k_effective,
                                self._degraded_mask(generation,
                                                    which_index))
                        status = "degraded"
                        degraded_reason = str(exc)
                    budget.check("materialize")
                    with _StageSpan(self, "materialize", budget):
                        results = generation.engine.materialize(
                            rows, distances)
                    return self._finish(
                        request_id, kind, status, generation, started,
                        results=results, attempts=trace.attempts,
                        error=degraded_reason, span=span,
                        fan_out=fan_out, tenant=tenant,
                        deadline_source=deadline_source)
                except DeadlineExceeded as exc:
                    return self._finish(
                        request_id, kind, "timeout", generation, started,
                        attempts=trace.attempts, stage=exc.stage,
                        error=str(exc), span=span, tenant=tenant,
                        deadline_source=deadline_source)
                except ValueError as exc:
                    return self._finish(
                        request_id, kind, "invalid", generation, started,
                        attempts=trace.attempts, error=str(exc),
                        span=span, tenant=tenant,
                        deadline_source=deadline_source)
                except Exception as exc:  # containment: no fault escapes
                    return self._finish(
                        request_id, kind, "error", generation, started,
                        attempts=trace.attempts,
                        error=f"{type(exc).__name__}: {exc}", span=span,
                        tenant=tenant, deadline_source=deadline_source)
            finally:
                self.admission.release(self._clock() - started)
                self._m_inflight.set(self.admission.inflight)

    def _degraded_mask(self, generation: EngineGeneration,
                       which_index: str) -> np.ndarray | None:
        """Corpus rows the degraded ranker may answer with: all of
        them without ingest, else only rows whose items are live (a
        delete is excluded at once; a streamed add is not a corpus row,
        so the ranker never returns it)."""
        if self.ingestor is None:
            return None
        return self.ingestor.overlays[which_index].live_items(
            len(generation.fallback))

    def _embed_stage(self, generation: EngineGeneration, request_id: int,
                     embed, budget: Deadline,
                     trace: _RequestTrace) -> np.ndarray:
        """Embed with retries/backoff behind the embed breaker.

        The stage only consumes ``_EMBED_BUDGET_FRACTION`` of the
        remaining request budget for *retrying*: once the slice drains
        without a usable vector, it gives up so degraded mode can
        still answer inside the request deadline.  A slow-but-healthy
        embed that finishes within the overall budget is used as-is.
        """
        breaker = self.embed_breaker
        policy = self._config.retry
        slice_budget = budget.sub(_EMBED_BUDGET_FRACTION)
        last = "no attempts made"
        for attempt in range(policy.max_attempts):
            budget.check("embed")
            if slice_budget.expired:
                raise _StageUnavailable(
                    "embed", f"stage budget drained after "
                             f"{trace.attempts} attempts ({last})")
            if not breaker.allow():
                raise _StageUnavailable("embed", "circuit open")
            trace.attempts += 1
            self._m_attempts.child("embed").inc()
            vector = None
            try:
                if self._faults is not None:
                    self._faults.on_embed_start(request_id)
                candidate = embed(generation.engine)
                if self._faults is not None:
                    candidate = self._faults.on_embed_result(
                        request_id, candidate)
            except ValueError:
                raise  # caller error, not a dependency fault
            except DeadlineExceeded:
                raise
            except Exception as exc:
                breaker.record_failure()
                last = f"{type(exc).__name__}: {exc}"
            else:
                if np.isfinite(candidate).all():
                    breaker.record_success()
                    budget.check("embed")  # slow success may blow it
                    return np.asarray(candidate)
                breaker.record_failure()
                last = "non-finite embedding vector"
            budget.check("embed")
            if attempt + 1 < policy.max_attempts and not slice_budget.expired:
                self._sleep(budget.clamp(policy.delay(attempt, self._rng)))
        raise _StageUnavailable("embed", f"retries exhausted ({last})")

    def _index_stage(self, generation: EngineGeneration, request_id: int,
                     vector: np.ndarray, k: int, class_id: int | None,
                     which_index: str, budget: Deadline) -> ClusterResult:
        """One fan-out through the generation's cluster, behind the
        index breaker.

        No retry loop: the cluster already failed over through every
        live replica of every shard, and no index fault is transient
        (a corrupted index stays corrupted), so a second pass could
        only re-run the identical chain.  The breaker watches
        whole-fan-out health — a fan-out no shard answers (non-finite
        distances included) is a dependency failure; one that lost
        *some* shards still answered (the partial contract) and counts
        as a success.
        """
        cluster = (generation.image_cluster if which_index == "image"
                   else generation.recipe_cluster)
        breaker = self.index_breaker
        if not breaker.allow():
            raise _StageUnavailable("index", "circuit open")
        self._m_attempts.child("index").inc()
        if self._faults is not None:
            self._faults.on_index_start(request_id, cluster)
        result = cluster.query(vector, k=k, class_id=class_id,
                               deadline=budget)
        if result.shards_answered == 0:
            breaker.record_failure()
            raise _StageUnavailable(
                "index",
                f"no shards answered (0/{result.shards_total})")
        breaker.record_success()
        return result

    # ------------------------------------------------------------------
    # Streaming ingest — never raises for operational faults
    # ------------------------------------------------------------------
    def ingest(self, recipe: Recipe, image: np.ndarray | None = None,
               class_name: str | None = None) -> IngestOutcome:
        """Durably add one recipe (and optional dish image) to serving.

        The write is acknowledged only after it is applied to the WAL
        and the in-memory overlay; per the durability contract it
        survives a crash once the log record hits the OS (fsynced per
        the configured batching policy — ``durable`` on the outcome
        says whether this write's batch has been synced).  Operational
        faults (disk full, bad input) come back as structured outcomes
        with ``status`` in :data:`INGEST_STATUSES`; this method never
        raises for them.
        """
        started = self._clock()
        generation = self._active
        with self.telemetry.tracer.span("ingest", op="add") as span:
            self._last_ingest_ctx = span.context()
            if self.ingestor is None:
                return self._finish_ingest(
                    "add", "unavailable", None, generation, started,
                    span=span, error="streaming ingest is not enabled "
                                     "(no ingest_log configured)")
            try:
                with np.errstate(all="ignore"):
                    class_id = generation.engine.resolve_class(class_name)
                    if class_id is None:
                        class_id = int(recipe.true_class_id)
                    recipe_vec = generation.engine.embed_recipe(recipe)
                    if image is not None:
                        image_vec = generation.engine.embed_image(image)
                    else:
                        # No dish photo yet: park the item at the
                        # recipe embedding so both indexes stay id-
                        # aligned; a later upsert with pixels moves it.
                        image_vec = recipe_vec
            except ValueError as exc:
                return self._finish_ingest(
                    "add", "invalid", None, generation, started,
                    span=span, error=str(exc))
            except Exception as exc:
                return self._finish_ingest(
                    "add", "error", None, generation, started, span=span,
                    error=f"{type(exc).__name__}: {exc}")
            payload = recipe_to_payload(recipe)
            payload["class_id"] = int(class_id)
            try:
                with self._ingest_lock:
                    ack = self.ingestor.add(
                        {"image": image_vec, "recipe": recipe_vec},
                        class_id=int(class_id), payload=payload)
                    # Re-read under the lock: a compaction may have
                    # swapped generations since the snapshot above.
                    generation = self._active
                    self._apply_replayed_to_clusters(
                        generation, ack.op, ack.key, ack.replaced_key)
            except SimulatedCrash:
                raise  # chaos-suite process death, not an outcome
            except WalWriteError as exc:
                return self._finish_ingest(
                    "add", "error", None, generation, started, span=span,
                    error=str(exc))
            except (IngestError, ValueError) as exc:
                return self._finish_ingest(
                    "add", "invalid", None, generation, started,
                    span=span, error=str(exc))
            self.drift.observe_query(
                np.asarray(recipe_vec, dtype=np.float64), np.empty(0))
            return self._finish_ingest(
                "add", "ok", ack, generation, started, span=span)

    def delete(self, item_id: int) -> IngestOutcome:
        """Durably tombstone one item (base or streamed).

        Deleting an id that is not live is ``invalid``, not an error —
        the caller raced another delete or guessed wrong.
        """
        started = self._clock()
        generation = self._active
        with self.telemetry.tracer.span("ingest", op="delete") as span:
            self._last_ingest_ctx = span.context()
            if self.ingestor is None:
                return self._finish_ingest(
                    "delete", "unavailable", None, generation, started,
                    span=span, error="streaming ingest is not enabled "
                                     "(no ingest_log configured)")
            try:
                with self._ingest_lock:
                    ack = self.ingestor.delete(int(item_id))
                    generation = self._active
                    self._apply_replayed_to_clusters(
                        generation, ack.op, ack.key, ack.replaced_key)
            except SimulatedCrash:
                raise
            except WalWriteError as exc:
                return self._finish_ingest(
                    "delete", "error", int(item_id), generation, started,
                    span=span, error=str(exc))
            except KeyError as exc:
                return self._finish_ingest(
                    "delete", "invalid", int(item_id), generation,
                    started, span=span, error=str(exc.args[0]))
            return self._finish_ingest(
                "delete", "ok", ack, generation, started, span=span)

    def compact_ingest(self) -> SwapReport:
        """Fold the delta overlay into a new frozen base, canary-first.

        The fold is built aside and canary-validated exactly like
        :meth:`swap_corpus`; only then does the WAL checkpoint commit
        it (the manifest write is the single commit point — dying on
        either side of it recovers without loss or double-apply).
        Writes that land while canaries run are replayed from the log
        onto the new generation before it goes live, as boot recovery
        does, so a racing query stream sees every acknowledged item
        exactly once; a fold an overlapping compaction beat is rolled
        back.  Never raises for operational faults.  Nothing calls it
        on a timer, so a serving process's delta grows until a caller
        folds it.
        """
        started = self._clock()
        old = self._active
        if self.ingestor is None:
            report = SwapReport(
                ok=False, generation=old.generation, canaries_run=0,
                failures=("streaming ingest is not enabled (no "
                          "ingest_log configured)",),
                rolled_back=True)
            return self._record_swap(report, started)
        tracer = self.telemetry.tracer
        # A caller outside any span adopts the last ingest's context,
        # so the fold shows up in that trace instead of starting an
        # orphan root.  A caller already inside a span keeps its own
        # lineage.
        link = (self._last_ingest_ctx if tracer.current() is None
                else None)
        with tracer.attach(link), \
                tracer.span("compaction", generation=old.generation):
            ticket = None
            try:
                ticket = self.ingestor.begin_compaction()
                with np.errstate(all="ignore"):
                    engine = _IngestEngine(
                        old.engine.model, old.engine.featurizer,
                        old.engine.dataset, old.engine.corpus,
                        (ticket.folded["image"],
                         ticket.folded["recipe"]),
                        self.ingestor)
                    candidate = self._make_generation(
                        old.generation + 1, engine)
                run, failures = run_canaries(candidate,
                                             _CANARY_QUERIES)
                if failures:
                    self.ingestor.abort_compaction(ticket)
                    report = SwapReport(
                        ok=False, generation=old.generation,
                        canaries_run=run, failures=tuple(failures),
                        rolled_back=True)
                    return self._record_swap(report, started)
                with self._ingest_lock:
                    self.ingestor.commit_compaction(ticket)
                    self._replay_overlay_into_clusters(candidate)
                    with self._lock:
                        self._active = candidate
                self.index_breaker.reset()
                self.drift.start_generation(self.drift.reference)
                report = SwapReport(
                    ok=True, generation=candidate.generation,
                    canaries_run=run, failures=(), rolled_back=False,
                    quality_baseline=self._run_generation_hooks(
                        candidate))
                return self._record_swap(report, started)
            except SimulatedCrash:
                raise  # chaos-suite process death, not an outcome
            except Exception as exc:
                if ticket is not None:
                    with contextlib.suppress(Exception):
                        self.ingestor.abort_compaction(ticket)
                report = SwapReport(
                    ok=False, generation=old.generation, canaries_run=0,
                    failures=(f"compaction failed: "
                              f"{type(exc).__name__}: {exc}",),
                    rolled_back=True)
                return self._record_swap(report, started)

    def _apply_replayed_to_clusters(self, generation: EngineGeneration,
                                    op: IngestOp, key: int,
                                    replaced_key: int | None) -> None:
        """Mirror one acknowledged delta into the clusters."""
        clusters = {"image": generation.image_cluster,
                    "recipe": generation.recipe_cluster}
        for name, cluster in clusters.items():
            if op.kind == "add":
                if replaced_key is not None:
                    cluster.apply_delete(op.item_id, replaced_key)
                cluster.apply_add(op.item_id, op.vectors[name],
                                  op.class_id, key)
            else:
                cluster.apply_delete(op.item_id, key)

    def _replay_overlay_into_clusters(
            self, generation: EngineGeneration) -> None:
        """Project the overlays' deltas into freshly built clusters.

        Runs at boot and at each compaction commit.  The clusters were
        just built over the recovered (or freshly folded) *base*, so
        the overlay's tombstones and live delta rows must be
        re-applied on top — same order as recovery (deletes of base
        items first, then adds keyed by their overlay slots, which
        ``apply_add`` gap-fills past dead slots).
        """
        clusters = {"image": generation.image_cluster,
                    "recipe": generation.recipe_cluster}
        for name, cluster in clusters.items():
            overlay = self.ingestor.overlays[name]
            for item_id, key in overlay.dead_base_items():
                cluster.apply_delete(item_id, key)
            for item_id, row, class_id, key in overlay.delta_entries():
                cluster.apply_add(item_id, row, class_id, key)

    def _finish_ingest(self, op: str, status: str, ack, generation,
                       started: float, *, span=None,
                       error: str | None = None) -> IngestOutcome:
        latency = self._clock() - started
        if isinstance(ack, IngestAck):
            item_id, epoch = ack.item_id, ack.epoch
            durable, replaced = ack.durable, ack.replaced
        else:
            item_id, epoch = ack, (self.ingestor.epoch
                                   if self.ingestor is not None else 0)
            durable = replaced = False
        outcome = IngestOutcome(
            op=op, status=status, item_id=item_id,
            generation=generation.generation, epoch=epoch,
            latency=latency, durable=durable, replaced=replaced,
            error=error)
        self.ingest_outcomes.append(outcome)
        self._m_ingest.child(op, status).inc()
        if span is not None:
            span.set_attribute("status", status)
        self.telemetry.events.emit(
            "ingest", op=op, status=status, item_id=item_id,
            epoch=epoch, durable=durable,
            latency_ms=latency * 1000.0, error=error,
            level="info" if status == "ok" else "warn")
        return outcome

    def _finish(self, request_id: int, kind: str, status: str,
                generation: EngineGeneration, started: float, *,
                results=(), attempts: int = 0, stage: str | None = None,
                error: str | None = None, span,
                fan_out: ClusterResult | None = None,
                tenant: str = "default",
                shed_reason: str | None = None,
                deadline_source: str = "default") -> ServiceResponse:
        latency = self._clock() - started
        # Stage wall times come straight off the request span's closed
        # children, so the outcome record and the trace always agree.
        stage_ms: dict[str, float] = {}
        for child in span.children:
            stage_ms[child.name] = (stage_ms.get(child.name, 0.0)
                                    + child.duration * 1000.0)
        span.set_attribute("status", status)
        span.set_attribute("latency_s", latency)
        outcome = RequestOutcome(
            request_id=request_id, kind=kind, status=status,
            degraded=(status == "degraded"), attempts=attempts,
            generation=generation.generation,
            latency=latency, stage=stage, error=error,
            stage_ms=stage_ms,
            shards_total=(None if fan_out is None
                          else fan_out.shards_total),
            shards_answered=(None if fan_out is None
                             else fan_out.shards_answered),
            tenant=tenant, shed_reason=shed_reason,
            deadline_source=deadline_source)
        with self._lock:
            self.outcomes.append(outcome)
            self._status_counts[status] += 1
        self._m_requests.child(kind, status).inc()
        if status == "shed":
            self._m_shed.child(shed_reason, tenant).inc()
        self._m_request_latency.observe(latency, trace_id=span.trace_id)
        return ServiceResponse(
            results=tuple(results), degraded=outcome.degraded,
            generation=generation.generation, outcome=outcome)
