"""Sharded, replicated nearest-neighbour cluster with failover.

One brute-force :class:`~repro.retrieval.index.NearestNeighborIndex`
behind one engine is a single point of failure: a slow replica stalls
every request, a corrupted one poisons every answer.
:class:`IndexCluster` splits the same corpus into ``N`` shards
(deterministic hash-by-id placement, :mod:`~repro.serving.sharding`),
keeps ``R`` replicas of each shard, and makes the failure modes
survivable:

* **fan-out + exact merge** — a query runs against every shard
  concurrently; per-shard top-k lists merge into a global top-k that
  is *bitwise identical* to the monolithic index when no faults are
  active (shard rows are verbatim copies, the query kernel is
  shape-stable, and the merge reproduces the monolith's tie order);
* **failover** — each replica sits behind its own
  :class:`~repro.serving.retry.CircuitBreaker`; dead, tripped, or
  corrupted replicas are skipped and the next live sibling answers;
* **hedged requests** — once a replica has a latency history, a
  backup replica is fired when the primary exceeds its recent latency
  quantile, cutting the tail a single slow replica would otherwise
  impose on every fan-out;
* **deadline carving** — the caller's
  :class:`~repro.serving.deadline.Deadline` budget bounds every shard;
  a shard that cannot answer inside its carve is dropped rather than
  dragging the whole request into a timeout;
* **partial results** — a lost shard degrades the answer, not the
  request: the merged result reports ``shards_answered`` /
  ``shards_total`` and the caller decides what "partial" means
  (the resilient service maps it to a ``partial`` outcome);
* **anti-entropy** — a background pass rebuilds dead or tripped
  replicas from a healthy sibling (verbatim copy, preserving the
  bitwise contract) and resets their breakers;
* **streamed writes** — replicas never change after build: a delete
  clears a bit of one liveness mask every shard query applies, and an
  add lands in one delta segment each query scans and merges.
  Streamed rows join a shard only when compaction re-shards the
  folded base, so a lost shard drops only its sealed rows.

Everything observable lands in :mod:`repro.obs`: per-shard latency
histograms, per-replica state gauges, hedge / failover / rebuild /
partial counters.  The clock is injectable; hedging uses real
concurrency (lane threads racing on events) and is exercised by the
chaos suite with real injected delays.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs import LATENCY_BUCKETS, Telemetry
from ..obs.memledger import ndarray_bytes
from ..retrieval.index import NearestNeighborIndex, top_k
from .deadline import Deadline
from .retry import CircuitBreaker, CircuitState
from .sharding import merge_topk, partition_positions

__all__ = ["ClusterConfig", "ClusterResult", "ShardReplica",
           "IndexCluster", "REPLICA_STATE_VALUES", "REPLICA_DEAD",
           "DISTANCE_BUCKETS"]

#: Histogram buckets for cosine distances and margins, which live in
#: [0, 2] — used by the per-cluster quality histograms the drift
#: detector's reference sketches are compared against.
DISTANCE_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8,
                    1.0, 1.25, 1.5, 1.75, 2.0)

#: Gauge encoding of replica states; breaker states first, then death.
REPLICA_STATE_VALUES = {CircuitState.CLOSED: 0,
                        CircuitState.HALF_OPEN: 1,
                        CircuitState.OPEN: 2}
REPLICA_DEAD = 3

#: Slice of the request deadline each shard may spend before it is
#: dropped from the merge (the carve is shared — shards run
#: concurrently against the same remaining budget).
_SHARD_BUDGET_FRACTION = 0.95


class _ReplicaDown(RuntimeError):
    """A replica refused or failed an attempt; the lane fails over."""


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and robustness knobs for one :class:`IndexCluster`."""

    num_shards: int = 3
    replication: int = 2
    #: Fan shards out on threads; ``False`` degrades to a sequential
    #: loop (deterministic, but no hedging and no tail isolation).
    parallel: bool = True
    hedge_enabled: bool = True
    #: The primary's recent latency quantile that arms the hedge ...
    hedge_quantile: float = 0.9
    #: ... scaled by this factor to form the wait before the backup
    #: replica is fired.
    hedge_factor: float = 2.0
    hedge_min_wait: float = 0.001      # seconds; floor for the wait
    hedge_warmup: int = 8              # samples needed before hedging
    latency_window: int = 128          # per-replica latency history
    breaker_failure_threshold: int = 2
    breaker_reset_after: float = 30.0  # seconds open before half-open
    breaker_half_open_successes: int = 1
    #: Run an anti-entropy pass after every query (the check is
    #: O(replicas) flag reads when the cluster is healthy).
    auto_anti_entropy: bool = True


@dataclass(frozen=True)
class ClusterResult:
    """Merged answer of one fan-out, with its degradation visible."""

    ids: np.ndarray            # global ids, merged top-k order
    distances: np.ndarray      # aligned cosine distances
    shards_total: int
    shards_answered: int
    hedges: int                # backup replicas fired for this query
    failovers: int             # replica attempts skipped or failed

    @property
    def partial(self) -> bool:
        """Did any shard drop out of the merge?"""
        return self.shards_answered < self.shards_total

    @property
    def top1_distance(self) -> float:
        """Best merged distance, or NaN for an empty result."""
        if self.distances.size < 1:
            return float("nan")
        return float(self.distances[0])

    @property
    def margin(self) -> float:
        """Top-2 minus top-1 distance (retrieval confidence), or NaN
        when fewer than two results merged."""
        if self.distances.size < 2:
            return float("nan")
        return float(self.distances[1] - self.distances[0])


class ShardReplica:
    """One replica: an index copy, a breaker, and a latency history."""

    def __init__(self, shard_id: int, replica_id: int,
                 index: NearestNeighborIndex, breaker: CircuitBreaker,
                 latency_window: int):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.index = index
        self.breaker = breaker
        self.alive = True
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=latency_window)

    def available(self) -> bool:
        """May this replica serve an attempt right now?"""
        return self.alive and self.breaker.allow()

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(float(seconds))

    def latency_snapshot(self) -> list[float]:
        with self._lock:
            return list(self._latencies)

    def latency_quantile(self, q: float) -> float | None:
        snapshot = self.latency_snapshot()
        if not snapshot:
            return None
        return float(np.quantile(np.asarray(snapshot), q))

    def kill(self) -> None:
        """Simulate a crashed replica process (used by fault
        injection and operator tooling)."""
        self.alive = False

    def revive(self, index: NearestNeighborIndex) -> None:
        """Anti-entropy repair: fresh data, clean breaker, no stale
        latency history."""
        self.index = index
        self.alive = True
        with self._lock:
            self._latencies.clear()
        self.breaker.reset()


class _Shard:
    """R replicas over one deterministic slice of the sealed corpus."""

    def __init__(self, shard_id: int, positions: np.ndarray,
                 replicas: list[ShardReplica]):
        self.shard_id = shard_id
        self.positions = positions
        self.replicas = replicas


class _QueryStats:
    """Per-query hedge/failover tally, shared across lane threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.hedges = 0
        self.failovers = 0

    def hedge(self) -> None:
        with self._lock:
            self.hedges += 1

    def failover(self, count: int = 1) -> None:
        with self._lock:
            self.failovers += count


class _OneShot:
    """First-success holder coordinating a shard's racing lanes.

    ``wait`` returns once a result lands *or* every expected lane has
    finished empty-handed — so a coordinator neither busy-waits nor
    blocks on lanes that already gave up.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self.result = None
        self._expected = 0
        self._finished = 0

    def expect_lane(self) -> None:
        with self._cond:
            self._expected += 1

    def offer(self, value) -> bool:
        with self._cond:
            if self.result is None:
                self.result = value
                self._cond.notify_all()
                return True
            return False

    def lane_done(self) -> None:
        with self._cond:
            self._finished += 1
            self._cond.notify_all()

    def settled(self) -> bool:
        with self._cond:
            return (self.result is not None
                    or self._finished >= self._expected)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until settled (or ``timeout``); True iff a result is
        available."""
        with self._cond:
            self._cond.wait_for(
                lambda: (self.result is not None
                         or self._finished >= self._expected),
                timeout)
            return self.result is not None


class IndexCluster:
    """Shard + replicate one nearest-neighbour index; keep answering.

    Parameters
    ----------
    index:
        The monolithic source index.  Its (already normalized) rows
        are copied verbatim into shard replicas; the source object is
        not retained.
    config:
        Topology and robustness knobs.
    name:
        Label for this cluster's metric series (a service runs two:
        ``image`` and ``recipe``).
    clock:
        Injectable time source for latency measurement and deadline
        math.
    telemetry:
        Shared :class:`~repro.obs.Telemetry`; a private in-memory one
        is created when omitted so the metrics always exist.
    faults:
        Optional :class:`~repro.robustness.faults.ClusterFault` hook
        object; production passes ``None``.
    """

    def __init__(self, index: NearestNeighborIndex,
                 config: ClusterConfig | None = None, *,
                 name: str = "index",
                 clock: Callable[[], float] = time.monotonic,
                 telemetry: Telemetry | None = None,
                 faults=None):
        config = config or ClusterConfig()
        if config.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if config.replication < 1:
            raise ValueError("replication must be >= 1")
        self._config = config
        self.name = str(name)
        self._clock = clock
        self._faults = faults
        self.telemetry = telemetry or Telemetry(clock=clock)
        self._setup_metrics()
        self._ids = index.ids.copy()
        self._class_ids = (None if index.class_ids is None
                           else index.class_ids.copy())
        self._live = np.ones(len(self._ids), dtype=bool)
        # Rows at positions >= _sealed are streamed adds; slot
        # ``position - _sealed`` of the delta segment holds each one.
        self._sealed = len(self._ids)
        self._segment = np.empty((0, index.embeddings.shape[1]))
        # Serializes writes against each other and anti-entropy passes
        # against each other.  Queries stay lock-free: they snapshot
        # ``_live`` once, first, and writes publish it last.
        self._topology_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._next_query_id = 0
        self._queries = 0
        self._hedges = 0
        self._failovers = 0
        self._rebuilds = 0
        self._partials = 0
        self.shards: list[_Shard] = []
        for shard_id, positions in enumerate(
                partition_positions(self._ids, config.num_shards)):
            # Shard items are relabeled with their *global row
            # positions*: the merge tie-breaks and maps back through
            # them, which is what makes the fan-out bit-exact.
            primary = index.subset(positions, relabel=positions)
            replicas = []
            for replica_id in range(config.replication):
                breaker = CircuitBreaker(
                    f"{self.name}-s{shard_id}r{replica_id}",
                    config.breaker_failure_threshold,
                    config.breaker_reset_after,
                    config.breaker_half_open_successes, clock=clock,
                    on_transition=self._replica_transition(
                        shard_id, replica_id))
                replicas.append(ShardReplica(
                    shard_id, replica_id,
                    primary if replica_id == 0 else primary.clone(),
                    breaker, config.latency_window))
                self._m_replica_state.labels(
                    cluster=self.name, shard=shard_id,
                    replica=replica_id).set(0)
            self.shards.append(_Shard(shard_id, positions, replicas))

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _setup_metrics(self) -> None:
        registry = self.telemetry.registry
        self._m_queries = registry.counter(
            "cluster_queries_total",
            "cluster fan-outs by merged outcome",
            labels=("cluster", "outcome"))
        self._m_shard_latency = registry.histogram(
            "cluster_shard_seconds",
            "per-shard answer latency (winning replica attempt)",
            labels=("cluster", "shard"), buckets=LATENCY_BUCKETS)
        self._m_replica_state = registry.gauge(
            "cluster_replica_state",
            "0 closed, 1 half-open, 2 open, 3 dead",
            labels=("cluster", "shard", "replica"))
        self._m_hedges = registry.counter(
            "cluster_hedges_total",
            "backup replicas fired after a slow primary",
            labels=("cluster", "shard"))
        self._m_failovers = registry.counter(
            "cluster_failovers_total",
            "replica attempts skipped or failed over",
            labels=("cluster", "shard"))
        self._m_rebuilds = registry.counter(
            "cluster_anti_entropy_rebuilds_total",
            "replicas rebuilt from a healthy sibling",
            labels=("cluster", "shard"))
        self._m_partials = registry.counter(
            "cluster_partial_results_total",
            "fan-outs that lost at least one shard",
            labels=("cluster",))
        self._m_top1 = registry.histogram(
            "cluster_top1_distance",
            "best merged cosine distance per fan-out",
            labels=("cluster",), buckets=DISTANCE_BUCKETS)
        self._m_margin = registry.histogram(
            "cluster_result_margin",
            "top-2 minus top-1 merged distance per fan-out",
            labels=("cluster",), buckets=DISTANCE_BUCKETS)

    def _replica_transition(self, shard_id: int, replica_id: int):
        gauge = self._m_replica_state
        name = self.name

        def on_transition(_breaker_name: str, state: CircuitState) -> None:
            gauge.labels(cluster=name, shard=shard_id,
                         replica=replica_id).set(
                REPLICA_STATE_VALUES[state])
        return on_transition

    # ------------------------------------------------------------------
    # Operator / fault surface
    # ------------------------------------------------------------------
    def replica(self, shard_id: int, replica_id: int) -> ShardReplica:
        return self.shards[shard_id].replicas[replica_id]

    def crash_replica(self, shard_id: int, replica_id: int) -> None:
        """Mark one replica dead (fault injection / operator drain)."""
        self.replica(shard_id, replica_id).kill()
        self._m_replica_state.labels(
            cluster=self.name, shard=shard_id,
            replica=replica_id).set(REPLICA_DEAD)
        self.telemetry.events.emit(
            "replica_down", cluster=self.name, shard=shard_id,
            replica=replica_id)

    def live_replica_count(self) -> int:
        return sum(1 for shard in self.shards
                   for rep in shard.replicas if rep.alive)

    def anti_entropy(self) -> int:
        """Rebuild dead/tripped replicas from healthy siblings.

        Returns the number of replicas rebuilt.  A shard with no
        healthy, finite donor is left as-is (that is exactly the
        whole-shard-lost scenario partial results exist for).
        """
        rebuilt = 0
        # Every query may run a pass; two must not rebuild one replica.
        with self._topology_lock:
            for shard in self.shards:
                broken = [rep for rep in shard.replicas
                          if not rep.alive
                          or rep.breaker.state is CircuitState.OPEN]
                if not broken:
                    continue
                donor = next(
                    (rep for rep in shard.replicas
                     if rep.alive
                     and rep.breaker.state is CircuitState.CLOSED
                     and bool(np.isfinite(rep.index.embeddings).all())),
                    None)
                if donor is None:
                    continue
                for rep in broken:
                    rep.revive(donor.index.clone())
                    rebuilt += 1
                    self._m_rebuilds.labels(cluster=self.name,
                                            shard=shard.shard_id).inc()
                    self._m_replica_state.labels(
                        cluster=self.name, shard=shard.shard_id,
                        replica=rep.replica_id).set(0)
                    self.telemetry.events.emit(
                        "replica_rebuilt", cluster=self.name,
                        shard=shard.shard_id, replica=rep.replica_id,
                        donor=donor.replica_id)
        if rebuilt:
            with self._stats_lock:
                self._rebuilds += rebuilt
        return rebuilt

    # ------------------------------------------------------------------
    # Streamed deltas (ingest overlay mirrored into mask + segment)
    # ------------------------------------------------------------------
    def apply_add(self, item_id: int, row: np.ndarray, class_id: int,
                  position: int) -> None:
        """Write one streamed, already-normalized row into the delta
        segment at global ``position`` (never a sealed one).  Positions
        may skip gaps — merge keys tombstoned before this cluster saw
        them — which stay dead and are never returned."""
        item_id = int(item_id)
        position = int(position)
        with self._topology_lock:
            size = len(self._ids)
            if position < size and self._live[position]:
                raise ValueError(
                    f"position {position} is already live")
            if position < self._sealed:
                raise ValueError(
                    f"position {position} is sealed (streamed rows "
                    f"start at {self._sealed})")
            # Publish grown arrays ``_live`` last and set the bit only
            # once the row is written; dead gap slots are never read.
            for name in ("_segment", "_ids", "_class_ids", "_live"):
                old = getattr(self, name)
                if old is not None and position >= size:
                    setattr(self, name, np.concatenate(
                        [old, np.zeros((position + 1 - size,)
                                       + old.shape[1:], dtype=old.dtype)]))
            self._segment[position - self._sealed] = row
            self._ids[position] = item_id
            if self._class_ids is not None:
                self._class_ids[position] = int(class_id)
            self._live[position] = True

    def apply_delete(self, item_id: int, position: int) -> None:
        """Tombstone one live row, sealed or streamed."""
        item_id = int(item_id)
        position = int(position)
        with self._topology_lock:
            if position >= len(self._ids) or not self._live[position]:
                raise ValueError(
                    f"position {position} is not live")
            if self._ids[position] != item_id:
                raise ValueError(
                    f"position {position} holds item "
                    f"{int(self._ids[position])}, not {item_id}")
            self._live[position] = False

    def live_item_count(self) -> int:
        return int(np.count_nonzero(self._live))

    def retained_bytes(self) -> int:
        """Bytes held by every replica's index arrays plus the
        cluster's own positions, ids, classes, liveness mask and delta
        segment."""
        replicas = [rep.index for shard in self.shards
                    for rep in shard.replicas]
        return ndarray_bytes(
            *(array for index in replicas
              for array in (index.embeddings, index.ids, index.class_ids)),
            *(shard.positions for shard in self.shards),
            self._ids, self._class_ids, self._live, self._segment)

    def describe(self) -> dict:
        """Topology + health snapshot; per-shard ``items`` are sealed rows."""
        with self._stats_lock:
            totals = {"queries": self._queries, "hedges": self._hedges,
                      "failovers": self._failovers,
                      "rebuilds": self._rebuilds,
                      "partials": self._partials}
        topology = []
        for shard in self.shards:
            replicas = []
            for rep in shard.replicas:
                p95 = rep.latency_quantile(0.95)
                replicas.append({
                    "replica": rep.replica_id,
                    "alive": rep.alive,
                    "breaker": rep.breaker.state.value,
                    "latency_p95_ms": (None if p95 is None
                                       else p95 * 1000.0),
                })
            topology.append({"shard": shard.shard_id,
                             "items": int(len(shard.positions)),
                             "replicas": replicas})
        return {"name": self.name,
                "shards": len(self.shards),
                "replication": self._config.replication,
                "items": len(self._ids),
                "live_items": self.live_item_count(),
                "live_replicas": self.live_replica_count(),
                **totals,
                "topology": topology}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _validate(self, live: np.ndarray, k: int, class_id: int | None,
                  strict: bool) -> None:
        """Caller-contract checks, synchronous and fan-out-free, so
        invalid queries raise :class:`ValueError` exactly like the
        monolithic index."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if class_id is not None and self._class_ids is None:
            raise ValueError("index built without class metadata")
        if strict:
            pool = (int(np.count_nonzero(live)) if class_id is None
                    else int(np.count_nonzero(
                        live & (self._class_ids[:len(live)] == class_id))))
            if pool < k:
                raise ValueError(
                    f"k={k} exceeds the candidate pool of {pool}"
                    + ("" if class_id is None
                       else f" for class {class_id}"))

    def query(self, vector: np.ndarray, k: int = 5,
              class_id: int | None = None, strict: bool = False,
              deadline: Deadline | None = None,
              hedge: bool | None = None) -> ClusterResult:
        """Fan one query out to every shard and merge the top-k.

        Fault-free, the merged ``(ids, distances)`` are bitwise
        identical to ``NearestNeighborIndex.query`` on the source
        index.  Under faults the merge covers the shards that
        answered; ``ClusterResult.partial`` tells the caller how much
        of the corpus the answer represents.  Never raises for
        operational faults — only for caller errors (bad ``k``,
        unknown metadata, ``strict`` pool violations).

        ``hedge=False`` disables backup lanes for this query even when
        the config allows them — the brownout ladder's first level
        trades tail latency for halved worst-case fan-out cost.
        ``None`` defers to ``ClusterConfig.hedge_enabled``; ``True``
        cannot force hedging past a config that disabled it.
        """
        with self._stats_lock:
            query_id = self._next_query_id
            self._next_query_id += 1
            self._queries += 1
        if self._faults is not None:
            self._faults.on_cluster_query(query_id, self)
        live = self._live        # snapshot before reading other arrays
        self._validate(live, k, class_id, strict)
        # An already-blown request budget means every shard answer
        # would have to be discarded — skip the fan-out entirely.
        expired = deadline is not None and deadline.expired
        shard_budget = (None if deadline is None else
                        deadline.sub(_SHARD_BUDGET_FRACTION))
        stats = _QueryStats()
        outcomes: list[tuple[np.ndarray, np.ndarray] | None] = (
            [None] * len(self.shards))

        tracer = self.telemetry.tracer
        ctx = tracer.capture()

        def run(slot: int, shard: _Shard) -> None:
            # Worker threads adopt the submitting thread's context so
            # every per-shard span lands in the request's trace.
            with tracer.attach(ctx), \
                    tracer.span("shard_query", cluster=self.name,
                                shard=shard.shard_id) as span:
                outcomes[slot] = self._query_shard(
                    shard, vector, k, class_id, live[shard.positions],
                    shard_budget, query_id, stats, hedge=hedge)
                span.set_attribute(
                    "answered", outcomes[slot] is not None)

        if expired:
            pass
        elif self._config.parallel and len(self.shards) > 1:
            workers = [threading.Thread(target=run, args=(i, shard),
                                        daemon=True,
                                        name=f"shard-{self.name}"
                                             f"-{shard.shard_id}")
                       for i, shard in enumerate(self.shards)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        else:
            for i, shard in enumerate(self.shards):
                run(i, shard)

        answered = [out for out in outcomes if out is not None]
        # One scan of the live streamed rows, merged as one more part
        # (skipped, like the shards, once the budget is gone).
        selector = live[self._sealed:] & (not expired)
        if class_id is not None:
            selector &= self._class_ids[self._sealed:len(live)] == class_id
        slots = np.flatnonzero(selector)
        segment = top_k(self._segment[slots], self._sealed + slots, vector, k)
        positions, distances = merge_topk(answered + [segment], k)
        result = ClusterResult(
            ids=self._ids[positions], distances=distances,
            shards_total=len(self.shards),
            shards_answered=len(answered),
            hedges=stats.hedges, failovers=stats.failovers)
        self._account(result, stats)
        if self._config.auto_anti_entropy:
            self.anti_entropy()
        return result

    def _account(self, result: ClusterResult,
                 stats: _QueryStats) -> None:
        outcome = ("unanswered" if result.shards_answered == 0
                   else "partial" if result.partial else "ok")
        self._m_queries.labels(cluster=self.name, outcome=outcome).inc()
        with self._stats_lock:
            self._hedges += stats.hedges
            self._failovers += stats.failovers
            if result.partial:
                self._partials += 1
        if result.partial:
            self._m_partials.labels(cluster=self.name).inc()
        # Quality distributions per answered fan-out; Histogram drops
        # the NaN from empty results.
        if result.shards_answered > 0:
            self._m_top1.labels(cluster=self.name).observe(
                result.top1_distance)
            self._m_margin.labels(cluster=self.name).observe(
                result.margin)

    # ------------------------------------------------------------------
    # Per-shard execution: lanes, hedging, failover
    # ------------------------------------------------------------------
    def _query_shard(self, shard: _Shard, vector, k: int,
                     class_id: int | None, mask: np.ndarray,
                     budget: Deadline | None, query_id: int,
                     stats: _QueryStats, hedge: bool | None = None):
        """Masked failover chain, optionally raced by a hedge lane."""
        hedge = (self._config.hedge_enabled if hedge is None
                 else bool(hedge) and self._config.hedge_enabled)
        ordered = [rep for rep in shard.replicas if rep.available()]
        skipped = len(shard.replicas) - len(ordered)
        if skipped:
            stats.failover(skipped)
            self._m_failovers.labels(cluster=self.name,
                                     shard=shard.shard_id).inc(skipped)
        if not ordered:
            return None
        holder = _OneShot()

        def lane(chain: list[ShardReplica]) -> None:
            try:
                for rep in chain:
                    if holder.result is not None:
                        return
                    if budget is not None and budget.expired:
                        return
                    try:
                        answer = self._attempt(
                            shard, rep, query_id, budget,
                            lambda: rep.index.query(
                                vector, k=k, class_id=class_id,
                                mask=mask))
                    except _ReplicaDown:
                        stats.failover()
                        self._m_failovers.labels(
                            cluster=self.name,
                            shard=shard.shard_id).inc()
                        continue
                    if budget is not None and budget.expired:
                        # Finished after the shard's carve: the merge
                        # has moved on; drop the late answer.
                        return
                    holder.offer(answer)
                    return
            finally:
                holder.lane_done()

        parallel = self._config.parallel
        if not parallel:
            holder.expect_lane()
            lane(ordered)
            return holder.result

        hedge_wait = (self._hedge_wait(ordered[0])
                      if hedge and len(ordered) > 1 else None)
        holder.expect_lane()
        primary = threading.Thread(target=lane, args=(ordered,),
                                   daemon=True,
                                   name=f"shard-{self.name}"
                                        f"-{shard.shard_id}")
        primary.start()
        if hedge_wait is not None:
            if budget is not None:
                hedge_wait = min(hedge_wait,
                                 max(budget.remaining(), 0.0))
            if not holder.wait(hedge_wait) and not holder.settled():
                stats.hedge()
                self._m_hedges.labels(cluster=self.name,
                                      shard=shard.shard_id).inc()
                holder.expect_lane()
                tracer = self.telemetry.tracer
                ctx = tracer.capture()

                def hedge_lane() -> None:
                    # The backup lane is its own span inside the
                    # shard_query: when the hedge wins, the critical
                    # path shows it; when it loses, the span closes
                    # late and still joins the trace by parent id.
                    with tracer.attach(ctx), \
                            tracer.span("hedge", cluster=self.name,
                                        shard=shard.shard_id,
                                        replica=ordered[1].replica_id):
                        lane([ordered[1]])

                backup = threading.Thread(target=hedge_lane,
                                          daemon=True,
                                          name=f"hedge-{self.name}"
                                               f"-{shard.shard_id}")
                backup.start()
        timeout = (None if budget is None
                   else max(budget.remaining(), 0.0))
        holder.wait(timeout)
        return holder.result

    def _hedge_wait(self, primary: ShardReplica) -> float | None:
        """How long to give the primary before firing the backup, or
        ``None`` while its latency history is too thin to judge."""
        snapshot = primary.latency_snapshot()
        if len(snapshot) < self._config.hedge_warmup:
            return None
        quantile = float(np.quantile(np.asarray(snapshot),
                                     self._config.hedge_quantile))
        return max(quantile * self._config.hedge_factor,
                   self._config.hedge_min_wait)

    def _attempt(self, shard: _Shard, rep: ShardReplica,
                 query_id: int, budget: Deadline | None, call):
        """One replica attempt with health accounting.

        Raises :class:`_ReplicaDown` on any operational failure so the
        lane fails over; returns the (positions, distances) answer on
        success.
        """
        if not rep.alive:
            raise _ReplicaDown(f"shard {shard.shard_id} replica "
                               f"{rep.replica_id} is dead")
        if self._faults is not None:
            self._faults.on_replica_query(query_id, shard.shard_id,
                                          rep.replica_id)
        if not rep.alive:  # the fault hook may have crashed it
            raise _ReplicaDown(f"shard {shard.shard_id} replica "
                               f"{rep.replica_id} is dead")
        started = self._clock()
        try:
            # A corrupted replica must surface as a failover, not as
            # FP warnings escaping from a lane thread.
            with np.errstate(all="ignore"):
                positions, distances = call()
        except Exception as exc:
            rep.breaker.record_failure()
            raise _ReplicaDown(
                f"shard {shard.shard_id} replica {rep.replica_id}: "
                f"{type(exc).__name__}: {exc}") from exc
        elapsed = self._clock() - started
        self._m_shard_latency.labels(cluster=self.name,
                                     shard=shard.shard_id).observe(elapsed)
        if not bool(np.all(np.isfinite(distances))):
            rep.breaker.record_failure()
            raise _ReplicaDown(
                f"shard {shard.shard_id} replica {rep.replica_id}: "
                f"non-finite distances")
        rep.breaker.record_success()
        rep.observe_latency(elapsed)
        return positions, distances
