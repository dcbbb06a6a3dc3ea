"""Sharded, replicated nearest-neighbour cluster with failover.

One brute-force :class:`~repro.retrieval.index.NearestNeighborIndex`
behind one engine is a single point of failure: a slow replica stalls
every request, a corrupted one poisons every answer.
:class:`IndexCluster` splits the same corpus into ``N`` shards
(deterministic hash-by-id placement, :mod:`~repro.serving.sharding`),
keeps ``R`` replicas of each shard, and makes the failure modes
survivable:

* **fan-out + exact merge** — a query runs against every shard in
  turn, on the caller's thread; per-shard top-k lists merge into a
  global top-k that is *bitwise identical* to the monolithic index
  when no faults are active (shard rows are verbatim copies, the
  query kernel is shape-stable, and the merge reproduces the
  monolith's tie order);
* **failover** — each replica sits behind its own
  :class:`~repro.serving.retry.CircuitBreaker`; dead, tripped, or
  corrupted replicas are skipped and the next live sibling answers;
* **deadline carving** — the caller's
  :class:`~repro.serving.deadline.Deadline` budget bounds the
  fan-out: it is checked before and after every replica attempt, and
  shards that cannot answer inside the carve are dropped rather than
  dragging the whole request into a timeout.  An attempt runs to
  completion, so a stuck shard costs its own run time;
* **partial results** — a lost shard degrades the answer, not the
  request: the merged result reports ``shards_answered`` /
  ``shards_total`` and the caller decides what "partial" means
  (the resilient service maps it to a ``partial`` outcome);
* **anti-entropy** — after every query, dead or tripped replicas are
  re-pointed at the sealed index a healthy sibling shares with them
  (nothing is copied) and their breakers reset;
* **streamed writes** — replicas never change after build: a delete
  clears a bit of one liveness mask every shard query applies, and an
  add lands in one delta segment each query scans and merges.
  Streamed rows join a shard only when compaction re-shards the
  folded base, so a lost shard drops only its sealed rows.

Everything observable lands in :mod:`repro.obs`: per-shard latency
histograms, per-replica state gauges, failover / rebuild / partial
counters.  The clock is injectable, and no query starts a thread.
"""

from __future__ import annotations

import threading
import time
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

#: Slice of the request deadline the fan-out may spend; shards run in
#: turn against this one carve, and those left when it is gone are
#: dropped from the merge.
_SHARD_BUDGET_FRACTION = 0.95

#: Per-replica breaker: open after this many failures in a row, stay
#: open this many seconds, close after this many half-open successes.
_BREAKER_FAILURE_THRESHOLD = 2
_BREAKER_RESET_AFTER = 30.0
_BREAKER_HALF_OPEN_SUCCESSES = 1


class _ReplicaDown(RuntimeError):
    """A replica refused or failed an attempt; the chain fails over."""


@dataclass(frozen=True)
class ClusterConfig:
    """Topology of one :class:`IndexCluster`."""

    num_shards: int = 3
    replication: int = 2
    # Kept only for perfbench/inproc.py, which passes False; ROADMAP
    # item 8's [benchmark] change drops that kwarg, then this field.
    hedge_enabled: bool = False

    def __post_init__(self):
        if self.hedge_enabled:
            raise ValueError("hedged requests were removed; "
                             "hedge_enabled must be False")


@dataclass(frozen=True)
class ClusterResult:
    """Merged answer of one fan-out, with its degradation visible."""

    ids: np.ndarray            # global ids, merged top-k order
    distances: np.ndarray      # aligned cosine distances
    shards_total: int
    shards_answered: int
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
    """Health of one replica over its shard's shared sealed index."""

    def __init__(self, shard_id: int, replica_id: int,
                 index: NearestNeighborIndex, breaker: CircuitBreaker):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.index = index
        self.breaker = breaker
        self.alive = True

    def available(self) -> bool:
        """May this replica serve an attempt right now?"""
        return self.alive and self.breaker.allow()

    def kill(self) -> None:
        """Simulate a crashed replica process (used by fault
        injection and operator tooling)."""
        self.alive = False

    def revive(self, index: NearestNeighborIndex) -> None:
        """Anti-entropy repair: a healthy sibling's index and a clean
        breaker."""
        self.index = index
        self.alive = True
        self.breaker.reset()


class _Shard:
    """R replicas over one deterministic slice of the sealed corpus."""

    def __init__(self, shard_id: int, positions: np.ndarray,
                 replicas: list[ShardReplica]):
        self.shard_id = shard_id
        self.positions = positions
        self.replicas = replicas


class IndexCluster:
    """Shard + replicate one nearest-neighbour index; keep answering.

    Parameters
    ----------
    index:
        The monolithic source index.  Its (already normalized) rows
        are copied verbatim into one sealed index per shard, shared by
        its replicas; the source object is not retained.
    config:
        Topology: shard count and replicas per shard.
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
        self._failovers = 0
        self._rebuilds = 0
        self._partials = 0
        self.shards: list[_Shard] = []
        for shard_id, positions in enumerate(
                partition_positions(self._ids, config.num_shards)):
            # Shard items are relabeled with their *global row
            # positions*: the merge tie-breaks and maps back through
            # them, which is what makes the fan-out bit-exact.  Those
            # ids are the shard's positions; its replicas share the index.
            sealed = index.subset(positions, relabel=positions)
            replicas = []
            for replica_id in range(config.replication):
                breaker = CircuitBreaker(
                    f"{self.name}-s{shard_id}r{replica_id}",
                    _BREAKER_FAILURE_THRESHOLD, _BREAKER_RESET_AFTER,
                    _BREAKER_HALF_OPEN_SUCCESSES, clock=clock,
                    on_transition=self._replica_transition(
                        shard_id, replica_id))
                replicas.append(ShardReplica(shard_id, replica_id,
                                             sealed, breaker))
                self._m_replica_state.labels(
                    cluster=self.name, shard=shard_id,
                    replica=replica_id).set(0)
            self.shards.append(_Shard(shard_id, sealed.ids, replicas))

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
            "per-shard answer latency (answering replica attempt)",
            labels=("cluster", "shard"), buckets=LATENCY_BUCKETS)
        self._m_replica_state = registry.gauge(
            "cluster_replica_state",
            "0 closed, 1 half-open, 2 open, 3 dead",
            labels=("cluster", "shard", "replica"))
        self._m_failovers = registry.counter(
            "cluster_failovers_total",
            "replica attempts skipped or failed over",
            labels=("cluster", "shard"))
        self._m_rebuilds = registry.counter(
            "cluster_anti_entropy_rebuilds_total",
            "replicas re-pointed at a healthy sibling's index",
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
        """Re-point dead/tripped replicas at a healthy sibling's index.

        Returns the number of replicas rebuilt.  A shard with no
        healthy, finite donor is left as-is (that is exactly the
        whole-shard-lost scenario partial results exist for).
        """
        rebuilt = 0
        # Every query runs a pass; two must not rebuild one replica.
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
                    rep.revive(donor.index)
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
        """Bytes held by the shards' sealed index arrays, each distinct
        array once however many replicas share it, plus the cluster's
        own ids, classes, liveness mask and delta segment."""
        sealed = {id(array): array for shard in self.shards
                  for rep in shard.replicas
                  for array in (rep.index.embeddings, rep.index.ids,
                                rep.index.class_ids, shard.positions)}
        return ndarray_bytes(*sealed.values(), self._ids, self._class_ids,
                             self._live, self._segment)

    def describe(self) -> dict:
        """Topology + health snapshot; per-shard ``items`` are sealed rows."""
        with self._stats_lock:
            totals = {"queries": self._queries,
                      "failovers": self._failovers,
                      "rebuilds": self._rebuilds,
                      "partials": self._partials}
        topology = [{"shard": shard.shard_id,
                     "items": int(len(shard.positions)),
                     "replicas": [{"replica": rep.replica_id,
                                   "alive": rep.alive,
                                   "breaker": rep.breaker.state.value}
                                  for rep in shard.replicas]}
                    for shard in self.shards]
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
              deadline: Deadline | None = None) -> ClusterResult:
        """Fan one query out to every shard and merge the top-k.

        Fault-free, the merged ``(ids, distances)`` are bitwise
        identical to ``NearestNeighborIndex.query`` on the source
        index.  Under faults the merge covers the shards that
        answered; ``ClusterResult.partial`` tells the caller how much
        of the corpus the answer represents.  Never raises for
        operational faults — only for caller errors (bad ``k``,
        unknown metadata, ``strict`` pool violations).
        """
        live = self._live        # snapshot before reading other arrays
        # A caller error is no query: it neither counts nor moves the
        # query-id-keyed fault schedules.
        self._validate(live, k, class_id, strict)
        with self._stats_lock:
            query_id = self._next_query_id
            self._next_query_id += 1
            self._queries += 1
        if self._faults is not None:
            self._faults.on_cluster_query(query_id, self)
        # An already-blown request budget means every shard answer
        # would have to be discarded — skip the fan-out entirely.
        expired = deadline is not None and deadline.expired
        shard_budget = (None if deadline is None else
                        deadline.sub(_SHARD_BUDGET_FRACTION))
        tracer = self.telemetry.tracer
        answered = []
        failovers = 0
        for shard in [] if expired else self.shards:
            with tracer.span("shard_query", cluster=self.name,
                             shard=shard.shard_id) as span:
                outcome, shard_failovers = self._query_shard(
                    shard, vector, k, class_id, live[shard.positions],
                    shard_budget, query_id)
                span.set_attribute("answered", outcome is not None)
            failovers += shard_failovers
            if outcome is not None:
                answered.append(outcome)
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
            shards_answered=len(answered), failovers=failovers)
        self._account(result)
        self.anti_entropy()
        return result

    def _account(self, result: ClusterResult) -> None:
        outcome = ("unanswered" if result.shards_answered == 0
                   else "partial" if result.partial else "ok")
        self._m_queries.labels(cluster=self.name, outcome=outcome).inc()
        with self._stats_lock:
            self._failovers += result.failovers
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
    # Per-shard execution: failover
    # ------------------------------------------------------------------
    def _query_shard(self, shard: _Shard, vector, k: int,
                     class_id: int | None, mask: np.ndarray,
                     budget: Deadline | None, query_id: int):
        """Walk the shard's masked failover chain on the calling thread.

        Returns ``(answer, failovers)``: the first answer inside the
        carve, or ``None``, and how many replicas were skipped or
        failed on the way.
        """
        ordered = [rep for rep in shard.replicas if rep.available()]
        failovers = len(shard.replicas) - len(ordered)
        if failovers:
            self._m_failovers.labels(cluster=self.name,
                                     shard=shard.shard_id).inc(failovers)
        for rep in ordered:
            if budget is not None and budget.expired:
                break
            try:
                answer = self._attempt(
                    shard, rep, query_id,
                    lambda: rep.index.query(
                        vector, k=k, class_id=class_id, mask=mask))
            except _ReplicaDown:
                failovers += 1
                self._m_failovers.labels(
                    cluster=self.name, shard=shard.shard_id).inc()
                continue
            if budget is not None and budget.expired:
                break     # landed after the carve: dropped
            return answer, failovers
        return None, failovers

    def _attempt(self, shard: _Shard, rep: ShardReplica,
                 query_id: int, call):
        """One replica attempt with health accounting.

        Raises :class:`_ReplicaDown` on any operational failure so the
        chain fails over; returns the (positions, distances) answer on
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
            # FP warnings escaping from the query.
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
        return positions, distances
