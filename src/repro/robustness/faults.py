"""Deterministic fault injection for testing the robustness layer.

Every guard in this package exists because some failure happens in
production; this module makes those failures *reproducible on demand*
so the guards themselves are testable:

* :class:`NaNGradientFault` — poison gradients at chosen global steps
  (exercises the health monitor's skip path);
* :class:`ParamCorruptionFault` — poison a parameter *after* a step
  (exercises checkpoint rollback: skipping cannot undo this);
* :class:`CrashFault` — raise :class:`SimulatedCrash` at a chosen
  epoch boundary (exercises checkpoint/resume);
* :func:`truncate_file` / :func:`corrupt_file` — damage files on disk
  the way an interrupted writer or failing disk would (exercises
  checkpoint verification and the PPM loader guards);
* :class:`ServingFault` subclasses — query-side failures hooked into
  the resilient service's embed/index stages: slow embeds
  (:class:`SlowEmbedFault`), NaN embeddings (:class:`NaNEmbedFault`),
  in-place index corruption (:class:`IndexCorruptionFault`), and a
  corpus swap fired mid-request (:class:`SwapMidQueryFault`);
* :class:`ClusterFault` subclasses — shard/replica failures hooked
  into :class:`~repro.serving.cluster.IndexCluster` fan-outs: replica
  processes dying mid-run (:class:`ReplicaCrash`), one shard's
  replicas going slow (:class:`SlowShard`), and a whole shard lost at
  once (:class:`ShardLoss`);
* :class:`IngestFault` subclasses — streaming-ingest failures hooked
  into the write-ahead log and the compaction protocol: a write torn
  by a crash (:class:`TornWrite`), a full disk
  (:class:`DiskFullOnAppend`), the compactor dying at a chosen
  protocol phase (:class:`CrashMidCompaction`), and queries fired at
  the protocol edges (:class:`CompactionRacingQueries`);
* overload shapes — a fleet-wide demand spike
  (:class:`OverloadStorm`) and a single tenant flooding
  (:class:`TenantFlood`) plug into the load generator's rate shaper,
  while :class:`SlowEmbedUnderLoad` makes the embed stage degrade
  *with* concurrency, the feedback loop adaptive admission exists to
  break.

Wire-level faults — misbehaving *clients* rather than broken
internals (slowloris drips, mid-response resets, connection floods,
truncated bodies) — live with the tests in ``tests/_netfaults.py``;
they need a live gateway socket and so run in the ``gateway`` chaos
suite, not here.

All injectors are deterministic: faults fire at explicit step/epoch/
request indices, never at random, so a failing test replays exactly.
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Callable, Iterable

import numpy as np

__all__ = ["SimulatedCrash", "FaultInjector", "ChainedFaults",
           "NaNGradientFault", "ParamCorruptionFault", "CrashFault",
           "truncate_file", "corrupt_file",
           "ServingFault", "ChainedServingFaults", "SlowEmbedFault",
           "NaNEmbedFault", "IndexCorruptionFault", "SwapMidQueryFault",
           "ClusterFault", "ChainedClusterFaults", "ReplicaCrash",
           "SlowShard", "ShardLoss",
           "IngestFault", "ChainedIngestFaults", "TornWrite",
           "DiskFullOnAppend", "CrashMidCompaction",
           "CompactionRacingQueries",
           "OverloadStorm", "TenantFlood", "SlowEmbedUnderLoad"]


class SimulatedCrash(RuntimeError):
    """Stands in for SIGKILL / OOM / power loss in tests."""


class FaultInjector:
    """Hook points the trainer calls; the no-op base injects nothing.

    Subclasses override any subset. ``step`` is the 0-based *global*
    batch counter (monotone across epochs); ``epoch`` is 0-based.
    """

    def on_gradients(self, step: int, params: list) -> None:
        """Called after backward, before the health check (may mutate
        ``param.grad`` in place)."""

    def on_step_end(self, step: int, params: list) -> None:
        """Called after the optimizer step (may mutate ``param.data``)."""

    def on_epoch_end(self, epoch: int) -> None:
        """Called after an epoch's stats (and checkpoint, if any) are
        written; may raise :class:`SimulatedCrash`."""


class ChainedFaults(FaultInjector):
    """Compose several injectors; each hook runs them in order."""

    def __init__(self, injectors: Iterable[FaultInjector]):
        self.injectors = list(injectors)

    def on_gradients(self, step: int, params: list) -> None:
        for injector in self.injectors:
            injector.on_gradients(step, params)

    def on_step_end(self, step: int, params: list) -> None:
        for injector in self.injectors:
            injector.on_step_end(step, params)

    def on_epoch_end(self, epoch: int) -> None:
        for injector in self.injectors:
            injector.on_epoch_end(epoch)


class NaNGradientFault(FaultInjector):
    """Overwrite one parameter's gradient with NaN at given steps."""

    def __init__(self, steps: Iterable[int], param_index: int = 0,
                 value: float = float("nan")):
        self.steps = set(int(s) for s in steps)
        self.param_index = param_index
        self.value = value
        self.fired: list[int] = []

    def on_gradients(self, step: int, params: list) -> None:
        if step not in self.steps:
            return
        param = params[self.param_index % len(params)]
        if param.grad is None:
            param.grad = np.zeros_like(param.data)
        param.grad.fill(self.value)
        self.fired.append(step)


class ParamCorruptionFault(FaultInjector):
    """Poison a parameter value itself right after a step.

    The health monitor's skip policy cannot repair this — only a
    rollback to the last good checkpoint can, which is exactly the
    path this fault exists to exercise.
    """

    def __init__(self, step: int, param_index: int = 0,
                 value: float = float("nan")):
        self.step = int(step)
        self.param_index = param_index
        self.value = value
        self.fired: list[int] = []

    def on_step_end(self, step: int, params: list) -> None:
        if step != self.step:
            return
        param = params[self.param_index % len(params)]
        param.data.reshape(-1)[0] = self.value
        self.fired.append(step)


class CrashFault(FaultInjector):
    """Kill the process (by exception) at the end of one epoch."""

    def __init__(self, epoch: int):
        self.epoch = int(epoch)

    def on_epoch_end(self, epoch: int) -> None:
        if epoch == self.epoch:
            raise SimulatedCrash(f"simulated kill after epoch {epoch}")


# ----------------------------------------------------------------------
# Serving-side faults
# ----------------------------------------------------------------------
class ServingFault:
    """Hook points the resilient search service calls per request.

    ``request_id`` is the service's monotone request counter, so a
    scripted schedule pins faults to exact requests.  The embed hooks
    fire once per *attempt*, which lets one request exhaust a whole
    retry budget against a persistent fault.  The no-op base injects
    nothing.
    """

    def on_embed_start(self, request_id: int) -> None:
        """Called before each embed attempt (may sleep or raise)."""

    def on_embed_result(self, request_id: int,
                        vector: np.ndarray) -> np.ndarray:
        """Called with each embed attempt's output; the return value
        replaces it (poison it here)."""
        return vector

    def on_index_start(self, request_id: int, cluster) -> None:
        """Called before the index fan-out with the generation's
        :class:`~repro.serving.cluster.IndexCluster` for the queried
        index (may mutate its shards in place, or trigger out-of-band
        actions such as a hot-swap)."""


class ChainedServingFaults(ServingFault):
    """Compose several serving faults; each hook runs them in order."""

    def __init__(self, faults: Iterable[ServingFault]):
        self.faults = list(faults)

    def on_embed_start(self, request_id: int) -> None:
        for fault in self.faults:
            fault.on_embed_start(request_id)

    def on_embed_result(self, request_id: int,
                        vector: np.ndarray) -> np.ndarray:
        for fault in self.faults:
            vector = fault.on_embed_result(request_id, vector)
        return vector

    def on_index_start(self, request_id: int, cluster) -> None:
        for fault in self.faults:
            fault.on_index_start(request_id, cluster)


class SlowEmbedFault(ServingFault):
    """Stall the embed stage of chosen requests by ``delay`` seconds.

    ``sleep`` is the same injectable the service uses (a fake clock's
    ``sleep`` under test), so the stall consumes deadline budget
    without any real waiting.
    """

    def __init__(self, requests: Iterable[int], delay: float,
                 sleep: Callable[[float], None]):
        self.requests = {int(r) for r in requests}
        self.delay = float(delay)
        self.sleep = sleep
        self.fired: list[int] = []

    def on_embed_start(self, request_id: int) -> None:
        if request_id in self.requests:
            self.sleep(self.delay)
            self.fired.append(request_id)


class NaNEmbedFault(ServingFault):
    """Poison the embed output of chosen requests with NaNs.

    Fires on every attempt of a targeted request, so retries cannot
    save it — the request must fall through to the breaker/degraded
    path.
    """

    def __init__(self, requests: Iterable[int]):
        self.requests = {int(r) for r in requests}
        self.fired: list[int] = []

    def on_embed_result(self, request_id: int,
                        vector: np.ndarray) -> np.ndarray:
        if request_id not in self.requests:
            return vector
        self.fired.append(request_id)
        return np.full_like(np.asarray(vector, dtype=np.float64),
                            np.nan)


class IndexCorruptionFault(ServingFault):
    """Overwrite a live cluster's sealed embeddings with NaN, in place.

    The damage is persistent — exactly what a bad memory page or a
    botched refresh looks like — so recovery requires a hot-swap, not
    a retry.  Each distinct sealed shard index is filled once, which
    takes down every replica: they share it.  A one-shard cluster
    shares its rows with the engine's index, so that is filled too.
    """

    def __init__(self, requests: Iterable[int]):
        self.requests = {int(r) for r in requests}
        self.fired: list[int] = []

    def on_index_start(self, request_id: int, cluster) -> None:
        if request_id in self.requests:
            for sealed in {rep.index for shard in cluster.shards
                           for rep in shard.replicas}:
                sealed.embeddings.fill(np.nan)
            self.fired.append(request_id)


class SwapMidQueryFault(ServingFault):
    """Run ``trigger`` (typically a corpus hot-swap) between one
    request's embed and index stages — the worst possible moment.

    The service must still answer that request entirely from the
    generation it snapshotted at admission.
    """

    def __init__(self, request: int, trigger: Callable[[], None]):
        self.request = int(request)
        self.trigger = trigger
        self.fired = False

    def on_index_start(self, request_id: int, cluster) -> None:
        if request_id == self.request and not self.fired:
            self.fired = True
            self.trigger()


# ----------------------------------------------------------------------
# Cluster-side faults
# ----------------------------------------------------------------------
class ClusterFault:
    """Hook points an :class:`~repro.serving.cluster.IndexCluster`
    calls per fan-out.

    ``query_id`` is the cluster's monotone query counter, so fault
    schedules pin to exact queries.  ``on_cluster_query`` fires once
    per fan-out, after the caller's arguments validate (a caller error
    is no query and fires nothing) and before shard dispatch, with the
    cluster itself (kill replicas, trip breakers, rewire topology);
    ``on_replica_query`` fires on each replica *attempt* — including
    failover attempts — and may sleep or raise.  The no-op base
    injects nothing.
    """

    def on_cluster_query(self, query_id: int, cluster) -> None:
        """Called at the start of each fan-out."""

    def on_replica_query(self, query_id: int, shard_id: int,
                         replica_id: int) -> None:
        """Called before each replica attempt (may sleep or raise)."""


class ChainedClusterFaults(ClusterFault):
    """Compose several cluster faults; each hook runs them in order."""

    def __init__(self, faults: Iterable[ClusterFault]):
        self.faults = list(faults)

    def on_cluster_query(self, query_id: int, cluster) -> None:
        for fault in self.faults:
            fault.on_cluster_query(query_id, cluster)

    def on_replica_query(self, query_id: int, shard_id: int,
                         replica_id: int) -> None:
        for fault in self.faults:
            fault.on_replica_query(query_id, shard_id, replica_id)


class ReplicaCrash(ClusterFault):
    """Kill chosen replicas at chosen queries.

    ``schedule`` maps a query id to the ``(shard_id, replica_id)``
    pairs whose processes die just as that fan-out begins.  The damage
    persists until anti-entropy rebuilds the replica from a live
    sibling — exactly a worker OOM-kill mid-traffic.
    """

    def __init__(self, schedule: dict):
        self.schedule = {int(q): [(int(s), int(r)) for s, r in pairs]
                         for q, pairs in schedule.items()}
        self.fired: list[tuple[int, int, int]] = []

    def on_cluster_query(self, query_id: int, cluster) -> None:
        for shard_id, replica_id in self.schedule.get(query_id, ()):
            cluster.crash_replica(shard_id, replica_id)
            self.fired.append((query_id, shard_id, replica_id))


class SlowShard(ClusterFault):
    """Stall every replica attempt on one shard by ``delay`` seconds.

    Targets ``shard_id`` on the given query ids.  ``sleep`` is
    injectable; chaos tests that measure wall-clock latency pass
    ``time.sleep``.
    """

    def __init__(self, queries: Iterable[int], shard_id: int,
                 delay: float, sleep: Callable[[float], None]):
        self.queries = {int(q) for q in queries}
        self.shard_id = int(shard_id)
        self.delay = float(delay)
        self.sleep = sleep
        self.fired: list[tuple[int, int, int]] = []

    def on_replica_query(self, query_id: int, shard_id: int,
                         replica_id: int) -> None:
        if query_id not in self.queries or shard_id != self.shard_id:
            return
        self.sleep(self.delay)
        self.fired.append((query_id, shard_id, replica_id))


class ShardLoss(ClusterFault):
    """Lose every replica of one shard at a chosen query.

    With no live sibling left, anti-entropy has no donor: the shard
    stays dark and every later fan-out must degrade to a partial
    result rather than fail.
    """

    def __init__(self, query: int, shard_id: int):
        self.query = int(query)
        self.shard_id = int(shard_id)
        self.fired = False

    def on_cluster_query(self, query_id: int, cluster) -> None:
        if query_id != self.query or self.fired:
            return
        self.fired = True
        for replica in cluster.shards[self.shard_id].replicas:
            cluster.crash_replica(self.shard_id, replica.replica_id)


# ----------------------------------------------------------------------
# Streaming-ingest faults (WAL appends and compaction phases)
# ----------------------------------------------------------------------
class IngestFault:
    """Hooks into the write-ahead log and the compaction protocol.

    ``on_append`` sees the framed wire bytes of record ``record_index``
    (0-based, counted per process lifetime) and returns what actually
    reaches the disk — returning a prefix manufactures a torn write,
    raising :class:`OSError` manufactures a full disk.
    ``after_append`` runs once the bytes are down and may raise
    :class:`SimulatedCrash` to model the process dying before it can
    use the acknowledgement.  ``on_compaction`` fires at each protocol
    phase (``folded`` → ``base_written`` → ``manifest_written`` →
    ``committed``, or ``aborted``).
    """

    def on_append(self, record_index: int, data: bytes) -> bytes:
        return data

    def after_append(self, record_index: int) -> None:
        pass

    def on_compaction(self, phase: str) -> None:
        pass


class ChainedIngestFaults(IngestFault):
    """Compose several ingest faults into one injector."""

    def __init__(self, faults: Iterable[IngestFault]):
        self.faults = list(faults)

    def on_append(self, record_index: int, data: bytes) -> bytes:
        for fault in self.faults:
            data = fault.on_append(record_index, data)
        return data

    def after_append(self, record_index: int) -> None:
        for fault in self.faults:
            fault.after_append(record_index)

    def on_compaction(self, phase: str) -> None:
        for fault in self.faults:
            fault.on_compaction(phase)


class TornWrite(IngestFault):
    """kill -9 halfway through appending one chosen record.

    The record's wire bytes are cut to ``keep_fraction`` (header
    included, so the CRC can never match) and the process then "dies"
    via :class:`SimulatedCrash` — the torn tail stays on disk exactly
    as a real crash would leave it, and the write was never
    acknowledged.
    """

    def __init__(self, record: int, keep_fraction: float = 0.5):
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")
        self.record = int(record)
        self.keep_fraction = float(keep_fraction)
        self.fired: list[int] = []

    def on_append(self, record_index: int, data: bytes) -> bytes:
        if record_index != self.record:
            return data
        kept = max(1, int(len(data) * self.keep_fraction))
        return data[:kept]

    def after_append(self, record_index: int) -> None:
        if record_index == self.record:
            self.fired.append(record_index)
            raise SimulatedCrash(
                f"process died mid-append of record {record_index}")


class DiskFullOnAppend(IngestFault):
    """ENOSPC on chosen appends; the log must roll back cleanly."""

    def __init__(self, records: Iterable[int]):
        self.records = set(int(r) for r in records)
        self.fired: list[int] = []

    def on_append(self, record_index: int, data: bytes) -> bytes:
        if record_index in self.records:
            self.fired.append(record_index)
            raise OSError(28, "No space left on device")
        return data


class CrashMidCompaction(IngestFault):
    """Die at a chosen compaction phase (``folded``, ``base_written``,
    or ``manifest_written``) — recovery must reach the same state as
    if the compaction had never started (before the manifest moved) or
    had fully committed (after)."""

    def __init__(self, phase: str):
        self.phase = str(phase)
        self.fired: list[str] = []

    def on_compaction(self, phase: str) -> None:
        if phase == self.phase and not self.fired:
            self.fired.append(phase)
            raise SimulatedCrash(
                f"process died at compaction phase {phase!r}")


class CompactionRacingQueries(IngestFault):
    """Run a callback at every compaction phase — the chaos suite uses
    it to fire queries at the exact protocol edges and assert each
    effective recipe is observed exactly once throughout the swap."""

    def __init__(self, callback: Callable[[str], None],
                 phases: Iterable[str] | None = None):
        self.callback = callback
        self.phases = None if phases is None else set(phases)
        self.fired: list[str] = []

    def on_compaction(self, phase: str) -> None:
        if self.phases is None or phase in self.phases:
            self.fired.append(phase)
            self.callback(phase)


# ----------------------------------------------------------------------
# Overload shapes (rate shapers for the load generator + one serving
# fault that couples latency to concurrency)
# ----------------------------------------------------------------------
class OverloadStorm:
    """Multiply *every* tenant's offered rate by ``factor`` during the
    window ``[start_s, end_s)``.

    A rate shaper for :class:`~repro.serving.loadgen.LoadGenerator`:
    called as ``shaper(t, tenant)`` with ``t`` seconds since the run
    started, it returns the multiplier to apply at that instant.  A
    10× storm is ``OverloadStorm(10.0, start_s=0.5, end_s=1.5)`` —
    deterministic, so a failing chaos run replays exactly.
    """

    def __init__(self, factor: float, start_s: float = 0.0,
                 end_s: float = float("inf")):
        if factor <= 0:
            raise ValueError("storm factor must be positive")
        if end_s <= start_s:
            raise ValueError("storm window must be non-empty")
        self.factor = float(factor)
        self.start_s = float(start_s)
        self.end_s = float(end_s)

    def __call__(self, t: float, tenant: str | None = None) -> float:
        if self.start_s <= t < self.end_s:
            return self.factor
        return 1.0


class TenantFlood(OverloadStorm):
    """One tenant's offered rate multiplied by ``factor``; everyone
    else is unaffected.

    The fairness scenario: the flooded lane must absorb its own abuse
    (sheds charged to ``tenant``) while well-behaved tenants keep
    their weighted share of admissions.
    """

    def __init__(self, tenant: str, factor: float,
                 start_s: float = 0.0, end_s: float = float("inf")):
        super().__init__(factor, start_s, end_s)
        self.tenant = str(tenant)

    def __call__(self, t: float, tenant: str | None = None) -> float:
        if tenant != self.tenant:
            return 1.0
        return super().__call__(t, tenant)


class SlowEmbedUnderLoad(ServingFault):
    """Embed latency that grows linearly with concurrent requests.

    This is the congestion-collapse feedback loop: more inflight work
    → slower embeds → requests hold their slots longer → more queued
    work.  A static admission limit happily drives the service into
    the regime where *every* request times out; the adaptive limiter
    must find the concurrency knee instead.  ``inflight_fn`` reads the
    live inflight count (``service.admission.inflight`` wired by the
    chaos suite); ``sleep`` is injectable for fake-clock tests.
    """

    def __init__(self, inflight_fn: Callable[[], int],
                 delay_per_inflight_s: float = 0.02,
                 sleep: Callable[[float], None] | None = None):
        if delay_per_inflight_s < 0:
            raise ValueError("delay_per_inflight_s must be >= 0")
        self.inflight_fn = inflight_fn
        self.delay_per_inflight_s = float(delay_per_inflight_s)
        self.sleep = time.sleep if sleep is None else sleep
        self.fired: list[tuple[int, int]] = []

    def on_embed_start(self, request_id: int) -> None:
        inflight = max(0, int(self.inflight_fn()))
        delay = inflight * self.delay_per_inflight_s
        if delay > 0:
            self.sleep(delay)
        self.fired.append((request_id, inflight))


# ----------------------------------------------------------------------
# On-disk damage
# ----------------------------------------------------------------------
def truncate_file(path, keep_fraction: float = 0.5) -> int:
    """Truncate ``path`` as an interrupted writer would; returns the
    resulting size in bytes."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = pathlib.Path(path)
    size = path.stat().st_size
    kept = int(size * keep_fraction)
    with open(path, "rb+") as handle:
        handle.truncate(kept)
        handle.flush()
        os.fsync(handle.fileno())
    return kept


def corrupt_file(path, offset: int = 0, length: int = 64,
                 value: int = 0xFF) -> None:
    """Overwrite a byte range in place (bit-rot / bad-sector stand-in)."""
    path = pathlib.Path(path)
    size = path.stat().st_size
    offset = min(max(offset, 0), max(size - 1, 0))
    with open(path, "rb+") as handle:
        handle.seek(offset)
        handle.write(bytes([value]) * min(length, size - offset))
