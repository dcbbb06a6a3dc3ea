"""Streaming-ingest chaos suite (``-m ingest`` runs all of it).

Every fake-clock case carries ``fakeclock`` and also runs in tier-1;
only ``test_real_racing_thread`` (a real reader thread) stays opt-in.

Three storylines from the durability contract, driven end-to-end
through :class:`ResilientSearchService`:

(a) **kill -9 mid-append** — a torn tail must be truncated, never
    propagated, and every *acknowledged* write must survive recovery;
    ENOSPC on an append must come back as a structured ``error``
    outcome with the log rolled back byte-exactly.
(b) **crash mid-compaction** — dying at any protocol phase recovers to
    a state bitwise-identical to a crash-free twin: before the
    manifest moves, as if compaction never started; after, as if it
    fully committed.  No loss, no double-apply, no orphaned snapshots.
(c) **queries racing the swap** — a query stream observes every live
    recipe exactly once at every compaction phase edge, from a real
    racing thread, and in sharded-cluster mode bitwise-identical to a
    monolithic twin.
"""

import threading

import numpy as np
import pytest

from repro.robustness import (CompactionRacingQueries, CrashMidCompaction,
                              DiskFullOnAppend, SimulatedCrash, TornWrite)
from repro.serving import (ClusterConfig, ResilientSearchService,
                           ServiceConfig)
from repro.serving.ingest import IngestConfig

from ._serving_util import FakeClock, make_engine, make_world

pytestmark = pytest.mark.ingest


@pytest.fixture(scope="module")
def world():
    return make_world(num_pairs=80, num_classes=4, seed=7)


def make_service(world, log_dir, *, faults=None, cluster=None,
                 compact_at=10_000, fsync_every=1):
    dataset, featurizer = world
    clock = FakeClock()
    return ResilientSearchService(
        make_engine(dataset, featurizer),
        ServiceConfig(cluster=cluster),
        clock=clock, sleep=clock.sleep,
        ingest_log=log_dir,
        ingest_config=IngestConfig(fsync_every=fsync_every,
                                   compact_at_delta_rows=compact_at),
        ingest_faults=faults)


def train_recipes(world, count):
    dataset, _ = world
    return list(dataset.split("train"))[:count]


def live_ids(service) -> set[int]:
    return set(service.ingestor.overlays["recipe"]._key_of)


def full_scan(service, recipe, k=500):
    """One search wide enough to return the entire live corpus."""
    response = service.search_by_recipe(recipe, k=k)
    assert response.outcome.status == "ok", response.outcome.error
    return response


def assert_exactly_once(service, recipe, expected: set[int]):
    response = full_scan(service, recipe)
    seen = [r.corpus_row for r in response.results]
    assert len(seen) == len(set(seen)), "a recipe was observed twice"
    assert set(seen) == expected, \
        "a live recipe was lost (or a dead one resurrected)"


def search_fingerprint(service, probes, k=10):
    """Bitwise-comparable view of several searches."""
    out = []
    for recipe in probes:
        response = service.search_by_recipe(recipe, k=k)
        assert response.outcome.status == "ok", response.outcome.error
        out.append((tuple(r.corpus_row for r in response.results),
                    np.array([r.distance for r in
                              response.results]).tobytes()))
    return out


# ----------------------------------------------------------------------
# (a) kill -9 mid-append
# ----------------------------------------------------------------------
@pytest.mark.fakeclock
class TestTornAppend:
    def test_acked_writes_survive_torn_tail(self, world, tmp_path):
        log_dir = tmp_path / "wal"
        service = make_service(world, log_dir,
                               faults=TornWrite(record=3))
        recipes = train_recipes(world, 5)
        acked = []
        for recipe in recipes[:3]:
            outcome = service.ingest(recipe)
            assert outcome.status == "ok" and outcome.durable
            acked.append(outcome.item_id)

        with pytest.raises(SimulatedCrash):
            service.ingest(recipes[3])  # record 3 tears mid-write

        # "reboot": a fresh process over the same log directory.
        revived = make_service(world, log_dir)
        recovery = revived.ingestor.recovery
        assert recovery["truncated_bytes"] > 0
        assert recovery["truncated_segment"] == 0
        assert recovery["replayed_records"] == 3
        overlay = revived.ingestor.overlays["recipe"]
        for item_id in acked:
            assert overlay.is_live(item_id)
        # the torn, unacknowledged write is gone — not half-applied
        assert not overlay.is_live(acked[-1] + 1)
        # ...and each streamed recipe is servable end to end (the stub
        # embedder can tie with a base recipe, so assert membership,
        # not rank)
        for recipe, item_id in zip(recipes[:3], acked):
            response = full_scan(revived, recipe, k=5)
            rows = [r.corpus_row for r in response.results]
            assert item_id in rows
            hit = response.results[rows.index(item_id)]
            assert hit.recipe.title == recipe.title
            assert hit.distance == pytest.approx(0.0, abs=1e-9)
        # the log healed: the next write lands cleanly after the
        # repair point and reuses the torn record's id
        outcome = revived.ingest(recipes[3])
        assert outcome.status == "ok"
        assert outcome.item_id == acked[-1] + 1
        counters = revived.stats()["ingest"]
        assert counters["recovery"]["truncated_bytes"] > 0

    def test_disk_full_is_an_outcome_not_an_exception(self, world,
                                                      tmp_path):
        fault = DiskFullOnAppend(records={2})
        service = make_service(world, tmp_path / "wal", faults=fault)
        recipes = train_recipes(world, 4)
        assert service.ingest(recipes[0]).status == "ok"
        assert service.ingest(recipes[1]).status == "ok"

        outcome = service.ingest(recipes[2])  # hits ENOSPC
        assert outcome.status == "error"
        assert "rolled back" in outcome.error
        assert fault.fired == [2]

        # the service keeps serving, and the overlay never saw the op
        before = live_ids(service)
        response = full_scan(service, recipes[0], k=5)
        assert response.outcome.status == "ok"
        assert live_ids(service) == before

        fault.records.clear()  # space freed
        retried = service.ingest(recipes[2])
        assert retried.status == "ok"
        # nothing from the failed attempt leaked into the log: a
        # replayed twin sees exactly the three acknowledged adds
        revived = make_service(world, tmp_path / "wal")
        assert revived.ingestor.recovery["replayed_records"] == 3
        assert revived.ingestor.recovery["truncated_bytes"] == 0
        assert live_ids(revived) == live_ids(service)

    def test_batched_fsync_acknowledges_before_sync(self, world,
                                                    tmp_path):
        service = make_service(world, tmp_path / "wal", fsync_every=4)
        recipes = train_recipes(world, 4)
        first = service.ingest(recipes[0])
        assert first.status == "ok" and not first.durable
        for recipe in recipes[1:3]:
            assert not service.ingest(recipe).durable
        fourth = service.ingest(recipes[3])  # batch boundary syncs
        assert fourth.durable
        assert service.ingestor.log.synced


# ----------------------------------------------------------------------
# (b) crash mid-compaction: no loss, no double-apply
# ----------------------------------------------------------------------
def _mutate(service, world):
    """One fixed mutation script: adds, deletes, and a base delete."""
    recipes = train_recipes(world, 6)
    acked = [service.ingest(recipe) for recipe in recipes]
    assert all(o.status == "ok" for o in acked)
    assert service.delete(acked[1].item_id).status == "ok"
    assert service.delete(0).status == "ok"  # a frozen-base item
    return recipes


@pytest.mark.fakeclock
class TestCrashMidCompaction:
    @pytest.mark.parametrize("phase", ["folded", "base_written",
                                       "manifest_written"])
    def test_recovery_matches_crash_free_twin(self, world, tmp_path,
                                              phase):
        committed = phase == "manifest_written"
        crash_dir = tmp_path / "crash"
        control_dir = tmp_path / "control"

        service = make_service(world, crash_dir,
                               faults=CrashMidCompaction(phase))
        probes = _mutate(service, world)
        with pytest.raises(SimulatedCrash):
            service.compact_ingest()

        control = make_service(world, control_dir)
        _mutate(control, world)
        if committed:
            # the manifest moved before the crash: the compaction IS
            # committed, so the twin is one that compacted cleanly
            assert control.compact_ingest().ok

        revived = make_service(world, crash_dir)
        assert revived.ingestor.epoch == (1 if committed else 0)
        expected_base = ("base-000001.npz" if committed else "external")
        assert revived.ingestor.recovery["base"] == expected_base
        assert live_ids(revived) == live_ids(control)
        # bitwise-identical serving state: same ids, same distance
        # bytes, same tie order on every probe
        assert (search_fingerprint(revived, probes)
                == search_fingerprint(control, probes))
        # no loss, no double-apply across the whole live corpus
        assert_exactly_once(revived, probes[0], live_ids(control))
        # no orphaned snapshot files from the interrupted attempt
        stray = sorted(p.name for p in crash_dir.glob("base-*"))
        assert stray == (["base-000001.npz"] if committed else [])

    @pytest.mark.parametrize("phase", ["folded", "base_written",
                                       "manifest_written"])
    def test_revived_service_can_compact_again(self, world, tmp_path,
                                               phase):
        log_dir = tmp_path / "wal"
        service = make_service(world, log_dir,
                               faults=CrashMidCompaction(phase))
        probes = _mutate(service, world)
        before_ids = live_ids(service)
        with pytest.raises(SimulatedCrash):
            service.compact_ingest()

        revived = make_service(world, log_dir)
        fingerprint = search_fingerprint(revived, probes)
        report = revived.compact_ingest()
        assert report.ok and not report.rolled_back
        assert live_ids(revived) == before_ids
        assert search_fingerprint(revived, probes) == fingerprint
        assert revived.ingestor.log.lag_records == 0


# ----------------------------------------------------------------------
# (c) queries racing the compaction swap
# ----------------------------------------------------------------------
class TestRacingQueries:
    @pytest.mark.fakeclock
    def test_exactly_once_at_every_phase_edge(self, world, tmp_path):
        holder = {}
        observed = []

        def probe(phase):
            service = holder["service"]
            observed.append(phase)
            assert_exactly_once(service, holder["probe"],
                                holder["expected"])

        service = make_service(
            world, tmp_path / "wal",
            faults=CompactionRacingQueries(probe))
        probes = _mutate(service, world)
        holder.update(service=service, probe=probes[0],
                      expected=live_ids(service))

        report = service.compact_ingest()
        assert report.ok
        assert observed == ["folded", "base_written",
                            "manifest_written", "committed"]
        # and still exactly-once after the swap settled
        assert_exactly_once(service, probes[0], holder["expected"])
        assert service.ingestor.epoch == 1

    def test_real_racing_thread(self, world, tmp_path):
        service = make_service(world, tmp_path / "wal")
        recipes = train_recipes(world, 12)
        for recipe in recipes[:4]:
            assert service.ingest(recipe).status == "ok"
        query = recipes[0]
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    response = full_scan(service, query)
                    seen = [r.corpus_row for r in response.results]
                    if len(seen) != len(set(seen)):
                        failures.append(f"duplicate rows: {seen}")
                except Exception as exc:  # pragma: no cover
                    failures.append(f"{type(exc).__name__}: {exc}")

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            for cycle in range(3):
                for recipe in recipes[4 + cycle * 2:6 + cycle * 2]:
                    assert service.ingest(recipe).status == "ok"
                report = service.compact_ingest()
                assert report.ok, report.failures
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not failures, failures[:3]
        assert service.ingestor.epoch == 3

    @pytest.mark.fakeclock
    def test_cluster_mode_matches_monolithic_twin(self, world,
                                                  tmp_path):
        mono = make_service(world, tmp_path / "mono")
        clustered = make_service(
            world, tmp_path / "clustered",
            cluster=ClusterConfig(num_shards=3, replication=2))
        assert clustered._active.image_cluster is not None
        probes = _mutate(mono, world)
        _mutate(clustered, world)

        assert live_ids(mono) == live_ids(clustered)
        assert (search_fingerprint(mono, probes)
                == search_fingerprint(clustered, probes))

        assert mono.compact_ingest().ok
        assert clustered.compact_ingest().ok
        assert (search_fingerprint(mono, probes)
                == search_fingerprint(clustered, probes))

        # streamed writes after the fold keep the twins in lockstep
        extra = train_recipes(world, 8)[6:]
        for recipe in extra:
            a, b = mono.ingest(recipe), clustered.ingest(recipe)
            assert a.status == b.status == "ok"
            assert a.item_id == b.item_id
        deleted = live_ids(mono) - {0}
        victim = sorted(deleted)[-1]
        assert mono.delete(victim).status == "ok"
        assert clustered.delete(victim).status == "ok"
        assert (search_fingerprint(mono, probes)
                == search_fingerprint(clustered, probes))
        assert_exactly_once(clustered, probes[0], live_ids(mono))
