"""Streaming-ingest tier-1 tests.

Covers the WAL (framing, batched fsync, rotation/checkpoint GC,
torn-tail truncation vs sealed-segment corruption, rollback on failed
appends), the op codec's bitwise round trip, the delta overlay's
add/delete/upsert semantics, the index append/mask satellites, the
ingestor's crash recovery and compaction protocol, cluster delta
mirroring — and the hypothesis property pinning the overlay's
base ∪ delta merge bitwise-identical to a monolithic rebuild.

The kill -9 / crash-mid-compaction / racing-query chaos schedules
live in ``test_ingest_chaos.py`` behind the ``ingest`` marker.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval.distance import normalize_rows
from repro.retrieval.index import NearestNeighborIndex
from repro.robustness import DiskFullOnAppend
from repro.serving import (ClusterConfig, DeltaLog, DeltaOverlay,
                           IndexCluster, IngestConfig, IngestError,
                           Ingestor, WalCorruption, WalWriteError)
from repro.serving.ingest import IngestOp, decode_op, encode_op, scan_log
from repro.serving.wal import encode_record, read_manifest

RNG = lambda seed=0: np.random.default_rng(seed)


def _unit_rows(rng, n, dim):
    return normalize_rows(rng.normal(size=(n, dim)))


def _base_index(n=10, dim=6, seed=0, classes=True) -> NearestNeighborIndex:
    rng = RNG(seed)
    return NearestNeighborIndex(
        rng.normal(size=(n, dim)), ids=np.arange(n),
        class_ids=rng.integers(0, 3, n) if classes else None)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestDeltaLog:
    def test_append_replay_roundtrip(self, tmp_path):
        log = DeltaLog(tmp_path)
        payloads = [b"alpha", b"", b"\x00" * 100, b"tail"]
        positions = [log.append(p) for p in payloads]
        assert [p.record for p in positions] == [0, 1, 2, 3]
        assert positions[0].offset == 0
        assert positions[1].offset == len(encode_record(b"alpha"))
        assert list(log.replay()) == payloads
        log.close()
        reopened = DeltaLog(tmp_path)
        assert list(reopened.replay()) == payloads
        assert reopened.recovery.records == len(payloads)
        assert reopened.recovery.truncated_bytes == 0
        reopened.close()

    def test_batched_fsync_policy(self, tmp_path):
        log = DeltaLog(tmp_path, fsync_every=3)
        log.append(b"one")
        log.append(b"two")
        assert not log.synced
        assert log.syncs == 0
        log.append(b"three")  # third append flushes the batch
        assert log.synced
        assert log.syncs == 1
        log.append(b"four", sync=True)  # explicit override
        assert log.synced
        log.close()

    def test_fsync_every_validates(self, tmp_path):
        with pytest.raises(ValueError):
            DeltaLog(tmp_path, fsync_every=0)

    def test_rotate_and_checkpoint_gc(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.append(b"old-1")
        log.append(b"old-2")
        assert log.rotate() == 1
        log.append(b"new-1")
        log.checkpoint({"epoch": 1}, segment=1)
        assert not (tmp_path / "wal-000000.log").exists()
        assert list(log.replay()) == [b"new-1"]
        assert log.lag_records == 1
        assert read_manifest(tmp_path)["segment"] == 1
        log.close()
        reopened = DeltaLog(tmp_path)
        assert list(reopened.replay()) == [b"new-1"]
        assert reopened.manifest["meta"] == {"epoch": 1}
        reopened.close()

    def test_torn_tail_truncated_on_final_segment(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.append(b"kept-1")
        log.append(b"kept-2")
        log.close()
        path = tmp_path / "wal-000000.log"
        clean_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(encode_record(b"torn-record")[:-4])
        reopened = DeltaLog(tmp_path)
        assert list(reopened.replay()) == [b"kept-1", b"kept-2"]
        assert reopened.recovery.truncated_segment == 0
        assert reopened.recovery.truncated_bytes > 0
        assert path.stat().st_size == clean_size
        # the log is clean again: appends land after the repair point
        reopened.append(b"after")
        assert list(reopened.replay()) == [b"kept-1", b"kept-2", b"after"]
        reopened.close()

    def test_crc_damage_on_tail_is_truncated(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.append(b"kept")
        position = log.append(b"flipped")
        log.close()
        path = tmp_path / "wal-000000.log"
        data = bytearray(path.read_bytes())
        data[position.offset + 8] ^= 0xFF  # first payload byte
        path.write_bytes(bytes(data))
        reopened = DeltaLog(tmp_path)
        assert list(reopened.replay()) == [b"kept"]
        assert reopened.recovery.truncated_bytes > 0
        reopened.close()

    def test_sealed_segment_damage_raises(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.append(b"sealed-record")
        log.rotate()
        log.append(b"live-record")
        log.close()
        path = tmp_path / "wal-000000.log"
        data = bytearray(path.read_bytes())
        data[8] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruption, match="sealed segment"):
            DeltaLog(tmp_path)

    def test_segment_hole_raises(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.rotate()
        log.rotate()
        log.close()
        (tmp_path / "wal-000001.log").unlink()
        with pytest.raises(WalCorruption, match="holes"):
            DeltaLog(tmp_path)

    def test_failed_append_rolls_back(self, tmp_path):
        fault = DiskFullOnAppend(records={1})
        log = DeltaLog(tmp_path, fault=fault)
        log.append(b"first")
        size_before = (tmp_path / "wal-000000.log").stat().st_size
        with pytest.raises(WalWriteError, match="rolled back"):
            log.append(b"lost-to-enospc")
        assert fault.fired == [1]
        # no residue: the segment is byte-identical to before the fault
        assert (tmp_path / "wal-000000.log").stat().st_size == size_before
        fault.records.clear()  # "disk" has space again
        log.append(b"second")
        assert list(log.replay()) == [b"first", b"second"]
        log.close()


# ----------------------------------------------------------------------
# Op codec
# ----------------------------------------------------------------------
class TestOpCodec:
    def test_add_roundtrip_is_bitwise(self):
        rng = RNG(3)
        vectors = {"image": _unit_rows(rng, 1, 8)[0],
                   "recipe": _unit_rows(rng, 1, 8)[0]}
        payload = {"title": "pan seared tofu", "ingredients": ["tofu"]}
        op = IngestOp("add", 41, 2, vectors, payload)
        decoded = decode_op(encode_op(op))
        assert decoded.kind == "add"
        assert decoded.item_id == 41
        assert decoded.class_id == 2
        assert sorted(decoded.vectors) == ["image", "recipe"]
        for name in vectors:
            assert decoded.vectors[name].dtype == np.float64
            assert (decoded.vectors[name].tobytes()
                    == vectors[name].tobytes())
        assert decoded.payload == payload

    def test_add_without_payload(self):
        op = IngestOp("add", 7, -1, {"vec": np.zeros(4)}, None)
        assert decode_op(encode_op(op)).payload is None

    def test_delete_roundtrip(self):
        decoded = decode_op(encode_op(IngestOp("delete", 99)))
        assert decoded.kind == "delete"
        assert decoded.item_id == 99
        assert decoded.vectors is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(IngestError, match="unknown op kind"):
            encode_op(IngestOp("upsert", 1))

    def test_add_requires_vectors(self):
        with pytest.raises(IngestError, match="no vectors"):
            encode_op(IngestOp("add", 1))


# ----------------------------------------------------------------------
# Index satellites: verbatim append / masked queries
# ----------------------------------------------------------------------
class TestIndexSatellites:
    def test_append_rows_is_verbatim(self):
        base = _base_index(n=8, dim=5, seed=1)
        extra = _unit_rows(RNG(2), 3, 5)
        grown = base.append_rows(extra, np.array([20, 21, 22]),
                                 np.array([0, 1, 2]))
        assert len(grown) == 11
        assert grown.embeddings[:8].tobytes() == base.embeddings.tobytes()
        assert grown.embeddings[8:].tobytes() == extra.tobytes()
        assert list(grown.ids[8:]) == [20, 21, 22]
        # the original is untouched
        assert len(base) == 8

    def test_append_rows_validates_shapes(self):
        base = _base_index(n=4, dim=5, seed=1)
        with pytest.raises(ValueError):
            base.append_rows(_unit_rows(RNG(0), 2, 7),
                             np.array([10, 11]), np.array([0, 0]))
        with pytest.raises(ValueError):
            base.append_rows(_unit_rows(RNG(0), 2, 5),
                             np.array([10]), np.array([0]))

    def test_append_rows_class_discipline(self):
        with_classes = _base_index(n=4, dim=5, seed=1, classes=True)
        without = _base_index(n=4, dim=5, seed=1, classes=False)
        rows = _unit_rows(RNG(0), 1, 5)
        with pytest.raises(ValueError):
            with_classes.append_rows(rows, np.array([10]))  # missing
        with pytest.raises(ValueError):
            without.append_rows(rows, np.array([10]),
                                np.array([2]))  # spurious

    def test_from_normalized_adopts_verbatim(self):
        rows = _unit_rows(RNG(5), 6, 4)
        index = NearestNeighborIndex.from_normalized(
            rows, np.arange(6), np.zeros(6, dtype=np.int64))
        assert index.embeddings.tobytes() == rows.tobytes()

    def test_masked_query_excludes_rows(self):
        base = _base_index(n=10, dim=6, seed=4)
        query = RNG(9).normal(size=6)
        ids, _ = base.query(query, k=3)
        mask = np.ones(10, dtype=bool)
        mask[int(ids[0])] = False  # ids are positions 0..9 here
        masked_ids, _ = base.query(query, k=3, mask=mask)
        assert int(ids[0]) not in [int(i) for i in masked_ids]

    def test_mask_length_validated(self):
        base = _base_index(n=10, dim=6, seed=4)
        with pytest.raises(ValueError):
            base.query(np.zeros(6), k=2, mask=np.ones(9, dtype=bool))

    def test_query_positions_aligns_with_query(self):
        base = _base_index(n=10, dim=6, seed=4)
        query = RNG(10).normal(size=6)
        positions, distances = base.query_positions(query, k=4)
        ids, distances2 = base.query(query, k=4)
        assert np.array_equal(base.ids[positions], ids)
        assert distances.tobytes() == distances2.tobytes()


# ----------------------------------------------------------------------
# Delta overlay
# ----------------------------------------------------------------------
class TestDeltaOverlay:
    def test_add_delete_upsert_bookkeeping(self):
        overlay = DeltaOverlay(_base_index(n=6, dim=4, seed=2))
        row = _unit_rows(RNG(1), 3, 4)
        assert overlay.live_count == 6
        assert overlay.add(100, row[0], 1) is None
        assert overlay.live_count == 7
        assert overlay.delta_rows == 1
        assert overlay.is_live(100)
        assert overlay.key_for(100) == 6
        # upsert moves the item to a fresh slot, tombstoning the old
        assert overlay.add(100, row[1], 2) == 6
        assert overlay.key_for(100) == 7
        assert overlay.delta_rows == 1
        assert overlay.tombstones == 1
        # delete a base row, then the upserted item
        assert overlay.delete(3) == 3
        assert overlay.delete(100) == 7
        assert not overlay.is_live(100)
        assert overlay.live_count == 5
        assert overlay.tombstones == 3
        with pytest.raises(KeyError, match="not live"):
            overlay.delete(100)

    def test_upsert_of_base_item(self):
        base = _base_index(n=6, dim=4, seed=2)
        overlay = DeltaOverlay(base)
        row = _unit_rows(RNG(2), 1, 4)[0]
        assert overlay.add(2, row, 0) == 2  # base position tombstoned
        assert overlay.key_for(2) == 6
        assert overlay.live_count == 6
        assert overlay.dead_base_items() == [(2, 2)]

    def test_duplicate_base_ids_rejected(self):
        rows = RNG(0).normal(size=(4, 3))
        index = NearestNeighborIndex(rows, ids=np.array([1, 1, 2, 3]))
        with pytest.raises(IngestError, match="unique"):
            DeltaOverlay(index)

    def test_query_finds_added_row_first(self):
        overlay = DeltaOverlay(_base_index(n=20, dim=8, seed=3))
        row = _unit_rows(RNG(4), 1, 8)[0]
        overlay.add(500, row, 1)
        ids, distances = overlay.query(row, k=3)
        assert int(ids[0]) == 500
        assert distances[0] == pytest.approx(0.0, abs=1e-12)

    def test_class_filter_covers_both_sides(self):
        base = _base_index(n=12, dim=6, seed=5)
        overlay = DeltaOverlay(base)
        row = _unit_rows(RNG(6), 1, 6)[0]
        overlay.add(300, row, 2)
        ids, _ = overlay.query(row, k=50, class_id=2)
        members = set(int(i) for i in ids)
        expected = set(
            int(base.ids[p])
            for p in np.flatnonzero(base.class_ids == 2)) | {300}
        assert members == expected

    def test_grow_preserves_rows(self):
        overlay = DeltaOverlay(_base_index(n=4, dim=4, seed=6))
        rows = _unit_rows(RNG(7), 40, 4)  # force several _grow cycles
        for i in range(40):
            overlay.add(100 + i, rows[i], 0)
        assert overlay.delta_rows == 40
        for i in range(40):
            key = overlay.key_for(100 + i)
            assert overlay.row_for_key(key).tobytes() == rows[i].tobytes()

    def test_fold_is_verbatim(self):
        base = _base_index(n=8, dim=5, seed=7)
        overlay = DeltaOverlay(base)
        rows = _unit_rows(RNG(8), 2, 5)
        overlay.add(50, rows[0], 1)
        overlay.add(51, rows[1], 2)
        overlay.delete(0)
        overlay.delete(51)
        folded = overlay.fold()
        survivors = np.arange(1, 8)
        assert (folded.embeddings.tobytes()
                == (np.concatenate([base.embeddings[survivors],
                                    rows[:1]])).tobytes())
        assert list(folded.ids) == [*range(1, 8), 50]
        assert list(folded.class_ids[-1:]) == [1]

    def test_delta_entries_enumerates_live_slots(self):
        overlay = DeltaOverlay(_base_index(n=4, dim=4, seed=9))
        rows = _unit_rows(RNG(9), 2, 4)
        overlay.add(70, rows[0], 1)
        overlay.add(71, rows[1], 2)
        overlay.delete(70)
        entries = list(overlay.delta_entries())
        assert len(entries) == 1
        item_id, row, class_id, key = entries[0]
        assert (item_id, class_id, key) == (71, 2, 5)
        assert row.tobytes() == rows[1].tobytes()


# ----------------------------------------------------------------------
# Property: overlay merge == monolithic rebuild, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_ops=st.integers(0, 40),
       class_query=st.booleans(), shards=st.integers(1, 4),
       replicas=st.integers(1, 2))
def test_overlay_matches_monolithic_rebuild(seed, num_ops, class_query,
                                            shards, replicas):
    """Arbitrary add/delete/upsert interleavings: the overlay's merged
    top-k and its fold are bitwise identical to an index rebuilt from
    the effective corpus (live base rows in order, then live delta
    rows in slot order).  So is a cluster that mirrors every op
    through ``apply_add``/``apply_delete`` as the service does, and
    one booted by replaying the overlay (gaps included).  Some adds
    copy a live row, so distance ties straddle sealed and streamed
    rows."""
    rng = RNG(seed)
    dim = 12
    base = NearestNeighborIndex(rng.normal(size=(30, dim)),
                                ids=np.arange(30),
                                class_ids=rng.integers(0, 3, 30))
    overlay = DeltaOverlay(base)
    config = ClusterConfig(num_shards=shards, replication=replicas,
                           parallel=False)
    mirrored = IndexCluster(base, config)
    effective = [(i, base.embeddings[i], int(base.class_ids[i]))
                 for i in range(30)]
    next_id = 30
    for _ in range(num_ops):
        roll = rng.random()
        live = [item for item, _, _ in effective]
        if roll < 0.55 or not live:
            if roll < 0.15 and live:
                item = int(live[rng.integers(len(live))])  # upsert
            else:
                item = next_id
                next_id += 1
            if live and rng.random() < 0.3:      # tie with a live row
                row = effective[rng.integers(len(effective))][1].copy()
            else:
                row = normalize_rows(rng.normal(size=(1, dim)))[0]
            class_id = int(rng.integers(0, 3))
            replaced = overlay.add(item, row, class_id)
            if replaced is not None:
                mirrored.apply_delete(item, replaced)
            mirrored.apply_add(item, row, class_id, overlay.key_for(item))
            effective = [e for e in effective if e[0] != item]
            effective.append((item, row, class_id))
        else:
            item = int(live[rng.integers(len(live))])
            mirrored.apply_delete(item, overlay.delete(item))
            effective = [e for e in effective if e[0] != item]
    booted = IndexCluster(base, config)
    for item, key in overlay.dead_base_items():
        booted.apply_delete(item, key)
    for item, row, class_id, key in overlay.delta_entries():
        booted.apply_add(item, row, class_id, key)

    query = rng.normal(size=dim)
    class_id = int(rng.integers(0, 3)) if class_query else None
    if not effective:
        ids, distances = overlay.query(query, k=5, class_id=class_id)
        assert len(ids) == 0 and len(distances) == 0
        for cluster in (mirrored, booted):
            assert cluster.query(query, k=5, class_id=class_id).ids.size == 0
        return
    mono = NearestNeighborIndex.from_normalized(
        np.array([row for _, row, _ in effective]),
        np.array([item for item, _, _ in effective], dtype=np.int64),
        np.array([c for _, _, c in effective], dtype=np.int64))
    for k in (1, 5, len(effective) + 3):
        o_ids, o_distances = overlay.query(query, k=k, class_id=class_id)
        m_ids, m_distances = mono.query(query, k=k, class_id=class_id)
        assert np.array_equal(o_ids, m_ids)
        assert o_distances.tobytes() == m_distances.tobytes()
        for cluster_class in (None, 0, 1, 2):
            m_ids, m_distances = mono.query(query, k=k,
                                            class_id=cluster_class)
            for cluster in (mirrored, booted):
                result = cluster.query(query, k=k, class_id=cluster_class)
                assert np.array_equal(result.ids, m_ids)
                assert result.distances.tobytes() == m_distances.tobytes()
    folded = overlay.fold()
    assert folded.embeddings.tobytes() == mono.embeddings.tobytes()
    assert np.array_equal(folded.ids, mono.ids)
    assert np.array_equal(folded.class_ids, mono.class_ids)


# ----------------------------------------------------------------------
# Ingestor: durability, recovery, compaction
# ----------------------------------------------------------------------
def _bases(seed=0, n=20, dim=8):
    rng = RNG(seed)
    classes = rng.integers(0, 3, n)
    return {"image": NearestNeighborIndex(rng.normal(size=(n, dim)),
                                          ids=np.arange(n),
                                          class_ids=classes),
            "recipe": NearestNeighborIndex(rng.normal(size=(n, dim)),
                                           ids=np.arange(n),
                                           class_ids=classes)}


def _vectors(rng, dim=8):
    return {"image": rng.normal(size=dim), "recipe": rng.normal(size=dim)}


class TestIngestor:
    def test_ack_shape_and_auto_ids(self, tmp_path):
        ingestor = Ingestor(tmp_path, _bases())
        rng = RNG(1)
        ack = ingestor.add(_vectors(rng), class_id=1,
                           payload={"title": "soup"})
        assert ack.item_id == 20  # 1 + max base id
        assert ack.epoch == 0
        assert ack.durable and not ack.replaced
        assert ack.key == 20
        again = ingestor.add(_vectors(rng), item_id=20, class_id=2)
        assert again.replaced and again.replaced_key == 20
        assert ingestor.next_id == 21
        assert ingestor.payloads == {}  # upsert without payload pops it
        ingestor.close()

    def test_validation_errors(self, tmp_path):
        ingestor = Ingestor(tmp_path, _bases())
        with pytest.raises(IngestError, match="cover exactly"):
            ingestor.add({"image": np.zeros(8)})
        with pytest.raises(IngestError, match="dim"):
            ingestor.add({"image": np.zeros(5), "recipe": np.zeros(8)})
        with pytest.raises(IngestError, match="non-finite"):
            ingestor.add({"image": np.full(8, np.inf),
                          "recipe": np.zeros(8)})
        with pytest.raises(KeyError):
            ingestor.delete(999)
        assert ingestor.log.lag_records == 0  # nothing bad was logged
        ingestor.close()

    def test_recovery_is_bitwise_identical(self, tmp_path):
        ingestor = Ingestor(tmp_path, _bases())
        rng = RNG(2)
        for _ in range(8):
            ingestor.add(_vectors(rng), class_id=int(rng.integers(0, 3)))
        ingestor.delete(21)
        ingestor.delete(5)
        ingestor.add(_vectors(rng), item_id=23)  # upsert
        query = rng.normal(size=8)
        before = {name: overlay.query(query, k=10)
                  for name, overlay in ingestor.overlays.items()}
        next_id = ingestor.next_id
        ingestor.close()

        reopened = Ingestor(tmp_path, _bases())
        assert reopened.recovery["replayed_records"] == 11
        assert reopened.next_id == next_id
        for name, (ids, distances) in before.items():
            r_ids, r_distances = reopened.overlays[name].query(query, k=10)
            assert np.array_equal(ids, r_ids)
            assert distances.tobytes() == r_distances.tobytes()
        reopened.close()

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        Ingestor(tmp_path, _bases(n=20)).close()
        with pytest.raises(IngestError, match="different base corpus"):
            Ingestor(tmp_path, _bases(n=21))

    def test_compaction_roundtrip(self, tmp_path):
        ingestor = Ingestor(tmp_path, _bases())
        rng = RNG(3)
        for _ in range(5):
            ingestor.add(_vectors(rng))
        ingestor.delete(22)
        ingestor.delete(0)
        query = rng.normal(size=8)
        before = ingestor.overlays["image"].query(query, k=8)
        report = ingestor.compact()
        assert report.epoch == 1
        assert report.live_items == 23
        assert report.base_file == "base-000001.npz"
        assert (tmp_path / report.base_file).exists()
        assert ingestor.log.lag_records == 0
        after = ingestor.overlays["image"].query(query, k=8)
        assert np.array_equal(before[0], after[0])
        assert before[1].tobytes() == after[1].tobytes()
        ingestor.close()
        # reopen loads the folded snapshot; external base is only a
        # compatibility check now
        reopened = Ingestor(tmp_path, _bases())
        assert reopened.epoch == 1
        assert reopened.recovery["base"] == "base-000001.npz"
        assert reopened.recovery["replayed_records"] == 0
        recovered = reopened.overlays["image"].query(query, k=8)
        assert np.array_equal(before[0], recovered[0])
        assert before[1].tobytes() == recovered[1].tobytes()
        reopened.close()

    def test_payloads_survive_compaction_and_recovery(self, tmp_path):
        ingestor = Ingestor(tmp_path, _bases())
        rng = RNG(4)
        ack = ingestor.add(_vectors(rng), payload={"title": "stew"})
        ingestor.compact()
        assert ingestor.payloads[ack.item_id] == {"title": "stew"}
        ingestor.close()
        reopened = Ingestor(tmp_path, _bases())
        assert reopened.payloads[ack.item_id] == {"title": "stew"}
        reopened.close()

    def test_writes_racing_compaction_replay_on_commit(self, tmp_path):
        ingestor = Ingestor(tmp_path, _bases())
        rng = RNG(5)
        ingestor.add(_vectors(rng))
        ticket = ingestor.begin_compaction()
        racing = ingestor.add(_vectors(rng))  # lands after the seal
        report, replayed = ingestor.commit_compaction(ticket)
        assert report.pending_replayed == 1
        assert [op.item_id for op, _, _ in replayed] == [racing.item_id]
        assert ingestor.overlays["image"].is_live(racing.item_id)
        # the racing write is in the log, not the snapshot: a reopen
        # must replay exactly it
        ingestor.close()
        reopened = Ingestor(tmp_path, _bases())
        assert reopened.recovery["replayed_records"] == 1
        assert reopened.overlays["image"].is_live(racing.item_id)
        reopened.close()

    def test_stale_base_files_cleaned_at_open(self, tmp_path):
        ingestor = Ingestor(tmp_path, _bases())
        ingestor.add(_vectors(RNG(6)))
        ingestor.compact()
        ingestor.close()
        stray = tmp_path / "base-000099.npz"
        stray.write_bytes(b"leftover from a crashed compaction")
        tmp = tmp_path / "base-000100.npz.tmp"
        tmp.write_bytes(b"half-written snapshot")
        reopened = Ingestor(tmp_path, _bases())
        assert not stray.exists()
        assert not tmp.exists()
        assert (tmp_path / "base-000001.npz").exists()
        reopened.close()

    def test_scan_log_is_read_only(self, tmp_path):
        ingestor = Ingestor(tmp_path, _bases())
        rng = RNG(7)
        ack = ingestor.add(_vectors(rng))
        ingestor.add(_vectors(rng))
        ingestor.delete(ack.item_id)
        ingestor.close()
        summary = scan_log(tmp_path)
        assert summary["records"] == 3
        assert summary["adds"] == 2
        assert summary["deletes"] == 1
        assert summary["epoch"] == 0
        assert summary["base"] == "external"

    def test_metrics_exported(self, tmp_path):
        ingestor = Ingestor(tmp_path, _bases())
        rng = RNG(8)
        ingestor.add(_vectors(rng))
        registry = ingestor.telemetry.registry
        counters = {key: child.value for key, child
                    in registry.get("ingest_ops_total").children()}
        assert counters[("add",)] == 1
        gauges = {key: child.value for key, child
                  in registry.get("ingest_delta_rows").children()}
        assert gauges[("image",)] == 1
        assert registry.get("ingest_epoch").labels().value == 0
        ingestor.close()


# ----------------------------------------------------------------------
# Cluster delta mirroring
# ----------------------------------------------------------------------
class TestClusterDeltas:
    def _twins(self, seed=0, n=16, dim=6, shards=3):
        base = NearestNeighborIndex(
            RNG(seed).normal(size=(n, dim)), ids=np.arange(n),
            class_ids=RNG(seed + 1).integers(0, 3, n))
        overlay = DeltaOverlay(base)
        cluster = IndexCluster(base, ClusterConfig(num_shards=shards,
                                                   replication=2,
                                                   parallel=False))
        return base, overlay, cluster

    def _mirror(self, overlay, cluster, op, *args):
        if op == "add":
            item_id, row, class_id = args
            replaced = overlay.add(item_id, row, class_id)
            if replaced is not None:
                cluster.apply_delete(item_id, replaced)
            cluster.apply_add(item_id, row, class_id,
                              overlay.key_for(item_id))
        else:
            (item_id,) = args
            key = overlay.delete(item_id)
            cluster.apply_delete(item_id, key)

    def test_cluster_tracks_overlay_bitwise(self):
        base, overlay, cluster = self._twins()
        rng = RNG(11)
        rows = _unit_rows(rng, 8, 6)
        for i in range(6):
            self._mirror(overlay, cluster, "add", 100 + i, rows[i],
                         int(rng.integers(0, 3)))
        self._mirror(overlay, cluster, "delete", 102)
        self._mirror(overlay, cluster, "delete", 3)
        self._mirror(overlay, cluster, "add", 104, rows[6], 1)  # upsert
        assert cluster.live_item_count() == overlay.live_count
        for class_id in (None, 0, 1, 2):
            for k in (1, 4, 30):
                query = rng.normal(size=6)
                o_ids, o_distances = overlay.query(query, k=k,
                                                   class_id=class_id)
                result = cluster.query(query, k=k, class_id=class_id)
                assert np.array_equal(o_ids, result.ids)
                assert o_distances.tobytes() == result.distances.tobytes()

    def test_apply_add_rejects_live_position(self):
        _, overlay, cluster = self._twins()
        row = _unit_rows(RNG(12), 1, 6)[0]
        self._mirror(overlay, cluster, "add", 50, row, 0)
        with pytest.raises(ValueError, match="already live"):
            cluster.apply_add(51, row, 0, overlay.key_for(50))

    def test_apply_delete_validates(self):
        _, overlay, cluster = self._twins()
        with pytest.raises(ValueError, match="not live"):
            cluster.apply_delete(0, 99)
        with pytest.raises(ValueError, match="holds item"):
            cluster.apply_delete(7, 3)  # position 3 holds item 3

    def test_boot_replay_with_gaps(self):
        """Recovered overlays can contain dead slots; apply_add must
        gap-fill positions so the cluster's arrays stay aligned."""
        base, overlay, cluster = self._twins()
        rng = RNG(13)
        rows = _unit_rows(rng, 3, 6)
        overlay.add(200, rows[0], 0)
        overlay.add(201, rows[1], 1)
        overlay.delete(200)          # slot 0 of the delta block dies
        overlay.add(202, rows[2], 2)
        for item_id, key in overlay.dead_base_items():
            cluster.apply_delete(item_id, key)
        for item_id, row, class_id, key in overlay.delta_entries():
            cluster.apply_add(item_id, row, class_id, key)
        assert cluster.live_item_count() == overlay.live_count
        query = rng.normal(size=6)
        o_ids, o_distances = overlay.query(query, k=20)
        result = cluster.query(query, k=20)
        assert np.array_equal(o_ids, result.ids)
        assert o_distances.tobytes() == result.distances.tobytes()
