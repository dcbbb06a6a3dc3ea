"""Streaming corpus ingest: delta overlay over a frozen base index.

The paper's corpus is static; a production recipe service is not.
This module makes the corpus *incrementally* mutable without giving up
the repo's bitwise-exactness discipline:

- Every ``add``/``delete`` is first appended to a crash-safe
  write-ahead log (:mod:`repro.serving.wal`), then applied to a
  :class:`DeltaOverlay` — a tombstone mask over the frozen base
  :class:`~repro.retrieval.index.NearestNeighborIndex` plus an
  append-only block of new rows.
- Search is an exact base ∪ delta merge: both sides return
  ``(distance, merge-key)`` pairs and the cluster's lexsort merge
  (:func:`~repro.serving.sharding.merge_topk`) combines them.  Merge
  keys are order-isomorphic to positions in the *effective* corpus
  (live base rows in order, then live delta rows in slot order), so
  the merged result is bitwise identical to a monolithic index rebuilt
  from the same effective corpus — the property the hypothesis suite
  pins.
- Recovery replays the log over the base to reach bitwise-identical
  state: rows are normalized exactly once, at ingest time, and the
  *normalized* float64 bytes are what the log stores.
- Compaction folds the overlay into a new base snapshot with
  exactly-once semantics: the manifest checkpoint is the commit
  point.  Crash before it → old base + full log replay; crash after →
  new base + only the post-rotation segment.  No loss, no
  double-apply, in either case.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import threading
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..data.schema import Recipe
from ..obs import Telemetry
from ..retrieval.distance import normalize_rows
from ..retrieval.index import NearestNeighborIndex, top_k
from .sharding import merge_topk
from .wal import DeltaLog, LogPosition, read_manifest, replay_segments

__all__ = ["IngestError", "IngestOp", "IngestAck", "IngestConfig",
           "CompactionTicket", "CompactionReport", "DeltaOverlay",
           "Ingestor", "CompactionThread", "encode_op", "decode_op",
           "recipe_to_payload", "payload_to_recipe", "scan_log"]

_OP_ADD = 1
_OP_DELETE = 2
_OP_HEAD = struct.Struct("<Bq")     # (op code, item id)
_ADD_HEAD = struct.Struct("<qB")    # (class id, vector count)
_VEC_HEAD = struct.Struct("<I")     # payload/vector length prefix


class IngestError(RuntimeError):
    """Streaming-ingest failure that is not a WAL-layer fault."""


@dataclass(frozen=True)
class IngestOp:
    """One logged mutation, exactly as it replays.

    ``vectors`` maps index name -> already-normalized float64 row; the
    normalized bytes are what the log persists, so replay reproduces
    distances bit for bit without re-normalizing.
    """

    kind: str                                # "add" | "delete"
    item_id: int
    class_id: int = -1
    vectors: Mapping[str, np.ndarray] | None = None
    payload: dict | None = None


@dataclass(frozen=True)
class IngestAck:
    """Acknowledgement for one applied mutation.

    ``durable`` reports whether the batched fsync has covered the
    record yet (always true with ``fsync_every=1``).  ``key`` is the
    merge key the item now occupies (``replaced_key`` the one an
    upsert tombstoned) — what the cluster needs to mirror the change
    into its liveness mask and delta segment.
    """

    op: IngestOp
    item_id: int
    epoch: int
    replaced: bool
    durable: bool
    position: LogPosition
    key: int
    replaced_key: int | None = None


@dataclass(frozen=True)
class IngestConfig:
    """Tunables for the ingest pipeline."""

    #: Batched-fsync policy: acknowledge after the OS write, make
    #: durable every N records.  1 (default) = every ack is durable.
    fsync_every: int = 1
    #: Delta rows (adds + tombstones) that trigger the background
    #: compaction thread; ``None`` leaves compaction manual.
    compact_at_delta_rows: int | None = 256


@dataclass(frozen=True)
class CompactionTicket:
    """Sealed state handed from ``begin_compaction`` to commit/abort."""

    epoch: int
    folded: Mapping[str, NearestNeighborIndex]
    payloads: dict
    sealed_segment: int
    live_items: int


@dataclass(frozen=True)
class CompactionReport:
    """What one committed compaction folded."""

    epoch: int
    live_items: int
    folded_tombstones: int
    pending_replayed: int
    base_file: str


# ----------------------------------------------------------------------
# Op codec — fixed little-endian framing inside the WAL payload
# ----------------------------------------------------------------------
def encode_op(op: IngestOp) -> bytes:
    """Serialize one op to the WAL payload format (bitwise stable)."""
    if op.kind == "delete":
        return _OP_HEAD.pack(_OP_DELETE, op.item_id)
    if op.kind != "add":
        raise IngestError(f"unknown op kind: {op.kind!r}")
    if not op.vectors:
        raise IngestError("add op carries no vectors")
    buf = bytearray(_OP_HEAD.pack(_OP_ADD, op.item_id))
    names = sorted(op.vectors)
    buf += _ADD_HEAD.pack(op.class_id, len(names))
    for name in names:
        encoded = name.encode("utf-8")
        row = np.ascontiguousarray(op.vectors[name], dtype=np.float64)
        buf += struct.pack("<B", len(encoded)) + encoded
        buf += _VEC_HEAD.pack(row.size) + row.tobytes()
    blob = (b"" if op.payload is None
            else json.dumps(op.payload, sort_keys=True).encode("utf-8"))
    buf += _VEC_HEAD.pack(len(blob)) + blob
    return bytes(buf)


def decode_op(payload: bytes) -> IngestOp:
    """Inverse of :func:`encode_op`."""
    code, item_id = _OP_HEAD.unpack_from(payload, 0)
    offset = _OP_HEAD.size
    if code == _OP_DELETE:
        return IngestOp("delete", item_id)
    if code != _OP_ADD:
        raise IngestError(f"unknown op code: {code}")
    class_id, count = _ADD_HEAD.unpack_from(payload, offset)
    offset += _ADD_HEAD.size
    vectors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        name = payload[offset:offset + name_len].decode("utf-8")
        offset += name_len
        (size,) = _VEC_HEAD.unpack_from(payload, offset)
        offset += _VEC_HEAD.size
        row = np.frombuffer(payload, dtype=np.float64, count=size,
                            offset=offset).copy()
        offset += size * 8
        vectors[name] = row
    (blob_len,) = _VEC_HEAD.unpack_from(payload, offset)
    offset += _VEC_HEAD.size
    blob = payload[offset:offset + blob_len]
    extra = None if blob_len == 0 else json.loads(blob.decode("utf-8"))
    return IngestOp("add", item_id, class_id, vectors, extra)


# ----------------------------------------------------------------------
# Recipe <-> payload (what materialization needs, sans pixels)
# ----------------------------------------------------------------------
def recipe_to_payload(recipe: Recipe) -> dict:
    """The materializable subset of a recipe (pixels are not logged)."""
    return {
        "recipe_id": recipe.recipe_id,
        "title": recipe.title,
        "class_id": recipe.class_id,
        "true_class_id": recipe.true_class_id,
        "ingredients": list(recipe.ingredients),
        "instructions": list(recipe.instructions),
    }


def payload_to_recipe(payload: dict | None, item_id: int) -> Recipe:
    """Rebuild a servable recipe from a logged payload.

    The image was never persisted, so a placeholder pixel block stands
    in — search ranks by the logged embedding, not by pixels.  A
    missing payload (raw-vector ingest) still yields a well-formed
    stub so materialization can never raise.
    """
    payload = payload or {}
    return Recipe(
        recipe_id=str(payload.get("recipe_id", f"ingest-{item_id}")),
        title=str(payload.get("title", f"ingested item {item_id}")),
        class_id=payload.get("class_id"),
        true_class_id=int(payload.get("true_class_id", -1)),
        ingredients=list(payload.get("ingredients", ())),
        instructions=list(payload.get("instructions", ())),
        image=np.zeros((3, 1, 1)),
    )


# ----------------------------------------------------------------------
# Delta overlay
# ----------------------------------------------------------------------
class DeltaOverlay:
    """Tombstone mask + appended rows over one frozen base index.

    Merge-key scheme: base rows keep their base positions
    ``0..len(base)-1``; delta rows get ``len(base) + slot`` with slots
    assigned monotonically and never reused.  Deletion preserves the
    relative order of survivors, so keys are order-isomorphic to
    positions in the effective corpus and the ``(distance, key)``
    lexsort merge reproduces a monolithic rebuild's stable-argsort
    order exactly.

    Thread model: one writer (the ingest lock) and any number of
    racing readers.  Every mutation publishes row contents *before*
    bumping the published length ``_slots``, and readers snapshot
    ``_slots`` first — a racing query sees either the pre- or post-op
    corpus, never a torn row.
    """

    def __init__(self, base: NearestNeighborIndex):
        ids = np.asarray(base.ids)
        if len(np.unique(ids)) != len(ids):
            raise IngestError("base index ids must be unique for ingest")
        self.base = base
        self.offset = len(base)
        self._base_live = np.ones(len(base), dtype=bool)
        self._key_of = {int(item): int(pos)
                        for pos, item in enumerate(ids)}
        dim = base.embeddings.shape[1]
        capacity = 16
        self._rows = np.zeros((capacity, dim))
        self._ids = np.zeros(capacity, dtype=np.int64)
        self._class = np.full(capacity, -1, dtype=np.int64)
        self._live = np.zeros(capacity, dtype=bool)
        self._slots = 0

    # -- bookkeeping ---------------------------------------------------
    @property
    def delta_rows(self) -> int:
        """Physical delta rows (live adds) currently overlaid."""
        return int(np.count_nonzero(self._live[:self._slots]))

    @property
    def tombstones(self) -> int:
        """Dead rows (base + delta) the next fold will drop."""
        dead_base = self.offset - int(np.count_nonzero(self._base_live))
        dead_delta = self._slots - self.delta_rows
        return dead_base + dead_delta

    @property
    def live_count(self) -> int:
        return int(np.count_nonzero(self._base_live)) + self.delta_rows

    def retained_bytes(self) -> int:
        """Bytes held by the overlay's delta arrays and liveness
        bookkeeping (capacity, not just live rows — grown arrays stay
        allocated until the next fold)."""
        return int(self._rows.nbytes + self._ids.nbytes
                   + self._class.nbytes + self._live.nbytes
                   + self._base_live.nbytes)

    def is_live(self, item_id: int) -> bool:
        return int(item_id) in self._key_of

    def key_for(self, item_id: int) -> int:
        return self._key_of[int(item_id)]

    def row_for_key(self, key: int) -> np.ndarray:
        if key < self.offset:
            return self.base.embeddings[key]
        return self._rows[key - self.offset]

    # -- mutation (single writer) --------------------------------------
    def add(self, item_id: int, row: np.ndarray, class_id: int = -1
            ) -> int | None:
        """Overlay one already-normalized row; returns the merge key
        an upsert tombstoned (``None`` for a fresh add)."""
        item_id = int(item_id)
        replaced_key = None
        if item_id in self._key_of:
            replaced_key = self._tombstone(item_id)
        slot = self._slots
        if slot == len(self._rows):
            self._grow()
        self._rows[slot] = np.asarray(row, dtype=np.float64)
        self._ids[slot] = item_id
        self._class[slot] = int(class_id)
        self._live[slot] = True
        self._slots = slot + 1
        self._key_of[item_id] = self.offset + slot
        return replaced_key

    def delete(self, item_id: int) -> int:
        """Tombstone one live item; returns its (now dead) merge key."""
        item_id = int(item_id)
        if item_id not in self._key_of:
            raise KeyError(f"item {item_id} is not live")
        return self._tombstone(item_id)

    def _tombstone(self, item_id: int) -> int:
        key = self._key_of.pop(item_id)
        if key < self.offset:
            self._base_live[key] = False
        else:
            self._live[key - self.offset] = False
        return key

    def _grow(self) -> None:
        capacity = len(self._rows) * 2
        for name in ("_rows", "_ids", "_class", "_live"):
            old = getattr(self, name)
            grown = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
            grown[:len(old)] = old
            setattr(self, name, grown)

    # -- queries (racing readers) --------------------------------------
    def query(self, vector: np.ndarray, k: int = 5,
              class_id: int | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """Exact base ∪ delta top-``k`` as ``(item ids, distances)``."""
        keys, distances = self.query_keys(vector, k, class_id)
        return self.resolve_ids(keys), distances

    def query_keys(self, vector: np.ndarray, k: int = 5,
                   class_id: int | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` as ``(merge keys, distances)``."""
        base_part = self.base.query_positions(
            vector, k=k, class_id=class_id, mask=self._base_live)
        slots = self._slots          # snapshot before reading arrays
        selector = self._live[:slots]
        if class_id is not None:
            selector = selector & (self._class[:slots] == class_id)
        live = np.flatnonzero(selector)
        delta_part = top_k(self._rows[live], self.offset + live,
                           vector, k)
        return merge_topk([base_part, delta_part], k)

    def resolve_ids(self, keys: np.ndarray) -> np.ndarray:
        """Map merge keys back to item ids."""
        keys = np.asarray(keys, dtype=np.int64)
        ids = np.empty(len(keys), dtype=np.int64)
        in_base = keys < self.offset
        ids[in_base] = self.base.ids[keys[in_base]]
        ids[~in_base] = self._ids[keys[~in_base] - self.offset]
        return ids

    # -- folding / replication -----------------------------------------
    def fold(self) -> NearestNeighborIndex:
        """The effective corpus as one frozen index, rows verbatim."""
        survivors = np.flatnonzero(self._base_live)
        folded = self.base.subset(survivors)
        slots = self._slots
        live = np.flatnonzero(self._live[:slots])
        if live.size == 0:
            return folded
        classes = (None if folded.class_ids is None
                   else self._class[:slots][live].copy())
        return folded.append_rows(self._rows[:slots][live].copy(),
                                  self._ids[:slots][live].copy(),
                                  classes)

    def dead_base_items(self) -> list[tuple[int, int]]:
        """``(item id, merge key)`` for every tombstoned base row."""
        dead = np.flatnonzero(~self._base_live)
        return [(int(self.base.ids[pos]), int(pos)) for pos in dead]

    def delta_entries(self):
        """Yield ``(item id, row, class id, merge key)`` per live slot."""
        slots = self._slots
        for slot in np.flatnonzero(self._live[:slots]):
            yield (int(self._ids[slot]), self._rows[slot],
                   int(self._class[slot]), self.offset + int(slot))


# ----------------------------------------------------------------------
# Ingestor — WAL + overlays + compaction protocol
# ----------------------------------------------------------------------
def _fsync_dir(directory: pathlib.Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_base_snapshot(path: pathlib.Path,
                         indexes: Mapping[str, NearestNeighborIndex],
                         payloads: dict, meta: dict) -> None:
    """Atomically persist folded bases (+ payload map) as one npz."""
    arrays: dict[str, np.ndarray] = {}
    for name, index in indexes.items():
        arrays[f"{name}__embeddings"] = index.embeddings
        arrays[f"{name}__ids"] = index.ids
        if index.class_ids is not None:
            arrays[f"{name}__class_ids"] = index.class_ids
    blob = json.dumps({str(k): v for k, v in payloads.items()},
                      sort_keys=True).encode("utf-8")
    arrays["__payloads"] = np.frombuffer(blob, dtype=np.uint8)
    head = json.dumps({"names": sorted(indexes), **meta},
                      sort_keys=True).encode("utf-8")
    arrays["__meta"] = np.frombuffer(head, dtype=np.uint8)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _load_base_snapshot(path: pathlib.Path
                        ) -> tuple[dict, dict]:
    """Inverse of :func:`_write_base_snapshot` — rows adopted verbatim."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(data["__meta"].tobytes().decode("utf-8"))
        raw = data["__payloads"].tobytes().decode("utf-8") or "{}"
        payloads = {int(k): v for k, v in json.loads(raw).items()}
        indexes = {}
        for name in meta["names"]:
            classes = (data[f"{name}__class_ids"]
                       if f"{name}__class_ids" in data.files else None)
            indexes[name] = NearestNeighborIndex.from_normalized(
                data[f"{name}__embeddings"], data[f"{name}__ids"],
                classes)
    return indexes, payloads


class Ingestor:
    """Durable streaming mutations over a set of frozen base indexes.

    ``bases`` maps index name (``"image"``/``"recipe"`` for the
    engine) to the external base the log was opened over.  The first
    open fingerprints that base into the manifest; later opens verify
    the fingerprint (a log replays only over the corpus it was written
    against) and, once a compaction has committed, load the folded
    base snapshot instead — the external base is then only a
    compatibility check.

    All mutation entry points are serialized by an internal lock;
    queries go straight to the overlays, lock-free.
    """

    def __init__(self, log_dir: str | pathlib.Path,
                 bases: Mapping[str, NearestNeighborIndex], *,
                 config: IngestConfig | None = None,
                 telemetry: Telemetry | None = None,
                 faults=None):
        self.config = config or IngestConfig()
        self.telemetry = telemetry or Telemetry()
        self._faults = faults
        self._lock = threading.RLock()
        self.directory = pathlib.Path(log_dir)
        self._setup_metrics()
        self.log = DeltaLog(self.directory,
                            fsync_every=self.config.fsync_every,
                            fault=faults)
        fingerprint = {name: [int(len(index)),
                              int(index.embeddings.shape[1])]
                       for name, index in sorted(bases.items())}
        meta = dict(self.log.manifest.get("meta") or {})
        if not meta:
            meta = {"epoch": 0, "base": None, "external": fingerprint}
            self.log.checkpoint(meta, segment=self.log.segment)
        elif meta.get("external") != fingerprint:
            raise IngestError(
                f"ingest log at {self.directory} was written over a "
                f"different base corpus (expected {meta.get('external')},"
                f" got {fingerprint})")
        self._external = fingerprint
        self.epoch = int(meta.get("epoch", 0))
        self._base_file = meta.get("base")
        if self._base_file:
            folded, payloads = _load_base_snapshot(
                self.directory / self._base_file)
            if sorted(folded) != sorted(bases):
                raise IngestError("base snapshot index names diverge "
                                  "from the engine's")
            self.bases = folded
            self.payloads = payloads
        else:
            self.bases = dict(bases)
            self.payloads = {}
        self._clean_stale_bases()
        self.overlays = {name: DeltaOverlay(index)
                         for name, index in self.bases.items()}
        self._names = sorted(self.bases)
        self.next_id = 1 + max(
            (int(index.ids.max()) for index in self.bases.values()
             if len(index)), default=-1)
        replayed = 0
        for payload in self.log.replay():
            self._apply(decode_op(payload))
            replayed += 1
        self._pending: list[IngestOp] = []
        self.recovery = {
            "epoch": self.epoch,
            "base": self._base_file or "external",
            "replayed_records": replayed,
            "truncated_bytes": self.log.recovery.truncated_bytes,
            "truncated_segment": self.log.recovery.truncated_segment,
        }
        self._m_recovered.inc(replayed)
        self._m_torn.inc(self.log.recovery.truncated_bytes)
        self.telemetry.events.emit(
            "ingest_recovery", level="info", **self.recovery)
        self._update_gauges()

    # -- plumbing ------------------------------------------------------
    def _setup_metrics(self) -> None:
        registry = self.telemetry.registry
        self._m_ops = registry.counter(
            "ingest_ops_total", "Applied ingest mutations",
            labels=("op",))
        self._m_compactions = registry.counter(
            "ingest_compactions_total", "Compaction outcomes",
            labels=("result",))
        self._m_recovered = registry.counter(
            "ingest_recovered_records_total",
            "Log records replayed at startup")
        self._m_torn = registry.counter(
            "ingest_torn_bytes_truncated_total",
            "Torn-tail bytes truncated during recovery")
        self._g_delta = registry.gauge(
            "ingest_delta_rows", "Live delta rows per index",
            labels=("index",))
        self._g_tombstones = registry.gauge(
            "ingest_tombstones", "Dead rows awaiting the next fold",
            labels=("index",))
        self._g_lag = registry.gauge(
            "ingest_log_lag_records",
            "Log records not yet folded into a base")
        self._g_segments = registry.gauge(
            "ingest_log_segments", "Live write-ahead-log segments")
        self._g_epoch = registry.gauge(
            "ingest_epoch", "Committed compaction epoch")

    def _update_gauges(self) -> None:
        for name, overlay in self.overlays.items():
            self._g_delta.labels(index=name).set(overlay.delta_rows)
            self._g_tombstones.labels(index=name).set(overlay.tombstones)
        self._g_lag.set(self.log.lag_records)
        self._g_segments.set(len(self.log.status()["segments"]))
        self._g_epoch.set(self.epoch)

    def _on_compaction(self, phase: str) -> None:
        self.telemetry.events.emit("compaction", level="info",
                                   phase=phase, epoch=self.epoch)
        if self._faults is not None:
            self._faults.on_compaction(phase)

    def _apply(self, op: IngestOp) -> tuple[int, int | None]:
        """Apply one decoded op to the overlays; returns the merge key
        it now occupies and the key an upsert/delete retired."""
        first = self.overlays[self._names[0]]
        if op.kind == "add":
            if op.vectors is None or set(op.vectors) != set(self._names):
                raise IngestError("add op vectors diverge from indexes")
            replaced_key = None
            for name in self._names:
                replaced_key = self.overlays[name].add(
                    op.item_id, op.vectors[name], op.class_id)
            if op.payload is not None:
                self.payloads[op.item_id] = op.payload
            else:
                self.payloads.pop(op.item_id, None)
            self.next_id = max(self.next_id, op.item_id + 1)
            return first.key_for(op.item_id), replaced_key
        try:
            key = None
            for name in self._names:
                key = self.overlays[name].delete(op.item_id)
        except KeyError as exc:
            raise IngestError(
                f"log replays a delete of a non-live item: {exc}"
            ) from exc
        self.payloads.pop(op.item_id, None)
        return key, key

    # -- mutations -----------------------------------------------------
    def add(self, vectors: Mapping[str, np.ndarray], *,
            item_id: int | None = None, class_id: int = -1,
            payload: dict | None = None) -> IngestAck:
        """Log then apply one add (or upsert, if ``item_id`` is live).

        ``vectors`` holds one *raw* embedding per index; they are
        normalized here, exactly once — the normalized bytes are what
        the log stores and every later fold copies verbatim.
        """
        with self._lock:
            if set(vectors) != set(self._names):
                raise IngestError(
                    f"vectors must cover exactly {self._names}; "
                    f"got {sorted(vectors)}")
            normalized = {}
            for name in self._names:
                dim = self.bases[name].embeddings.shape[1]
                row = np.asarray(vectors[name],
                                 dtype=np.float64).reshape(-1)
                if row.shape[0] != dim:
                    raise IngestError(
                        f"{name} vector has dim {row.shape[0]}, "
                        f"index expects {dim}")
                if not np.all(np.isfinite(row)):
                    raise IngestError(f"{name} vector is non-finite")
                with np.errstate(all="ignore"):
                    row = normalize_rows(row[None])[0]
                if not np.all(np.isfinite(row)):
                    raise IngestError(
                        f"{name} vector is non-finite after normalize")
                normalized[name] = row
            if item_id is None:
                item_id = self.next_id
            op = IngestOp("add", int(item_id), int(class_id),
                          normalized, payload)
            return self._log_and_apply(op)

    def delete(self, item_id: int) -> IngestAck:
        """Log then apply one tombstone; ``KeyError`` if not live."""
        with self._lock:
            first = self.overlays[self._names[0]]
            if not first.is_live(item_id):
                raise KeyError(f"item {int(item_id)} is not live")
            return self._log_and_apply(IngestOp("delete", int(item_id)))

    def _log_and_apply(self, op: IngestOp) -> IngestAck:
        first = self.overlays[self._names[0]]
        replaced = op.kind == "add" and first.is_live(op.item_id)
        position = self.log.append(encode_op(op))
        key, replaced_key = self._apply(op)
        self._pending.append(op)
        self._m_ops.labels(op=op.kind).inc()
        self._update_gauges()
        return IngestAck(op=op, item_id=op.item_id, epoch=self.epoch,
                         replaced=replaced, durable=self.log.synced,
                         position=position, key=key,
                         replaced_key=replaced_key)

    # -- compaction ----------------------------------------------------
    def begin_compaction(self) -> CompactionTicket:
        """Seal the log and fold the overlays into candidate bases.

        Queries keep hitting the *live* overlays; mutations landing
        after the rotation go to the next segment and are tracked as
        pending — they replay onto the folded state at commit.
        """
        with self._lock:
            sealed = self.log.segment
            self.log.rotate()
            folded = {name: overlay.fold()
                      for name, overlay in self.overlays.items()}
            payloads = dict(self.payloads)
            self._pending = []
            live = len(folded[self._names[0]])
            tombstones = sum(o.tombstones for o in self.overlays.values())
        ticket = CompactionTicket(
            epoch=self.epoch + 1, folded=folded, payloads=payloads,
            sealed_segment=sealed, live_items=live)
        self._folded_tombstones = tombstones
        self._on_compaction("folded")
        return ticket

    def commit_compaction(self, ticket: CompactionTicket
                          ) -> tuple[CompactionReport,
                                     list[tuple[IngestOp, int,
                                                int | None]]]:
        """Persist the fold and promote it; exactly-once by manifest.

        Returns the report plus the pending ops (with the merge keys
        they re-acquired on the fresh overlays) so the service can
        mirror them into a candidate cluster topology.
        """
        base_file = f"base-{ticket.epoch:06d}.npz"
        _write_base_snapshot(self.directory / base_file, ticket.folded,
                             ticket.payloads,
                             {"epoch": ticket.epoch})
        self._on_compaction("base_written")
        with self._lock:
            self.log.checkpoint(
                {"epoch": ticket.epoch, "base": base_file,
                 "external": self._external},
                segment=self.log.segment)
            self._on_compaction("manifest_written")
            old_base = self._base_file
            self._base_file = base_file
            self.bases = dict(ticket.folded)
            self.overlays = {name: DeltaOverlay(index)
                             for name, index in self.bases.items()}
            self.payloads = dict(ticket.payloads)
            pending = list(self._pending)
            replayed = [(op,) + self._apply(op) for op in pending]
            self.epoch = ticket.epoch
            if old_base and old_base != base_file:
                stale = self.directory / old_base
                if stale.exists():
                    stale.unlink()
            self._update_gauges()
        self._m_compactions.labels(result="committed").inc()
        self._on_compaction("committed")
        report = CompactionReport(
            epoch=ticket.epoch, live_items=ticket.live_items,
            folded_tombstones=getattr(self, "_folded_tombstones", 0),
            pending_replayed=len(replayed), base_file=base_file)
        return report, replayed

    def abort_compaction(self, ticket: CompactionTicket) -> None:
        """Discard a fold (e.g. canary veto).  Nothing to roll back:
        the manifest never moved, the live overlays were never
        touched, and the extra segment rotation is harmless — the next
        fold simply covers it too."""
        del ticket
        self._m_compactions.labels(result="aborted").inc()
        self._on_compaction("aborted")

    def compact(self) -> CompactionReport:
        """Fold and commit without external validation (CLI path)."""
        ticket = self.begin_compaction()
        report, _ = self.commit_compaction(ticket)
        return report

    def _clean_stale_bases(self) -> None:
        for entry in self.directory.glob("base-*.npz*"):
            if entry.name != self._base_file:
                entry.unlink()

    # -- introspection -------------------------------------------------
    def status(self) -> dict:
        with self._lock:
            first = self.overlays[self._names[0]]
            return {
                "epoch": self.epoch,
                "base": self._base_file or "external",
                "next_id": self.next_id,
                "live_items": first.live_count,
                "delta_rows": {name: overlay.delta_rows
                               for name, overlay
                               in self.overlays.items()},
                "tombstones": first.tombstones,
                "payloads": len(self.payloads),
                "log": self.log.status(),
                "recovery": dict(self.recovery),
            }

    def close(self) -> None:
        self.log.close()


def scan_log(log_dir: str | pathlib.Path) -> dict:
    """Read-only summary of an ingest log (no model, no mutation)."""
    directory = pathlib.Path(log_dir)
    counts = {"add": 0, "delete": 0}
    records = 0
    for payload in replay_segments(directory):
        op = decode_op(payload)
        counts[op.kind] += 1
        records += 1
    manifest = read_manifest(directory) or {}
    meta = manifest.get("meta") or {}
    return {
        "directory": str(directory),
        "records": records,
        "adds": counts["add"],
        "deletes": counts["delete"],
        "epoch": int(meta.get("epoch", 0)),
        "base": meta.get("base") or "external",
        "segment": int(manifest.get("segment", 0)),
    }


class CompactionThread:
    """Background fold trigger: compacts the service's overlay when it
    grows past ``compact_at_delta_rows`` (checked every ``interval``).

    Failures are recorded, not raised — a broken compaction must not
    take the maintenance loop down with it.  ``stop()`` joins the
    thread.
    """

    def __init__(self, service, interval: float = 0.25,
                 sleep=time.sleep):
        self._service = service
        self._interval = float(interval)
        self._sleep = sleep
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="ingest-compaction")
        self.errors: list[str] = []
        self.reports = []

    def start(self) -> "CompactionThread":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                ingestor = self._service.ingestor
                threshold = (ingestor.config.compact_at_delta_rows
                             if ingestor is not None else None)
                if threshold is not None and ingestor is not None:
                    status = ingestor.status()
                    load = (max(status["delta_rows"].values(), default=0)
                            + status["tombstones"])
                    if load >= threshold:
                        self.reports.append(
                            self._service.compact_ingest())
            except Exception as exc:  # survive and report
                self.errors.append(f"{type(exc).__name__}: {exc}")
            self._sleep(self._interval)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
