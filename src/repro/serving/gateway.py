"""Hardened HTTP front door for the resilient search service.

Every containment layer built so far stops at the process boundary:
breakers, brownout, fair queuing and WAL recovery all assume the
request already *arrived*.  Production retrieval systems mostly die at
the wire instead — slow clients holding sockets open, half-sent
bodies, restart storms — so the gateway's job is to make the socket
path as crash-only as the service behind it.  Stdlib-only (raw
``socket`` + ``threading``; no frameworks), four layers:

* **wire armor** — per-socket read/write timeouts, bounded header and
  body sizes, a slowloris reaper that evicts connections stalled
  mid-request, a bounded accept backlog with load-shed *at accept*
  when the connection table or the admission queue is saturated, and
  malformed requests answered with a structured 400 (never a
  traceback on the wire);
* **graceful drain** — SIGTERM flips readiness (``/readyz`` → 503),
  stops accepting, lets every accepted request finish under a drain
  deadline (late arrivals on kept-alive connections get a clean 503
  with ``Connection: close``), syncs the ingest WAL, flushes
  telemetry, and returns — crash-only exit, restart recovers via the
  existing WAL replay;
* **swap-aware result cache** — :class:`ResultCache`, LRU+TTL keyed
  on ``(tenant, query fingerprint)`` with the serving generation
  stored per entry: a hot-swap invalidates implicitly because a
  generation mismatch is never served as fresh.  Under brownout or an
  open breaker the gateway may serve an expired or past-generation
  entry flagged ``stale: true`` (*stale-while-revalidate*) instead of
  failing the caller;
* **observability** — request/connection/cache metrics in the shared
  registry, and every HTTP request wrapped in an ``http_request``
  span so the service's per-stage spans join the whole-path traces.

Tenancy rides on ``X-Api-Key`` (mapped straight onto the PR 7
admission plane's token buckets and fair-queue lanes), criticality on
``X-Criticality``, and the client deadline on ``X-Deadline-Ms`` —
clamped to a server maximum and propagated into the same cooperative
:class:`~repro.serving.deadline.Deadline` the in-process path uses,
with ``deadline_source`` recorded on the outcome so a silently
defaulted budget is distinguishable from a caller-chosen one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import signal
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..obs import LATENCY_BUCKETS, Telemetry
from .ingest import payload_to_recipe
from .retry import CircuitState
from .service import ResilientSearchService

__all__ = ["GatewayConfig", "CacheConfig", "ResultCache",
           "query_fingerprint", "normalize_search_request",
           "parse_deadline_header", "Gateway", "GatewayError",
           "BadRequest", "STATUS_CODES", "SHED_STATUS_CODES"]

#: Service outcome status → HTTP status code (non-shed outcomes).
STATUS_CODES = {"ok": 200, "partial": 200, "degraded": 200,
                "timeout": 504, "invalid": 400, "error": 500}

#: Shed reason → HTTP status code.  Rate-limited tenants get 429 (the
#: client itself is over budget); every other shed is the server
#: protecting itself, which is 503 + Retry-After.
SHED_STATUS_CODES = {"rate_limit": 429, "queue_full": 503,
                     "expired": 503, "brownout": 503,
                     "inflight_limit": 503}

_REASON_PHRASES = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
                   404: "Not Found", 405: "Method Not Allowed",
                   408: "Request Timeout", 413: "Payload Too Large",
                   429: "Too Many Requests", 431: "Request Header "
                   "Fields Too Large", 500: "Internal Server Error",
                   503: "Service Unavailable", 504: "Gateway Timeout"}

# Connection phases, used by the reaper to tell a stalled *request*
# (head/body — slowloris territory) from a quiet keep-alive (idle).
_IDLE, _HEAD, _BODY, _HANDLE = "idle", "head", "body", "handle"

#: Listen backlog of the accept socket.
_ACCEPT_BACKLOG = 16
#: Shed at accept when the admission plane already has at least this
#: many requests queued: the wire should not pile more load onto a
#: saturated fair queue.
_SHED_AT_QUEUE_DEPTH = 512
#: Seconds advertised in ``Retry-After`` on 429/503.
_RETRY_AFTER_S = 1.0
#: The one method each single-method route answers; others get 405.
_ROUTE_METHODS = {"/metrics": "GET", "/search": "POST", "/ingest": "POST"}


class GatewayError(RuntimeError):
    """Gateway lifecycle misuse (double start, start after drain)."""


class BadRequest(Exception):
    """Malformed wire input; becomes a structured 4xx, never a 500."""

    def __init__(self, status: int, reason: str, detail: str):
        super().__init__(detail)
        self.status = status
        self.reason = reason
        self.detail = detail


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheConfig:
    """Result-cache knobs.

    ``ttl_s`` bounds how long an entry may be served as *fresh*;
    ``stale_ttl_s`` extends past that (and past a generation bump) how
    long it may still be served as an explicitly flagged stale answer
    under brownout/breaker-open.  ``capacity`` is entries, evicted LRU.
    """

    capacity: int = 256
    ttl_s: float = 30.0
    stale_ttl_s: float = 300.0
    enabled: bool = True

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if self.ttl_s <= 0 or self.stale_ttl_s < 0:
            raise ValueError("ttl_s must be positive and stale_ttl_s "
                             "non-negative")


@dataclass(frozen=True)
class GatewayConfig:
    """Wire-armor, drain, auth and cache knobs for one gateway."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral (read .port after start)
    #: ``api_key -> tenant`` map.  Empty disables auth: the tenant
    #: then comes from ``X-Tenant`` (or "default"), which is what the
    #: demos and load generators use.  Non-empty makes ``X-Api-Key``
    #: mandatory; unknown keys get a 401.
    api_keys: Mapping[str, str] = field(default_factory=dict)
    # -- wire armor -------------------------------------------------
    max_header_bytes: int = 8192
    max_body_bytes: int = 65536
    read_timeout_s: float = 5.0       # per-recv socket timeout
    #: A request's head (request line + headers) must fully arrive
    #: within this window of its first byte — the slowloris bound.
    header_deadline_s: float = 2.0
    body_deadline_s: float = 5.0      # ... and the body within this
    idle_timeout_s: float = 5.0       # keep-alive idle limit
    reaper_interval_s: float = 0.25
    max_connections: int = 64         # beyond this, shed at accept
    # -- deadlines --------------------------------------------------
    max_deadline_ms: float = 10000.0  # clamp for X-Deadline-Ms
    # -- drain ------------------------------------------------------
    drain_deadline_s: float = 5.0
    # -- cache ------------------------------------------------------
    cache: CacheConfig = field(default_factory=CacheConfig)

    def __post_init__(self):
        if self.max_header_bytes < 256 or self.max_body_bytes < 1:
            raise ValueError("header/body byte bounds are too small")
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_deadline_ms <= 0:
            raise ValueError("max_deadline_ms must be positive")
        if self.drain_deadline_s <= 0:
            raise ValueError("drain_deadline_s must be positive")


# ----------------------------------------------------------------------
# Query fingerprint + request normalization
# ----------------------------------------------------------------------
def _canonical(value):
    """Whitespace-insensitive canonical form of a JSON value."""
    if isinstance(value, str):
        return " ".join(value.split())
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)  # 5.0 and 5 ask for the same k
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def query_fingerprint(request: Mapping) -> str:
    """Stable digest of one search request's *semantics*.

    Two bodies that parse to the same request — whatever their key
    order, inter-token whitespace, or ``5`` vs ``5.0`` spelling —
    fingerprint identically, because the digest is taken over a
    canonical sorted-key JSON encoding of the normalized value, not
    over the wire bytes.
    """
    return _digest(_canonical(dict(request)))


def _digest(canonical: dict) -> str:
    """:func:`query_fingerprint` of an already canonical request."""
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:32]


def normalize_search_request(payload) -> dict:
    """Validate a /search body and reduce it to explicit semantics.

    Returns the normalized request dict the fingerprint is taken over:
    every field present, defaults filled in, strings whitespace-
    normalized.  Raises :class:`BadRequest` for anything malformed.
    """
    if not isinstance(payload, dict):
        raise BadRequest(400, "bad_body",
                          "request body must be a JSON object")
    kind = None
    ingredients = payload.get("ingredients")
    recipe_id = payload.get("recipe_id")
    without = payload.get("without")
    if ingredients is not None:
        if (not isinstance(ingredients, list) or not ingredients
                or not all(isinstance(i, str) for i in ingredients)):
            raise BadRequest(400, "bad_body", "'ingredients' must be "
                              "a non-empty list of strings")
        kind = "ingredients"
    elif recipe_id is not None:
        if isinstance(recipe_id, bool) or not isinstance(recipe_id, int):
            raise BadRequest(400, "bad_body",
                              "'recipe_id' must be an integer")
        kind = "without" if without is not None else "recipe"
        if without is not None and not isinstance(without, str):
            raise BadRequest(400, "bad_body",
                              "'without' must be a string")
    else:
        raise BadRequest(400, "bad_body", "search needs either "
                          "'ingredients' or 'recipe_id'")
    k = payload.get("k", 5)
    if isinstance(k, bool) or not isinstance(k, (int, float)) \
            or int(k) != k or not 1 <= int(k) <= 100:
        raise BadRequest(400, "bad_body",
                          "'k' must be an integer in [1, 100]")
    class_name = payload.get("class_name")
    if class_name is not None and not isinstance(class_name, str):
        raise BadRequest(400, "bad_body",
                          "'class_name' must be a string or null")
    return _canonical({
        "kind": kind,
        "ingredients": ingredients if kind == "ingredients" else None,
        "recipe_id": recipe_id if kind != "ingredients" else None,
        "without": without if kind == "without" else None,
        "k": int(k),
        "class_name": class_name,
    })


def parse_deadline_header(raw: str | None, max_deadline_ms: float
                          ) -> tuple[float | None, str]:
    """``X-Deadline-Ms`` → ``(deadline_seconds | None, source)``.

    Absent header → ``(None, "default")`` (the service default budget
    applies).  A non-numeric or non-positive value is a caller error
    (400), never silently defaulted.  Oversized values clamp to the
    server maximum — a client cannot buy an unbounded budget.
    """
    if raw is None or not raw.strip():
        return None, "default"
    try:
        value_ms = float(raw.strip())
    except ValueError:
        raise BadRequest(400, "bad_deadline",
                          f"X-Deadline-Ms must be numeric, got {raw!r}")
    if not value_ms > 0 or value_ms != value_ms:  # NaN guard
        raise BadRequest(400, "bad_deadline",
                          "X-Deadline-Ms must be a positive number of "
                          "milliseconds")
    return min(value_ms, max_deadline_ms) / 1000.0, "header"


# ----------------------------------------------------------------------
# Swap-aware LRU+TTL result cache
# ----------------------------------------------------------------------
class _CacheEntry:
    __slots__ = ("body", "generation", "stored_at")

    def __init__(self, body: dict, generation: int, stored_at: float):
        self.body = body
        self.generation = generation
        self.stored_at = stored_at


class ResultCache:
    """LRU+TTL cache of serialized search responses, per tenant.

    Keys are ``(tenant, query fingerprint)``; the generation that
    produced an entry is stored *in* the entry and compared at read
    time, so a hot-swap invalidates the whole cache implicitly — a
    past-generation entry can never be served as fresh.  ``get`` with
    ``allow_stale=True`` (the gateway sets it only under brownout or
    an open breaker) may instead return an expired or past-generation
    entry within ``stale_ttl_s`` of its expiry, tagged ``"stale"`` so
    the caller can flag it on the wire.  Thread-safe.
    """

    def __init__(self, config: CacheConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 registry=None):
        self.config = config or CacheConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], _CacheEntry] = \
            OrderedDict()
        self._m_events = None
        if registry is not None:
            self._m_events = registry.counter(
                "gateway_cache_events_total",
                "result-cache traffic by event",
                labels=("event",))

    def _event(self, event: str) -> None:
        if self._m_events is not None:
            self._m_events.child(event).inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def retained_bytes(self) -> int:
        """Estimated bytes held by cached result bodies (memory
        ledger entry for the gateway's cache)."""
        from ..obs.memledger import ring_bytes

        with self._lock:
            bodies = [entry.body for entry in self._entries.values()]
        # _CacheEntry is slotted: estimate the retained bodies plus a
        # small fixed per-entry overhead for the entry + key tuple.
        return ring_bytes(bodies) + len(bodies) * 96

    def get(self, tenant: str, fingerprint: str, generation: int, *,
            allow_stale: bool = False) -> tuple[dict, str] | None:
        """Look up one query; ``(body, "fresh"|"stale")`` or ``None``."""
        key = (tenant, fingerprint)
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._event("miss")
                return None
            age = now - entry.stored_at
            if age > self.config.ttl_s + self.config.stale_ttl_s:
                # Too old even for stale-serving: drop it.
                del self._entries[key]
                self._event("miss")
                return None
            fresh = (entry.generation == generation
                     and age <= self.config.ttl_s)
            if fresh:
                self._entries.move_to_end(key)
                self._event("hit")
                return dict(entry.body), "fresh"
            if allow_stale:
                self._event("stale_hit")
                return dict(entry.body), "stale"
            self._event("miss")
            return None

    def put(self, tenant: str, fingerprint: str, generation: int,
            body: dict) -> None:
        key = (tenant, fingerprint)
        with self._lock:
            self._entries[key] = _CacheEntry(dict(body), generation,
                                             self._clock())
            self._entries.move_to_end(key)
            self._event("store")
            while len(self._entries) > self.config.capacity:
                self._entries.popitem(last=False)
                self._event("evict")

    def invalidate(self) -> int:
        """Drop everything (ops hammer); returns entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        if dropped:
            self._event("invalidate")
        return dropped


# ----------------------------------------------------------------------
# Connection bookkeeping
# ----------------------------------------------------------------------
class _Connection:
    """One accepted socket's state, shared with the reaper.

    ``phase`` + ``phase_started`` are what the reaper judges: a
    connection sitting in ``head``/``body`` past the corresponding
    deadline is a slowloris and gets its socket closed from under the
    worker (the blocked ``recv`` then raises and the worker exits).
    All mutation happens under ``lock``.
    """

    __slots__ = ("sock", "addr", "lock", "phase", "phase_started",
                 "requests", "closed")

    def __init__(self, sock: socket.socket, addr, now: float):
        self.sock = sock
        self.addr = addr
        self.lock = threading.Lock()
        self.phase = _IDLE
        self.phase_started = now
        self.requests = 0
        self.closed = False

    def enter(self, phase: str, now: float) -> None:
        with self.lock:
            self.phase = phase
            self.phase_started = now

    def kill(self) -> bool:
        """Close the socket out from under the worker (reaper/drain)."""
        with self.lock:
            if self.closed:
                return False
            self.closed = True
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self.sock.close()
        return True


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------
class Gateway:
    """Threaded stdlib HTTP front-end over a ResilientSearchService.

    Parameters
    ----------
    service:
        The :class:`ResilientSearchService` to expose.  Tenancy,
        criticality and deadlines map straight onto its admission
        plane and cooperative deadlines.
    config:
        :class:`GatewayConfig`; the defaults suit tests and demos.
    telemetry:
        Optional shared :class:`~repro.obs.Telemetry`; defaults to the
        *service's* telemetry so gateway spans and service spans land
        in one trace and one registry.
    clock:
        Injectable monotonic clock for cache TTLs and drain
        accounting.  The socket timeouts always use real time — the
        wire is real even when the clock under test is not.

    Endpoints: ``POST /search``, ``POST /ingest``, ``POST /delete``
    (or ``DELETE /items/<id>``), ``GET /stats``, ``GET /metrics``
    (Prometheus text), ``GET /healthz`` (liveness), ``GET /readyz``
    (readiness — 503 while draining).
    """

    def __init__(self, service: ResilientSearchService,
                 config: GatewayConfig | None = None, *,
                 telemetry: Telemetry | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.service = service
        self.config = config or GatewayConfig()
        self.telemetry = telemetry or service.telemetry
        self._clock = clock
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._port: int | None = None
        self._accept_thread: threading.Thread | None = None
        self._reaper_thread: threading.Thread | None = None
        self._workers: set[threading.Thread] = set()
        self._conns: set[_Connection] = set()
        self._inflight_requests = 0
        self._started = False
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._stop_reaper = threading.Event()
        self._drain_owner = False
        self._drain_reason: str | None = None
        self._prev_handlers: dict[int, object] = {}
        self.cache = ResultCache(self.config.cache, clock=clock,
                                 registry=self.telemetry.registry)
        memory = getattr(self.service, "memory", None)
        if memory is not None:
            memory.register("result_cache", self.cache.retained_bytes)
        self._setup_metrics()

    # -- metrics -----------------------------------------------------
    def _setup_metrics(self) -> None:
        registry = self.telemetry.registry
        self._m_requests = registry.counter(
            "gateway_requests_total", "HTTP requests by route and code",
            labels=("route", "code"))
        self._m_request_seconds = registry.histogram(
            "gateway_request_seconds",
            "wall time per HTTP request, first byte to response",
            buckets=LATENCY_BUCKETS)
        self._m_connections = registry.counter(
            "gateway_connections_total",
            "connection lifecycle events",
            labels=("event",))  # accepted/shed_at_accept/reaped/closed
        self._m_active = registry.gauge(
            "gateway_active_connections", "sockets currently open").child()
        self._m_active.set(0)
        self._m_inflight = registry.gauge(
            "gateway_inflight_requests",
            "requests currently being handled").child()
        self._m_inflight.set(0)
        self._m_malformed = registry.counter(
            "gateway_malformed_total",
            "wire-level rejections by reason",
            labels=("reason",))
        self._m_draining = registry.gauge(
            "gateway_draining", "1 while the gateway is draining")
        self._m_draining.set(0)
        self._m_drain_seconds = registry.gauge(
            "gateway_drain_seconds",
            "how long the last graceful drain took")

    # -- lifecycle ---------------------------------------------------
    @property
    def port(self) -> int:
        if self._port is None:
            raise GatewayError("gateway is not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    @property
    def ready(self) -> bool:
        return self._started and not self._draining.is_set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start(self) -> "Gateway":
        with self._lock:
            if self._started:
                raise GatewayError("gateway already started")
            if self._draining.is_set():
                raise GatewayError("gateway already drained; build a "
                                   "new one (crash-only restart)")
            self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(_ACCEPT_BACKLOG)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gateway-accept", daemon=True)
        self._reaper_thread = threading.Thread(
            target=self._reaper_loop, name="gateway-reaper", daemon=True)
        self._accept_thread.start()
        self._reaper_thread.start()
        self.telemetry.events.emit(
            "gateway", message=f"listening on {self.url}",
            host=self.config.host, port=self.port)
        return self

    def __enter__(self) -> "Gateway":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.drain(reason="context-exit")
        return False

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only).

        The handler only spawns the drainer thread — signal context
        does no real work — and chains nothing: drain is the whole
        shutdown story (crash-only: whatever it misses, WAL replay
        recovers).
        """
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._prev_handlers[signum] = signal.signal(
                signum, self._on_signal)

    def restore_signal_handlers(self) -> None:
        for signum, handler in self._prev_handlers.items():
            signal.signal(signum, handler)
        self._prev_handlers.clear()

    def _on_signal(self, signum, frame) -> None:
        threading.Thread(
            target=self.drain,
            kwargs={"reason": signal.Signals(signum).name},
            name="gateway-drainer", daemon=True).start()

    def drain(self, reason: str = "requested") -> bool:
        """Graceful drain; returns ``True`` for the thread that ran it.

        Readiness flips first, the listener closes (nothing new is
        accepted), idle keep-alive connections are closed, then every
        in-flight request gets until the drain deadline to finish —
        after which stragglers are cut.  Finally the ingest WAL is
        synced and telemetry flushed.  Idempotent: concurrent callers
        wait for the first drain to complete.
        """
        with self._lock:
            if self._drain_owner:
                owner = False
            else:
                owner = self._drain_owner = True
                self._drain_reason = reason
                self._draining.set()
        if not owner:
            self._drained.wait()
            return False
        try:
            self._drain()
        finally:
            self._drained.set()  # other callers block on this event
        return True

    def _drain(self) -> None:
        reason = self._drain_reason
        started = self._clock()
        self._m_draining.set(1)
        self.telemetry.events.emit(
            "gateway_drain", message=f"drain started ({reason})",
            reason=reason, inflight=self._inflight_requests,
            connections=len(self._conns), level="warn")
        if self._listener is not None:
            # shutdown() before close(): a close alone does not wake a
            # thread blocked in accept() — the kernel socket survives
            # under the syscall's reference and keeps accepting.
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                self._listener.close()
        # The accept loop exits on the closed listener; once it has,
        # every accepted connection's worker is in _workers to join.
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
        # Idle *keep-alive* connections hold no accepted request; close
        # them now so they cannot start new work mid-drain.  A freshly
        # accepted connection (no request served yet) is left to its
        # worker: its first request may already be on the wire, and it
        # must get a clean 503, not a reset.
        for conn in list(self._conns):
            with conn.lock:
                idle = conn.phase == _IDLE and conn.requests > 0
            if idle:
                conn.kill()
        deadline = time.monotonic() + self.config.drain_deadline_s
        for worker in self._live_workers():
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        # Past the deadline: cut whatever is left (crash-only).
        cut = 0
        for conn in list(self._conns):
            if conn.kill():
                cut += 1
        for worker in self._live_workers():
            worker.join(timeout=0.2)
        self._stop_reaper.set()
        if self._reaper_thread is not None:
            self._reaper_thread.join(
                timeout=self.config.reaper_interval_s * 4 + 1.0)
        # Flush durable state: WAL first (acked writes), then spans.
        if self.service.ingestor is not None:
            with contextlib.suppress(Exception):
                self.service.ingestor.log.sync()
        duration = self._clock() - started
        self._m_drain_seconds.set(duration)
        self.telemetry.events.emit(
            "gateway_drain",
            message=f"drain finished in {duration * 1000:.1f}ms",
            reason=reason, duration_ms=duration * 1000.0,
            connections_cut=cut)
        with contextlib.suppress(Exception):
            self.telemetry.close()

    def _live_workers(self) -> list[threading.Thread]:
        return [worker for worker in list(self._workers)
                if worker.is_alive()]

    def wait_drained(self, timeout: float | None = None) -> bool:
        return self._drained.wait(timeout)

    # -- accept / reap loops ----------------------------------------
    def _queue_saturated(self) -> bool:
        return (self.service.admission.queue_depth()
                >= _SHED_AT_QUEUE_DEPTH)

    def _accept_loop(self) -> None:
        while not self._draining.is_set():
            try:
                client, addr = self._listener.accept()
            except OSError:
                break  # listener closed by drain
            if self._draining.is_set():
                self._reject_at_accept(client, "draining")
                continue
            with self._lock:
                crowded = len(self._conns) >= self.config.max_connections
            if crowded or self._queue_saturated():
                reason = "max_connections" if crowded else "queue_full"
                self._reject_at_accept(client, reason)
                continue
            self._m_connections.labels(event="accepted").inc()
            # Configure the socket before publishing it: once in
            # _conns, a drain or the reaper may close it at any time.
            client.settimeout(self.config.read_timeout_s)
            conn = _Connection(client, addr, self._clock())
            with self._lock:
                self._conns.add(conn)
                self._m_active.set(len(self._conns))
            worker = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"gateway-conn-{addr[1]}", daemon=True)
            # Start before publishing: drain joins every thread in
            # _workers, and joining an unstarted thread raises.  The
            # lock keeps the worker's own discard behind this add.
            with self._lock:
                worker.start()
                self._workers.add(worker)

    def _reject_at_accept(self, client: socket.socket,
                          reason: str) -> None:
        """Load-shed before a worker is even spawned: one canned 503.

        The write is best-effort on a short timeout — a shed path must
        never block the accept loop behind a slow victim.
        """
        self._m_connections.labels(event="shed_at_accept").inc()
        self._m_requests.labels(route="accept", code="503").inc()
        body = json.dumps({"error": "overloaded", "reason": reason})
        raw = (f"HTTP/1.1 503 Service Unavailable\r\n"
               f"Content-Type: application/json\r\n"
               f"Content-Length: {len(body)}\r\n"
               f"Retry-After: {_RETRY_AFTER_S:g}\r\n"
               f"Connection: close\r\n\r\n{body}").encode("ascii")
        with contextlib.suppress(OSError):
            client.settimeout(0.5)
            client.sendall(raw)
        with contextlib.suppress(OSError):
            client.close()

    def _reaper_loop(self) -> None:
        """Evict connections stalled mid-request (slowloris armor).

        Phase deadlines: ``head`` bytes must complete within
        ``header_deadline_s`` of the request's first byte, ``body``
        within ``body_deadline_s``, and an ``idle`` keep-alive may sit
        for ``idle_timeout_s``.  ``handle`` is never reaped — that is
        the service's deadline's job, and cutting a socket mid-
        response is exactly the reset the drain contract forbids.
        """
        limits = {_HEAD: self.config.header_deadline_s,
                  _BODY: self.config.body_deadline_s,
                  _IDLE: self.config.idle_timeout_s}
        while not self._stop_reaper.wait(self.config.reaper_interval_s):
            now = self._clock()
            for conn in list(self._conns):
                with conn.lock:
                    phase = conn.phase
                    age = now - conn.phase_started
                limit = limits.get(phase)
                if limit is None or age <= limit:
                    continue
                if phase in (_HEAD, _BODY):
                    self._m_connections.labels(event="reaped").inc()
                    self._m_malformed.labels(reason="slowloris").inc()
                    self.telemetry.events.emit(
                        "gateway_reap", phase=phase, age_s=age,
                        addr=str(conn.addr), level="warn")
                if conn.kill():
                    self._forget(conn)

    def _forget(self, conn: _Connection) -> None:
        with self._lock:
            self._conns.discard(conn)
            self._m_active.set(len(self._conns))

    # -- connection worker ------------------------------------------
    def _serve_connection(self, conn: _Connection) -> None:
        try:
            buffer = b""
            while not conn.closed:
                if self._draining.is_set() and conn.requests > 0:
                    break  # keep-alive ends at drain
                try:
                    request, buffer = self._read_request(conn, buffer)
                except BadRequest as exc:
                    self._m_malformed.labels(reason=exc.reason).inc()
                    self._send_response(
                        conn, exc.status,
                        {"error": exc.reason, "detail": exc.detail},
                        close=True)
                    break
                except (OSError, ConnectionError):
                    break  # timeout, reap, or client went away
                if request is None:
                    break  # clean EOF between requests
                conn.requests += 1
                keep_alive = self._handle(conn, request)
                if not keep_alive:
                    break
        finally:
            conn.kill()
            self._forget(conn)
            self._m_connections.labels(event="closed").inc()
            with self._lock:
                self._workers.discard(threading.current_thread())

    def _read_request(self, conn: _Connection, buffer: bytes):
        """Read one full request (head + body) off the socket.

        Returns ``(request_dict | None, leftover_buffer)``; ``None``
        means clean EOF before any request byte.  Size bounds are
        enforced *while reading*, so an attacker cannot make the
        gateway buffer an unbounded head or body.
        """
        config = self.config
        # --- head ---
        conn.enter(_IDLE, self._clock())
        while b"\r\n\r\n" not in buffer:
            if len(buffer) > config.max_header_bytes:
                raise BadRequest(431, "oversize_header",
                                  f"request head exceeds "
                                  f"{config.max_header_bytes} bytes")
            chunk = conn.sock.recv(4096)
            if not chunk:
                if buffer:
                    raise BadRequest(400, "truncated_head",
                                      "connection closed mid-header")
                return None, b""
            if not buffer:
                conn.enter(_HEAD, self._clock())
            buffer += chunk
        head, _, buffer = buffer.partition(b"\r\n\r\n")
        if len(head) > config.max_header_bytes:
            raise BadRequest(431, "oversize_header",
                              f"request head exceeds "
                              f"{config.max_header_bytes} bytes")
        try:
            text = head.decode("iso-8859-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise BadRequest(400, "bad_head", "undecodable header")
        lines = text.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise BadRequest(400, "bad_request_line",
                              f"malformed request line {lines[0]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep or not name.strip():
                raise BadRequest(400, "bad_header",
                                  f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        # --- body ---
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise BadRequest(400, "bad_content_length",
                              f"Content-Length must be an integer, "
                              f"got {length_raw!r}")
        if length < 0:
            raise BadRequest(400, "bad_content_length",
                              "Content-Length must be non-negative")
        if length > config.max_body_bytes:
            raise BadRequest(413, "oversize_body",
                              f"body of {length} bytes exceeds "
                              f"{config.max_body_bytes}")
        if length > len(buffer):
            conn.enter(_BODY, self._clock())
        while len(buffer) < length:
            chunk = conn.sock.recv(min(65536,
                                       length - len(buffer)))
            if not chunk:
                raise BadRequest(400, "truncated_body",
                                  f"connection closed after "
                                  f"{len(buffer)} of {length} body "
                                  f"bytes")
            buffer += chunk
        body, buffer = buffer[:length], buffer[length:]
        conn.enter(_HANDLE, self._clock())
        return {"method": method.upper(), "target": target,
                "version": version, "headers": headers,
                "body": body}, buffer

    # -- request handling -------------------------------------------
    def _handle(self, conn: _Connection, request: dict) -> bool:
        """Route one parsed request; returns keep-alive?"""
        started = self._clock()
        with self._lock:
            self._inflight_requests += 1
            self._m_inflight.set(self._inflight_requests)
        headers = request["headers"]
        wants_close = (headers.get("connection", "").lower() == "close"
                       or request["version"] == "HTTP/1.0")
        draining = self._draining.is_set()
        route = "unknown"
        try:
            with self.telemetry.tracer.span(
                    "http_request", method=request["method"],
                    target=request["target"]) as span:
                if draining and not self._is_health_route(request):
                    # The request arrived after drain began: clean 503,
                    # never a reset — the client can retry elsewhere.
                    status, body, extra = 503, {
                        "error": "draining",
                        "detail": "gateway is draining; retry "
                                  "against another instance"}, {
                        "Retry-After": f"{_RETRY_AFTER_S:g}"}
                    route = "draining"
                else:
                    status, body, extra, route = self._route(request)
                span.set_attribute("route", route)
                span.set_attribute("code", status)
        except BadRequest as exc:
            self._m_malformed.labels(reason=exc.reason).inc()
            status, body, extra = exc.status, {
                "error": exc.reason, "detail": exc.detail}, {}
            route = route if route != "unknown" else "bad_request"
        except Exception as exc:  # containment: never a traceback
            status, body, extra = 500, {
                "error": "internal",
                "detail": f"{type(exc).__name__}: {exc}"}, {}
        close = wants_close or self._draining.is_set() or status in (
            431, 413)
        sent = self._send_response(conn, status, body, close=close,
                                   extra=extra)
        elapsed = self._clock() - started
        self._m_requests.child(route, str(status)).inc()
        self._m_request_seconds.observe(elapsed)
        with self._lock:
            self._inflight_requests -= 1
            self._m_inflight.set(self._inflight_requests)
        return sent and not close

    @staticmethod
    def _is_health_route(request: dict) -> bool:
        return request["target"].split("?", 1)[0] in ("/healthz",
                                                      "/readyz")

    def _route(self, request: dict):
        """Dispatch; returns ``(status, body, extra_headers, route)``."""
        method = request["method"]
        path = request["target"].split("?", 1)[0]
        if path == "/healthz":
            return 200, {"status": "alive"}, {}, "healthz"
        if path == "/readyz":
            if self.ready:
                return 200, {"ready": True}, {}, "readyz"
            return 503, {"ready": False, "draining": True}, {}, "readyz"
        wanted = _ROUTE_METHODS.get(path)
        if wanted is not None and method != wanted:
            return 405, {"error": "method_not_allowed"}, {}, path[1:]
        if path == "/metrics":
            return 200, self.telemetry.registry.to_prometheus(), \
                {"Content-Type": "text/plain; version=0.0.4"}, "metrics"
        if path == "/stats":
            stats = self.service.stats()
            stats["gateway"] = self.describe()
            return 200, stats, {}, "stats"
        if path == "/search":
            return (*self._handle_search(request), "search")
        if path == "/ingest":
            return (*self._handle_ingest(request), "ingest")
        if path == "/delete" and method == "POST":
            payload = self._json_body(request)
            item_id = payload.get("item_id")
            if isinstance(item_id, bool) or not isinstance(item_id, int):
                raise BadRequest(400, "bad_body",
                                  "'item_id' must be an integer")
            return (*self._handle_delete(request, item_id), "delete")
        if path.startswith("/items/") and method == "DELETE":
            raw = path[len("/items/"):]
            try:
                item_id = int(raw)
            except ValueError:
                raise BadRequest(400, "bad_path",
                                  f"item id must be an integer, "
                                  f"got {raw!r}")
            return (*self._handle_delete(request, item_id), "delete")
        return 404, {"error": "not_found", "path": path}, {}, \
            "not_found"

    # -- auth + headers ---------------------------------------------
    def _authenticate(self, headers: Mapping[str, str]) -> str:
        """Resolve the tenant for this request (or raise 401)."""
        api_keys = self.config.api_keys
        if api_keys:
            key = headers.get("x-api-key")
            if key is None:
                raise BadRequest(401, "missing_api_key",
                                  "X-Api-Key header is required")
            tenant = api_keys.get(key)
            if tenant is None:
                raise BadRequest(401, "unknown_api_key",
                                  "unrecognized API key")
            return tenant
        return headers.get("x-tenant", "default") or "default"

    @staticmethod
    def _criticality(headers: Mapping[str, str]) -> str | None:
        raw = headers.get("x-criticality")
        if raw is None or not raw.strip():
            return None
        value = raw.strip().lower()
        from .admission import CRITICALITIES
        if value not in CRITICALITIES:
            raise BadRequest(400, "bad_criticality",
                              f"X-Criticality must be one of "
                              f"{CRITICALITIES}, got {raw!r}")
        return value

    @staticmethod
    def _json_body(request: dict) -> dict:
        if not request["body"]:
            raise BadRequest(400, "bad_body",
                              "request body must be JSON")
        try:
            payload = json.loads(request["body"].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(400, "bad_json",
                              f"body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise BadRequest(400, "bad_body",
                              "request body must be a JSON object")
        return payload

    # -- /search ------------------------------------------------------
    def _degradation_active(self) -> bool:
        """Is the backend shedding quality (brownout or open breaker)?

        This is the *only* condition under which an expired or
        past-generation cache entry may be served.
        """
        if self.service.admission.brownout.level > 0:
            return True
        return (self.service.embed_breaker.state is not
                CircuitState.CLOSED
                or self.service.index_breaker.state is not
                CircuitState.CLOSED)

    def _handle_search(self, request: dict):
        headers = request["headers"]
        tenant = self._authenticate(headers)
        criticality = self._criticality(headers)
        deadline_s, deadline_source = parse_deadline_header(
            headers.get("x-deadline-ms"), self.config.max_deadline_ms)
        normalized = normalize_search_request(self._json_body(request))
        fingerprint = _digest(normalized)
        generation = self.service.generation
        cache_on = self.config.cache.enabled and \
            headers.get("cache-control", "").lower() != "no-cache"
        if cache_on:
            cached = self.cache.get(tenant, fingerprint, generation)
            if cached is not None:
                body = cached[0]
                body["cache"] = "hit"
                body["stale"] = False
                return 200, body, {"X-Cache": "hit"}
        response = self._call_search(normalized, deadline_s,
                                     deadline_source, tenant,
                                     criticality)
        outcome = response.outcome
        if response.ok:
            body = self._search_body(response)
            if cache_on and outcome.status == "ok":
                self.cache.put(tenant, fingerprint,
                               outcome.generation, body)
            body["cache"] = "miss"
            return 200, body, {"X-Cache": "miss"}
        # The live path failed.  Under brownout/breaker-open an
        # expired or past-generation entry beats an error page —
        # stale-while-revalidate, explicitly flagged.
        if cache_on and self._degradation_active():
            stale = self.cache.get(tenant, fingerprint, generation,
                                   allow_stale=True)
            if stale is not None:
                body = stale[0]
                body["cache"] = "stale"
                body["stale"] = True
                body["stale_reason"] = (outcome.shed_reason
                                        or outcome.status)
                return 200, body, {"X-Cache": "stale",
                                   "Warning": "110 - response is "
                                   "stale"}
        status = self._status_code(outcome)
        body = {"error": outcome.status, "detail": outcome.error,
                "outcome": self._outcome_body(outcome)}
        extra = {}
        if status in (429, 503):
            extra["Retry-After"] = f"{_RETRY_AFTER_S:g}"
        return status, body, extra

    @staticmethod
    def _status_code(outcome) -> int:
        if outcome.status == "shed":
            return SHED_STATUS_CODES.get(outcome.shed_reason or "", 503)
        return STATUS_CODES.get(outcome.status, 500)

    def _call_search(self, normalized: dict, deadline_s: float | None,
                     deadline_source: str, tenant: str,
                     criticality: str | None):
        service = self.service
        kwargs = dict(k=normalized["k"],
                      class_name=normalized["class_name"],
                      deadline=deadline_s, tenant=tenant,
                      criticality=criticality,
                      deadline_source=deadline_source)
        if normalized["kind"] == "ingredients":
            return service.search_by_ingredients(
                normalized["ingredients"], **kwargs)
        recipe = self._resolve_recipe(normalized["recipe_id"])
        if normalized["kind"] == "without":
            return service.search_without(recipe, normalized["without"],
                                          **kwargs)
        return service.search_by_recipe(recipe, **kwargs)

    def _resolve_recipe(self, recipe_id: int):
        dataset = self.service.engine.dataset
        try:
            if recipe_id < 0:
                raise IndexError(recipe_id)
            return dataset[recipe_id]
        except (IndexError, KeyError):
            raise BadRequest(400, "bad_recipe_id",
                              f"recipe_id {recipe_id} is not in the "
                              f"dataset")

    @staticmethod
    def _outcome_body(outcome) -> dict:
        return {
            "status": outcome.status,
            "tenant": outcome.tenant,
            "shed_reason": outcome.shed_reason,
            "stage": outcome.stage,
            "attempts": outcome.attempts,
            "generation": outcome.generation,
            "latency_ms": outcome.latency * 1000.0,
            "deadline_source": outcome.deadline_source,
            "shards_answered": outcome.shards_answered,
            "shards_total": outcome.shards_total,
        }

    def _search_body(self, response) -> dict:
        results = [{
            "recipe_id": str(result.recipe.recipe_id),
            "title": result.recipe.title,
            "class_id": result.recipe.class_id,
            "distance": result.distance,
            "corpus_row": result.corpus_row,
        } for result in response.results]
        return {
            "status": response.outcome.status,
            "generation": response.generation,
            "degraded": response.degraded,
            "stale": False,
            "results": results,
            "outcome": self._outcome_body(response.outcome),
        }

    # -- /ingest, /delete ---------------------------------------------
    _INGEST_CODES = {"ok": 200, "invalid": 400, "error": 500,
                     "unavailable": 503}

    def _handle_ingest(self, request: dict):
        self._authenticate(request["headers"])
        payload = self._json_body(request)
        recipe_payload = payload.get("recipe")
        if not isinstance(recipe_payload, dict):
            raise BadRequest(400, "bad_body",
                              "'recipe' must be a JSON object")
        recipe = payload_to_recipe(recipe_payload, -1)
        outcome = self.service.ingest(
            recipe, class_name=payload.get("class_name"))
        return self._ingest_reply(outcome)

    def _handle_delete(self, request: dict, item_id: int):
        self._authenticate(request["headers"])
        outcome = self.service.delete(item_id)
        return self._ingest_reply(outcome)

    def _ingest_reply(self, outcome):
        status = self._INGEST_CODES.get(outcome.status, 500)
        body = {
            "op": outcome.op,
            "status": outcome.status,
            "item_id": outcome.item_id,
            "generation": outcome.generation,
            "epoch": outcome.epoch,
            "durable": outcome.durable,
            "replaced": outcome.replaced,
            "error": outcome.error,
        }
        extra = {"Retry-After": f"{_RETRY_AFTER_S:g}"} \
            if status == 503 else {}
        return status, body, extra

    # -- response writing ---------------------------------------------
    def _send_response(self, conn: _Connection, status: int, body,
                       *, close: bool = False,
                       extra: Mapping[str, str] | None = None) -> bool:
        """Serialize and send; ``False`` when the client went away."""
        extra = dict(extra or {})
        if isinstance(body, (dict, list)):
            payload = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        else:
            payload = str(body).encode("utf-8")
            content_type = extra.pop("Content-Type", "text/plain")
        reason = _REASON_PHRASES.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(payload)}",
                f"Connection: {'close' if close else 'keep-alive'}"]
        for name, value in extra.items():
            head.append(f"{name}: {value}")
        raw = ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + payload
        try:
            conn.sock.sendall(raw)
            return True
        except (OSError, ConnectionError):
            # DisconnectMidResponse territory: the client is gone.
            # Nothing to tell it; the connection just closes.
            self._m_connections.labels(event="send_failed").inc()
            return False

    # -- introspection ------------------------------------------------
    def describe(self) -> dict:
        with self._lock:
            connections = len(self._conns)
            inflight = self._inflight_requests
        return {
            "url": self.url if self._port is not None else None,
            "ready": self.ready,
            "draining": self.draining,
            "connections": connections,
            "inflight_requests": inflight,
            "cache_entries": len(self.cache),
            "cache_enabled": self.config.cache.enabled,
            "auth": bool(self.config.api_keys),
            "drain_reason": self._drain_reason,
        }
