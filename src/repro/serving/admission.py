"""Overload control: adaptive admission, fair queuing, brownout.

A fixed in-flight cap survives a traffic spike by shedding blindly:
it cannot tell a paying user from a background probe, lets one noisy
tenant crowd everyone else out, wastes embed and index work on
requests whose deadline already died while they waited, and keeps the
same concurrency whether the backend is healthy or drowning.  This
module is the control plane, composed from four pieces:

* :class:`TokenBucket` — per-tenant rate limiting (sustained rate plus
  burst) so a flooding tenant is clipped at the front door before it
  can queue at all;
* :class:`FairQueue` — a weighted deficit-round-robin queue with
  bounded per-tenant depth, strict criticality tiers (user traffic
  always drains before background probe / anti-entropy traffic), and
  in-queue deadline expiry: a request whose budget died while queued
  is dropped at dequeue, never handed a slot;
* :class:`AdaptiveLimiter` — an AIMD concurrency limit steered by
  observed request p95 against the latency SLO target
  (:data:`~repro.obs.slo` exports the default), clamped to a
  floor/ceiling so it can neither collapse nor run away;
* :class:`BrownoutController` — a declarative degradation ladder
  (shrink per-request ``k`` → route to the model-free
  :class:`~repro.serving.degraded.DegradedRanker` → shed background
  tenants) stepped one level at a time by sustained
  pressure, released in reverse order when the storm passes, with
  every transition emitted as an event and a ``brownout_level`` gauge.

:class:`AdmissionController` composes them behind the two calls the
service makes: :meth:`~AdmissionController.acquire` (rate-limit check,
enqueue, wait for a slot or expire) and
:meth:`~AdmissionController.release` (free the slot, feed the limiter,
re-evaluate brownout pressure).  All waiting is a poll loop on the
injected ``clock``/``sleep`` pair, so chaos tests run on a fake clock
with zero real sleeping, exactly like the rest of the serving stack.

Pressure is deliberately *demand over limit* (inflight + queued over
the current concurrency limit), not raw latency: when latency rises
the limiter shrinks the limit, which raises pressure, which engages
the ladder — one causal chain instead of two competing signals, and it
releases promptly once demand drains even while the latency window is
still full of storm-era samples.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..obs.slo import DEFAULT_STAGE_P99_S
from .deadline import Deadline

__all__ = ["TokenBucket", "FairQueue", "AdaptiveLimiter",
           "BrownoutController", "AdmissionController",
           "TenantPolicy", "AdmissionConfig", "BrownoutConfig",
           "AdmissionDecision", "CRITICALITIES", "SHED_REASONS",
           "BROWNOUT_LADDER"]

#: Criticality tiers, most important first; the fair queue drains tier
#: 0 completely before touching tier 1.
CRITICALITIES = ("user", "background")

#: Every shed outcome carries exactly one of these reasons.
SHED_REASONS = ("rate_limit", "queue_full", "expired", "brownout",
                "inflight_limit")

#: The degradation ladder, cheapest mechanism first.  Level 0
#: ("full") is implicit; engaging steps right, releasing steps left.
BROWNOUT_LADDER = ("shrink_k", "degraded", "shed_background")

#: Slot-wait poll period of a queued request, in seconds.
_POLL_INTERVAL_S = 0.002
#: AIMD steps: above the p95 target the limit is multiplied by
#: ``_DECREASE_FACTOR``; at or below it, it grows by ``_INCREASE_STEP``.
_DECREASE_FACTOR = 0.7
_INCREASE_STEP = 1.0

#: Fair-queue weight of a tenant with no configured policy.
_DEFAULT_WEIGHT = 1.0
#: Deficit-round-robin top-up per rotation, scaled by lane weight.
_QUANTUM = 1.0


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantPolicy:
    """Admission policy for one tenant (or the default for unknowns)."""

    name: str
    weight: float = 1.0            # fair-queue share (relative)
    rate: float | None = None      # sustained requests/sec; None = no cap
    burst: float = 10.0            # token-bucket depth
    criticality: str = "user"      # default tier for this tenant

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("tenant rate must be positive when set")
        if self.burst <= 0:
            raise ValueError("tenant burst must be positive")
        if self.criticality not in CRITICALITIES:
            raise ValueError(f"unknown criticality "
                             f"{self.criticality!r}; expected one of "
                             f"{CRITICALITIES}")


#: The policy an unconfigured tenant is admitted under.
_UNKNOWN_TENANT = TenantPolicy("default")


@dataclass(frozen=True)
class BrownoutConfig:
    """Degradation-ladder tuning.

    Pressure is demand/limit from the admission controller; 1.0 means
    running exactly at the concurrency limit with an empty queue.
    ``engage_pressure`` must exceed ``release_pressure`` to give the
    ladder hysteresis.  Dwell times gate *each* step of
    :data:`BROWNOUT_LADDER` so one pressure blip cannot run the whole
    ladder.
    """

    engage_pressure: float = 1.5
    release_pressure: float = 0.8
    dwell_s: float = 0.25          # sustained-hot time per engage step
    release_dwell_s: float = 0.5   # sustained-cool time per release step

    def __post_init__(self):
        if self.engage_pressure <= self.release_pressure:
            raise ValueError("engage_pressure must exceed "
                             "release_pressure (hysteresis)")


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission tuning; the defaults adapt, :meth:`static` pins a cap."""

    tenants: tuple[TenantPolicy, ...] = ()
    max_queue_depth: int = 64      # per tenant; 0 sheds instead of queueing
    # -- adaptive concurrency (AIMD) --------------------------------
    initial_limit: int = 8
    min_limit: int = 2
    max_limit: int = 64
    #: Request-latency p95 target steering the limiter; defaults to
    #: the same figure as the default serving latency SLO.
    target_p95_s: float = DEFAULT_STAGE_P99_S
    evaluate_every: int = 16       # completions between AIMD steps
    latency_window: int = 128      # completions kept for the p95
    brownout: BrownoutConfig = field(default_factory=BrownoutConfig)

    def __post_init__(self):
        if not 1 <= self.min_limit <= self.initial_limit <= self.max_limit:
            raise ValueError("need 1 <= min_limit <= initial_limit "
                             "<= max_limit")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")

    @classmethod
    def static(cls, limit: int) -> "AdmissionConfig":
        """A fixed in-flight cap: at most ``limit`` requests admitted,
        the rest shed at once with reason ``inflight_limit``.

        AIMD cannot move a limit pinned at floor = ceiling, and the
        brownout ladder never engages: with no queue, pressure is
        inflight / limit <= 1, below its ``engage_pressure`` of 1.5.
        """
        return cls(max_queue_depth=0, initial_limit=limit,
                   min_limit=limit, max_limit=limit)


@dataclass(frozen=True)
class AdmissionDecision:
    """What :meth:`AdmissionController.acquire` resolved to."""

    admitted: bool
    tenant: str
    criticality: str
    reason: str | None = None      # one of SHED_REASONS when shed
    detail: str | None = None      # human-readable shed description
    queue_wait_s: float = 0.0


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class TokenBucket:
    """Classic lazy-refill token bucket on an injectable clock."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_take(self) -> bool:
        with self._lock:
            self._refill_locked()
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens


# ----------------------------------------------------------------------
# Weighted deficit-round-robin fair queue
# ----------------------------------------------------------------------
class FairQueue:
    """Weighted DRR across tenants, strict priority across tiers.

    Classic deficit round robin with unit cost: each tenant lane keeps
    a deficit counter topped up by ``_QUANTUM * weight`` once per
    rotation; a lane serves while its deficit covers the cost, so over
    any backlogged window tenants drain in proportion to their weights
    with the textbook bounded-deficit guarantee (a lane's lag never
    exceeds one quantum share plus one cost unit).  Lanes live per
    ``(tier, tenant)``; lower tiers drain completely first.

    ``drop_if(item)`` (when given) is consulted at dequeue for every
    head-of-lane item and returns a drop reason or ``None``; dropped
    items go to ``on_drop(tenant, item, reason)`` and never count
    against the lane's deficit — this is the in-queue deadline-expiry
    gate.  The structure is not thread-safe; the admission controller
    serializes access under its own lock.
    """

    def __init__(self, weights: dict[str, float] | None = None, *,
                 max_depth: int = 64,
                 drop_if: Callable[[object], str | None] | None = None,
                 on_drop: Callable[[str, object, str], None] | None = None):
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        self._weights = dict(weights or {})
        self._max_depth = int(max_depth)
        self._drop_if = drop_if
        self._on_drop = on_drop
        self._lanes: dict[tuple[int, str], deque] = {}
        self._deficit: dict[tuple[int, str], float] = {}
        self._rotation: dict[int, deque[str]] = {}
        self._depth_by_tenant: dict[str, int] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, _DEFAULT_WEIGHT)

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._weights[tenant] = float(weight)

    def depth(self, tenant: str | None = None) -> int:
        if tenant is None:
            return self._size
        return self._depth_by_tenant.get(tenant, 0)

    def deficit(self, tenant: str, tier: int = 0) -> float:
        return self._deficit.get((tier, tenant), 0.0)

    def push(self, tenant: str, item, *, tier: int = 0) -> bool:
        """Enqueue; ``False`` when the tenant's lane is full."""
        if self._depth_by_tenant.get(tenant, 0) >= self._max_depth:
            return False
        key = (int(tier), tenant)
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = deque()
            self._deficit.setdefault(key, 0.0)
            self._rotation.setdefault(int(tier), deque()).append(tenant)
        elif not lane and tenant not in self._rotation[int(tier)]:
            self._rotation[int(tier)].append(tenant)
        lane.append(item)
        self._depth_by_tenant[tenant] = \
            self._depth_by_tenant.get(tenant, 0) + 1
        self._size += 1
        return True

    def pop(self):
        """Next ``(tenant, item)`` per DRR order, or ``None``."""
        for tier in sorted(self._rotation):
            served = self._pop_tier(tier)
            if served is not None:
                return served
        return None

    def _drop_expired_head(self, tier: int, tenant: str,
                           lane: deque) -> None:
        """Shed dead items off the lane head before judging its turn."""
        if self._drop_if is None:
            return
        while lane:
            reason = self._drop_if(lane[0])
            if reason is None:
                return
            item = lane.popleft()
            self._note_removed(tenant)
            if self._on_drop is not None:
                self._on_drop(tenant, item, reason)

    def _note_removed(self, tenant: str) -> None:
        self._size -= 1
        remaining = self._depth_by_tenant.get(tenant, 1) - 1
        if remaining <= 0:
            self._depth_by_tenant.pop(tenant, None)
        else:
            self._depth_by_tenant[tenant] = remaining

    def _pop_tier(self, tier: int):
        rotation = self._rotation[tier]
        while rotation:
            tenant = rotation[0]
            key = (tier, tenant)
            lane = self._lanes[key]
            self._drop_expired_head(tier, tenant, lane)
            if not lane:
                # Empty lane leaves the rotation and forfeits its
                # saved deficit (standard DRR: no hoarding while idle).
                rotation.popleft()
                self._deficit[key] = 0.0
                continue
            if self._deficit[key] >= 1.0:
                self._deficit[key] -= 1.0
                item = lane.popleft()
                self._note_removed(tenant)
                if not lane:
                    rotation.popleft()
                    self._deficit[key] = 0.0
                return tenant, item
            # Not this lane's turn yet: top up and rotate.  The loop
            # terminates because every full rotation raises some
            # backlogged lane's deficit by _QUANTUM * weight > 0.
            self._deficit[key] += _QUANTUM * self.weight(tenant)
            rotation.rotate(-1)
        return None


# ----------------------------------------------------------------------
# AIMD concurrency limiter
# ----------------------------------------------------------------------
class AdaptiveLimiter:
    """AIMD on observed p95 latency against the SLO target.

    Every completion reports its latency; every ``evaluate_every``
    completions the recent p95 is compared with ``target_p95_s`` —
    above target the limit multiplies down by 0.7
    (``_DECREASE_FACTOR``), at-or-below it creeps up by 1
    (``_INCREASE_STEP``) — clamped to
    ``[min_limit, max_limit]``.  Timeouts report their full deadline
    as latency, so a backend that stops answering still drives the
    limit down.  Not thread-safe on its own; the admission controller
    calls it under its lock.
    """

    def __init__(self, config: AdmissionConfig):
        self._config = config
        self._limit = float(config.initial_limit)
        self._latencies: deque[float] = deque(
            maxlen=config.latency_window)
        self._since_eval = 0
        self.last_p95: float | None = None

    @property
    def limit(self) -> int:
        return int(self._limit)

    def on_done(self, latency_s: float) -> bool:
        """Record one completion; ``True`` when the limit changed."""
        self._latencies.append(max(float(latency_s), 0.0))
        self._since_eval += 1
        if self._since_eval < self._config.evaluate_every:
            return False
        self._since_eval = 0
        ordered = sorted(self._latencies)
        rank = max(0, min(len(ordered) - 1,
                          int(0.95 * (len(ordered) - 1) + 0.5)))
        self.last_p95 = ordered[rank]
        before = self.limit
        if self.last_p95 > self._config.target_p95_s:
            self._limit = max(float(self._config.min_limit),
                              self._limit * _DECREASE_FACTOR)
        else:
            self._limit = min(float(self._config.max_limit),
                              self._limit + _INCREASE_STEP)
        return self.limit != before


# ----------------------------------------------------------------------
# Brownout ladder
# ----------------------------------------------------------------------
class BrownoutController:
    """Step :data:`BROWNOUT_LADDER` under sustained pressure.

    Level 0 is full quality; level ``i`` activates the first ``i``
    mechanisms of the ladder.  Engaging requires pressure at or above
    ``engage_pressure`` held for ``dwell_s``; releasing requires
    pressure at or below ``release_pressure`` held for
    ``release_dwell_s``.  One step per dwell, both directions, so
    transitions always appear in ladder order.  Thread-safe; every
    transition emits a ``brownout`` event and bumps
    ``brownout_level`` / ``brownout_transitions_total``.
    """

    def __init__(self, config: BrownoutConfig, *,
                 clock: Callable[[], float] = time.monotonic,
                 registry=None, events=None):
        self.config = config
        self._clock = clock
        self._events = events
        self._lock = threading.Lock()
        self._level = 0
        self._hot_since: float | None = None
        self._cool_since: float | None = None
        self.transitions: list[tuple[str, str]] = []  # (direction, step)
        self._m_level = self._m_transitions = None
        if registry is not None:
            self._m_level = registry.gauge(
                "brownout_level",
                "active degradation-ladder level (0 = full quality)")
            self._m_level.set(0)
            self._m_transitions = registry.counter(
                "brownout_transitions_total",
                "ladder steps by direction and mechanism",
                labels=("direction", "step"))

    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    @property
    def level_name(self) -> str:
        with self._lock:
            return ("full" if self._level == 0
                    else BROWNOUT_LADDER[self._level - 1])

    def active(self, mechanism: str) -> bool:
        """Is the named ladder mechanism currently engaged?"""
        try:
            position = BROWNOUT_LADDER.index(mechanism) + 1
        except ValueError:
            return False
        with self._lock:
            return self._level >= position

    def observe(self, pressure: float) -> int:
        """Feed one pressure sample; returns the (new) level."""
        config = self.config
        hot = pressure >= config.engage_pressure
        cool = pressure <= config.release_pressure
        now = self._clock()
        step = None
        with self._lock:
            if hot:
                self._cool_since = None
                if self._hot_since is None:
                    self._hot_since = now
                elif (now - self._hot_since >= config.dwell_s
                        and self._level < len(BROWNOUT_LADDER)):
                    self._level += 1
                    self._hot_since = now  # re-arm dwell per step
                    step = ("engage", BROWNOUT_LADDER[self._level - 1])
            elif cool:
                self._hot_since = None
                if self._cool_since is None:
                    self._cool_since = now
                elif (now - self._cool_since >= config.release_dwell_s
                        and self._level > 0):
                    step = ("release", BROWNOUT_LADDER[self._level - 1])
                    self._level -= 1
                    self._cool_since = now
            else:
                # Between thresholds: hold level, reset both dwells.
                self._hot_since = None
                self._cool_since = None
            level = self._level
            if step is not None:
                self.transitions.append(step)
        if step is not None:
            direction, mechanism = step
            if self._m_level is not None:
                self._m_level.set(level)
                self._m_transitions.labels(direction=direction,
                                           step=mechanism).inc()
            if self._events is not None:
                self._events.emit(
                    "brownout", direction=direction, step=mechanism,
                    level=level, pressure=pressure,
                    level_name=("full" if level == 0
                                else BROWNOUT_LADDER[level - 1]),
                    level_word="warn" if direction == "engage"
                    else "info")
        return level


# ----------------------------------------------------------------------
# The controller the service talks to
# ----------------------------------------------------------------------
_WAITING, _GRANTED, _EXPIRED, _ABANDONED = range(4)


class _Ticket:
    """One request's place in line; state guarded by the controller."""

    __slots__ = ("tenant", "tier", "deadline", "state")

    def __init__(self, tenant: str, tier: int, deadline: Deadline):
        self.tenant = tenant
        self.tier = tier
        self.deadline = deadline
        self.state = _WAITING


class AdmissionController:
    """Token buckets → fair queue → adaptive concurrency, composed.

    ``acquire`` returns an :class:`AdmissionDecision`; an admitted
    request *must* be paired with exactly one ``release`` carrying its
    end-to-end latency.
    """

    def __init__(self, config: AdmissionConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 registry=None, events=None, tracer=None):
        self.config = config or AdmissionConfig()
        self._clock = clock
        self._sleep = sleep
        self._tracer = tracer
        self._lock = threading.Lock()
        self._inflight = 0
        self._buckets: dict[str, TokenBucket] = {}
        self.limiter = AdaptiveLimiter(self.config)
        self.brownout = BrownoutController(
            self.config.brownout, clock=clock, registry=registry,
            events=events)
        self._queue = FairQueue(
            max_depth=self.config.max_queue_depth,
            drop_if=self._dead_in_queue, on_drop=self._on_queue_drop)
        # First entry per name.  Unknown tenants share the default
        # *policy* but not its bucket/queue lane (isolation by name).
        self._policies: dict[str, TenantPolicy] = {}
        for policy in self.config.tenants:
            self._queue.set_weight(policy.name, policy.weight)
            self._policies.setdefault(policy.name, policy)
        self._m_limit = self._m_inflight = None
        self._m_queued = self._m_queue_wait = None
        # (inflight, queued) as last written: rewrite only what moved.
        self._gauged = (0, 0)
        if registry is not None:
            self._m_limit = registry.gauge(
                "admission_limit",
                "current adaptive concurrency limit").child()
            self._m_limit.set(self.limiter.limit)
            self._m_inflight = registry.gauge(
                "admission_inflight", "requests holding an admission "
                "slot").child()
            self._m_inflight.set(0)
            self._m_queued = registry.gauge(
                "admission_queued", "requests waiting in the fair "
                "queue").child()
            self._m_queued.set(0)
            self._m_queue_wait = registry.histogram(
                "admission_queue_wait_seconds",
                "time admitted requests spent queued",
                buckets=(0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                         0.5, 1.0, 2.5))

    # -- queue callbacks (run under self._lock via pop) --------------
    @staticmethod
    def _dead_in_queue(ticket: _Ticket) -> str | None:
        if ticket.state == _ABANDONED:
            return "abandoned"
        if ticket.deadline.expired:
            return "expired"
        return None

    @staticmethod
    def _on_queue_drop(tenant: str, ticket: _Ticket,
                       reason: str) -> None:
        if reason == "expired":
            ticket.state = _EXPIRED
        # Abandoned tickets already accounted themselves at abandon
        # time; flipping state again would double-count.

    # -- introspection ----------------------------------------------
    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def limit(self) -> int:
        return self.limiter.limit

    def queue_depth(self, tenant: str | None = None) -> int:
        with self._lock:
            return self._queue.depth(tenant)

    def retained_bytes(self) -> int:
        """Estimated bytes held by queued admission tickets (depth ×
        per-ticket footprint) for the memory ledger."""
        with self._lock:
            queued = len(self._queue)
        # A _Ticket is slots + a Deadline + queue node bookkeeping.
        return queued * 256

    def snapshot(self) -> dict:
        with self._lock:
            queued = len(self._queue)
            inflight = self._inflight
            limit = self.limiter.limit
            p95 = self.limiter.last_p95
        static = (self.config.max_queue_depth == 0
                  and self.config.min_limit == self.config.max_limit)
        return {
            "mode": "static" if static else "adaptive",
            "limit": limit,
            "inflight": inflight,
            "queued": queued,
            "p95_ms": None if p95 is None else p95 * 1000.0,
            "target_p95_ms": self.config.target_p95_s * 1000.0,
            "brownout_level": self.brownout.level,
            "brownout": self.brownout.level_name,
        }

    # -- the two calls the service makes -----------------------------
    def acquire(self, tenant: str, criticality: str | None,
                deadline: Deadline) -> AdmissionDecision:
        policy = self._policies.get(tenant, _UNKNOWN_TENANT)
        criticality = criticality or policy.criticality
        if criticality not in CRITICALITIES:
            raise ValueError(f"unknown criticality {criticality!r}; "
                             f"expected one of {CRITICALITIES}")
        tier = CRITICALITIES.index(criticality)
        if tier > 0 and self.brownout.active("shed_background"):
            return AdmissionDecision(
                False, tenant, criticality, reason="brownout",
                detail="brownout: background traffic shed at ladder "
                       f"level {self.brownout.level}")
        if policy.rate is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets.setdefault(
                    tenant, TokenBucket(policy.rate, policy.burst,
                                        clock=self._clock))
            if not bucket.try_take():
                return AdmissionDecision(
                    False, tenant, criticality, reason="rate_limit",
                    detail=f"rate limit: tenant {tenant!r} over "
                           f"{policy.rate:g} req/s "
                           f"(burst {policy.burst:g})")
        ticket = _Ticket(tenant, tier, deadline)
        with self._lock:
            limit = self.limiter.limit
            if not self._queue and self._inflight < limit:
                # Nobody waiting and a slot free: grant without the
                # push/pop round trip (the same outcome as dispatch).
                ticket.state = _GRANTED
                self._inflight += 1
                self._update_gauges_locked()
            elif self.config.max_queue_depth == 0:
                return AdmissionDecision(
                    False, tenant, criticality, reason="inflight_limit",
                    detail=f"load shed: {limit} requests already in "
                           f"flight")
            elif self._queue.push(tenant, ticket, tier=tier):
                self._dispatch_locked()
            else:
                return AdmissionDecision(
                    False, tenant, criticality, reason="queue_full",
                    detail=f"queue full: tenant {tenant!r} already "
                           f"has {self.config.max_queue_depth} "
                           f"requests waiting")
            pressure = self._pressure_locked()
        # A storm shows up as queue growth before completions move the
        # limiter, so pressure feeds the ladder on the way in too.
        self.brownout.observe(pressure)
        enqueued = self._clock()
        while True:
            with self._lock:
                state = ticket.state
                if state == _GRANTED and deadline.expired:
                    # Granted too late: hand the slot straight back so
                    # an expired request never reaches the embed stage.
                    self._inflight -= 1
                    self._dispatch_locked()
                    state = _EXPIRED
                elif state == _WAITING and deadline.expired:
                    ticket.state = _ABANDONED
                    state = _EXPIRED
            if state == _GRANTED:
                wait = self._clock() - enqueued
                trace_id = self._trace_queue_wait(
                    enqueued, wait, tenant, criticality, "granted")
                if self._m_queue_wait is not None:
                    self._m_queue_wait.observe(wait, trace_id=trace_id)
                return AdmissionDecision(True, tenant, criticality,
                                         queue_wait_s=wait)
            if state == _EXPIRED:
                self._trace_queue_wait(
                    enqueued, self._clock() - enqueued, tenant,
                    criticality, "expired")
                return AdmissionDecision(
                    False, tenant, criticality, reason="expired",
                    detail="deadline expired while waiting in the "
                           "admission queue")
            self._sleep(_POLL_INTERVAL_S)

    def release(self, latency_s: float) -> None:
        """One admitted request finished; feed AIMD, hand off slots."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            changed = self.limiter.on_done(latency_s)
            if changed and self._m_limit is not None:
                self._m_limit.set(self.limiter.limit)
            self._dispatch_locked()
            pressure = self._pressure_locked()
        self.brownout.observe(pressure)

    # -- internals ---------------------------------------------------
    def _trace_queue_wait(self, enqueued: float, wait: float,
                          tenant: str, criticality: str,
                          outcome: str) -> int | None:
        """Record the enqueue→dequeue interval as a ``queue_wait``
        child of the caller's active span; returns the trace id (for
        the histogram exemplar) or ``None`` when untraced."""
        if self._tracer is None:
            return None
        record = self._tracer.record_span(
            "queue_wait", start=enqueued, duration=wait,
            tenant=tenant, criticality=criticality, outcome=outcome)
        return record.trace_id

    def _pressure_locked(self) -> float:
        demand = self._inflight + len(self._queue)
        return demand / max(self.limiter.limit, 1)

    def _dispatch_locked(self) -> None:
        while self._queue and self._inflight < self.limiter.limit:
            served = self._queue.pop()
            if served is None:
                break
            _, ticket = served
            ticket.state = _GRANTED
            self._inflight += 1
        self._update_gauges_locked()

    def _update_gauges_locked(self) -> None:
        if self._m_inflight is None:
            return
        inflight, queued = self._inflight, len(self._queue)
        if inflight != self._gauged[0]:
            self._m_inflight.set(inflight)
        if queued != self._gauged[1]:
            self._m_queued.set(queued)
        self._gauged = (inflight, queued)
