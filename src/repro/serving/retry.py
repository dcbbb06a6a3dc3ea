"""Retry policy and per-dependency circuit breakers.

Transient embed faults (a NaN embedding, a flaky model call) are retried
with exponential backoff plus jitter; *persistent* faults trip a
circuit breaker so a broken dependency stops eating the request
budget of every caller.

The breaker is the classic three-state machine:

* **closed** — requests flow; consecutive failures are counted.
* **open** — tripped after ``failure_threshold`` consecutive
  failures; all calls are refused until ``reset_after`` seconds pass.
* **half-open** — after the cool-off, probe traffic is let through;
  ``half_open_successes`` consecutive successes close the breaker,
  any failure re-opens it (and restarts the cool-off).

Both the clock and the jitter RNG are injected by the caller, so
every transition is deterministic under test.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["RetryPolicy", "CircuitBreaker", "CircuitState"]


#: Backoff growth per retry, and the cap on one un-jittered delay (s).
_BACKOFF_FACTOR = 2.0
_MAX_DELAY = 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with multiplicative jitter.

    Delay before retry ``attempt`` (0-based) is
    ``min(base_delay * 2**attempt, 1.0)`` scaled by a jitter factor
    uniform in ``[1, 1 + jitter)``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    jitter: float = 0.5

    def delay(self, attempt: int, rng=None) -> float:
        raw = min(self.base_delay * _BACKOFF_FACTOR ** attempt, _MAX_DELAY)
        if self.jitter and rng is not None:
            raw *= 1.0 + self.jitter * rng.random()
        return raw


class CircuitState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Thread-safe closed/open/half-open breaker around one dependency.

    The open→half-open transition is driven lazily off the injected
    clock on every state read, so no background timer is needed.
    State changes are appended to :attr:`transitions`, and
    ``on_transition(name, new_state)`` — if given — fires on each one,
    which is how the serving layer keeps its breaker-state gauges and
    transition counters current.  The callback runs with the breaker
    lock held, so it must not call back into the breaker.
    """

    def __init__(self, name: str, failure_threshold: int = 3,
                 reset_after: float = 5.0, half_open_successes: int = 2,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Callable[[str, "CircuitState"],
                                         None] | None = None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_after = float(reset_after)
        self.half_open_successes = int(half_open_successes)
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CircuitState.CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self.transitions: list[CircuitState] = []

    # -- state ---------------------------------------------------------
    @property
    def state(self) -> CircuitState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now? (Open circuits refuse.)"""
        with self._lock:
            self._maybe_half_open()
            return self._state is not CircuitState.OPEN

    # -- outcome reporting ---------------------------------------------
    def record_success(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state is CircuitState.HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_successes:
                    self._set(CircuitState.CLOSED)
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state is CircuitState.HALF_OPEN:
                self._trip()
            else:
                self._consecutive_failures += 1
                if (self._state is CircuitState.CLOSED
                        and self._consecutive_failures
                        >= self.failure_threshold):
                    self._trip()

    def reset(self) -> None:
        """Force-close, e.g. after the dependency was replaced by a
        successful index hot-swap."""
        with self._lock:
            self._set(CircuitState.CLOSED)
            self._consecutive_failures = 0
            self._probe_successes = 0

    # -- internals (lock held) -----------------------------------------
    def _maybe_half_open(self) -> None:
        if (self._state is CircuitState.OPEN
                and self._clock() - self._opened_at >= self.reset_after):
            self._set(CircuitState.HALF_OPEN)
            self._probe_successes = 0

    def _trip(self) -> None:
        self._set(CircuitState.OPEN)
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probe_successes = 0

    def _set(self, state: CircuitState) -> None:
        if state is not self._state:
            self._state = state
            self.transitions.append(state)
            if self._on_transition is not None:
                self._on_transition(self.name, state)
