"""Memory ledger: where the bytes actually go, by component.

RSS says *how much* memory the process holds; it never says *who*
holds it.  The :class:`MemoryLedger` closes that gap with a registry
of per-component ``MemoryReporter`` callbacks — the index registers
its embedding-matrix ``nbytes``, the WAL its segment bytes on disk,
the result cache its retained entries, the tracer/event-log/sampler
their ring buffers, the admission plane its queue depth — plus the
process RSS read from ``/proc/self/statm``.  A snapshot itemizes the
components, totals the tracked bytes, and reports the *untracked*
remainder, so "the index is 80% of RSS" and "observability is eating
itself" are both one query.

Optional ``tracemalloc`` integration answers the follow-up question —
*which allocation site grew* — as top-N deltas against a baseline
taken when tracing was enabled.  It is off by default because
tracemalloc costs real memory and CPU; the ledger itself costs only
the callbacks it runs.

Reporters never take the ledger down: a callback that raises is
reported under ``errors`` and its component reads 0 for that
snapshot.  Everything in a snapshot is JSON-serializable after
:func:`~repro.obs.sanitize.json_safe`.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import OrderedDict, deque
from typing import Callable

__all__ = ["MemoryLedger", "MemoryReporter", "rss_bytes",
           "approx_bytes", "ring_bytes", "ndarray_bytes"]

# A MemoryReporter is any zero-argument callable returning either an
# int byte count or a {sub_component: bytes} dict.
MemoryReporter = Callable[[], "int | dict"]

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096


def rss_bytes() -> int | None:
    """Resident set size from ``/proc/self/statm`` (None off Linux)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def ndarray_bytes(*arrays) -> int:
    """Sum of ``nbytes`` over arrays, skipping Nones quietly."""
    total = 0
    for array in arrays:
        nbytes = getattr(array, "nbytes", None)
        if nbytes is not None:
            total += int(nbytes)
    return total


def approx_bytes(value, _depth: int = 6, _seen=None) -> int:
    """Rough retained-size estimate for one buffered record.

    Recursive ``sys.getsizeof`` over containers and instance dicts,
    depth-bounded and cycle-safe.  An estimate, not an audit — ring
    buffers need "roughly how many MB", not malloc truth.
    """
    if _seen is None:
        _seen = set()
    if id(value) in _seen or _depth <= 0:
        return 0
    try:
        size = sys.getsizeof(value)
    except TypeError:
        return 64
    if isinstance(value, (str, bytes, bytearray, int, float, bool,
                          type(None))):
        return size
    _seen.add(id(value))
    if isinstance(value, dict):
        for key, item in value.items():
            size += approx_bytes(key, _depth - 1, _seen)
            size += approx_bytes(item, _depth - 1, _seen)
        return size
    if isinstance(value, (list, tuple, set, frozenset, deque)):
        for item in value:
            size += approx_bytes(item, _depth - 1, _seen)
        return size
    attrs = getattr(value, "__dict__", None)
    if attrs:
        size += approx_bytes(attrs, _depth - 1, _seen)
    return size


def ring_bytes(items, sample: int = 8) -> int:
    """Estimated retained bytes of a ring buffer: mean of up to
    ``sample`` evenly spaced entries times the entry count."""
    entries = list(items)
    count = len(entries)
    if count == 0:
        return 0
    step = max(count // sample, 1)
    picked = entries[::step][:sample]
    mean = sum(approx_bytes(entry) for entry in picked) / len(picked)
    return int(mean * count)


class MemoryLedger:
    """Registry of per-component byte reporters plus process RSS.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; snapshots update
        ``memory_component_bytes{component}``, ``memory_rss_bytes``
        and ``memory_tracked_bytes`` gauges.
    clock:
        Timestamp source for snapshots (injectable).
    """

    def __init__(self, registry=None,
                 clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._reporters: OrderedDict[str, MemoryReporter] = \
            OrderedDict()
        self._baseline_rss: int | None = rss_bytes()
        self._tm_baseline = None
        self._component_gauge = None
        if registry is not None:
            self._component_gauge = registry.gauge(
                "memory_component_bytes",
                "tracked retained bytes per component",
                labels=("component",))
            self._rss_gauge = registry.gauge(
                "memory_rss_bytes", "process resident set size")
            self._tracked_gauge = registry.gauge(
                "memory_tracked_bytes",
                "sum of all component-tracked bytes")

    # -- reporter registry ----------------------------------------------
    def register(self, name: str, reporter: MemoryReporter) -> None:
        """(Re-)register a component's byte reporter."""
        with self._lock:
            self._reporters[str(name)] = reporter

    def unregister(self, name: str) -> None:
        with self._lock:
            self._reporters.pop(str(name), None)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._reporters)

    # -- tracemalloc (optional, costs memory while enabled) -------------
    def enable_tracemalloc(self, frames: int = 1) -> bool:
        """Start allocation tracing and record the delta baseline."""
        try:
            import tracemalloc
        except ImportError:  # pragma: no cover
            return False
        if not tracemalloc.is_tracing():
            tracemalloc.start(frames)
        self._tm_baseline = tracemalloc.take_snapshot()
        return True

    def disable_tracemalloc(self) -> None:
        try:
            import tracemalloc
        except ImportError:  # pragma: no cover
            return
        self._tm_baseline = None
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def tracemalloc_top(self, n: int = 10) -> list[dict] | None:
        """Top-N allocation-site growth since the baseline, or
        ``None`` when tracing is off."""
        if self._tm_baseline is None:
            return None
        import tracemalloc
        if not tracemalloc.is_tracing():
            return None
        stats = tracemalloc.take_snapshot().compare_to(
            self._tm_baseline, "lineno")
        return [{"site": str(stat.traceback),
                 "size_diff_bytes": int(stat.size_diff),
                 "count_diff": int(stat.count_diff)}
                for stat in stats[:n]]

    # -- snapshots -------------------------------------------------------
    def components(self) -> tuple[dict, dict]:
        """Run every reporter: ``(component -> bytes, errors)``.

        A reporter returning a dict contributes flattened
        ``name.sub`` entries; a reporter raising lands in errors and
        contributes nothing this pass (the ledger never raises).
        """
        with self._lock:
            reporters = list(self._reporters.items())
        values: dict[str, int] = {}
        errors: dict[str, str] = {}
        for name, reporter in reporters:
            try:
                result = reporter()
                if isinstance(result, dict):
                    for sub, nbytes in result.items():
                        values[f"{name}.{sub}"] = int(nbytes)
                else:
                    values[name] = int(result)
            except Exception as exc:           # noqa: BLE001
                errors[name] = f"{type(exc).__name__}: {exc}"
        return values, errors

    def snapshot(self, tracemalloc_n: int = 10) -> dict:
        """Itemized memory snapshot (JSON-safe, gauge-updating)."""
        values, errors = self.components()
        tracked = sum(values.values())
        rss = rss_bytes()
        snap = {
            "ts": self._clock(),
            "rss_bytes": rss,
            "rss_growth_bytes": (rss - self._baseline_rss
                                 if rss is not None
                                 and self._baseline_rss is not None
                                 else None),
            "tracked_bytes": tracked,
            "untracked_bytes": (max(rss - tracked, 0)
                                if rss is not None else None),
            "components": dict(sorted(values.items())),
        }
        if errors:
            snap["errors"] = errors
        top = self.tracemalloc_top(tracemalloc_n)
        if top is not None:
            snap["tracemalloc_top"] = top
        if self._component_gauge is not None:
            for name, nbytes in values.items():
                self._component_gauge.labels(component=name).set(
                    float(nbytes))
            if rss is not None:
                self._rss_gauge.set(float(rss))
            self._tracked_gauge.set(float(tracked))
        return snap
