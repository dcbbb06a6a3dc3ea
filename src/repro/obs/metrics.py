"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns named metric *families*; a family with
label names hands out per-label-value children via :meth:`labels`, a
family without labels is used directly.  Everything is guarded by one
lock per family, so concurrent increments from the serving threads and
the training loop are exact — no sampling, no lost updates.

Two expositions are supported, both dependency-free:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=...}``
  histogram series) for scraping or eyeballing;
* :meth:`MetricsRegistry.to_dict` / :meth:`dump_json` — a JSON
  snapshot that round-trips through :meth:`MetricsRegistry.from_dict`,
  used by the CLI's ``metrics dump`` and the benchmark artifacts.

Registration is idempotent: asking for an existing name returns the
existing family (and raises if the kind or label names disagree), so
independent subsystems can share a registry without coordination.

Non-finite updates (NaN/Inf) are dropped uniformly by every primitive
(see :mod:`~repro.obs.sanitize`): a gauge keeps its last finite value,
a histogram sum can never be poisoned, and no exposition contains NaN.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import threading

from .sanitize import json_safe  # noqa: F401  (re-exported convenience)

__all__ = ["MetricError", "Counter", "Gauge", "Histogram",
           "MetricsRegistry", "DEFAULT_BUCKETS", "LATENCY_BUCKETS",
           "parse_prometheus", "ParsedExposition",
           "quantile_from_counts"]

#: General-purpose boundaries (seconds-ish scale).
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Finer low end for request/stage latencies measured in seconds.
LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class MetricError(ValueError):
    """Invalid metric declaration or usage."""


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


class Counter:
    """Monotonically increasing value (one labeled child).

    Non-finite increments are dropped (see :mod:`~repro.obs.sanitize`):
    a single NaN must never turn a request counter into NaN forever.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a gauge")
        if not math.isfinite(amount):
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Arbitrary settable value (one labeled child).

    Non-finite updates are dropped: ``set(nan)`` keeps the last finite
    value (a gauge that silently flips to NaN breaks every dashboard
    aggregate downstream), and ``inc(inf)`` is a no-op.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            return
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        if not math.isfinite(amount):
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-boundary histogram with exact count and sum.

    Bucket semantics follow Prometheus: a bucket with upper bound
    ``le`` counts observations ``<= le``; the implicit final bucket is
    ``+Inf``.  Boundaries are fixed at declaration so aggregation
    across processes stays meaningful.
    """

    __slots__ = ("_lock", "boundaries", "_counts", "_sum", "_count",
                 "_exemplars")

    def __init__(self, lock: threading.Lock, boundaries):
        self._lock = lock
        self.boundaries = tuple(float(b) for b in boundaries)
        if not self.boundaries:
            raise MetricError("histogram needs at least one boundary")
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise MetricError("histogram boundaries must be strictly "
                              "increasing")
        self._counts = [0] * (len(self.boundaries) + 1)
        self._sum = 0.0
        self._count = 0
        # bucket index -> (observed value, trace id); one exemplar per
        # bucket, latest observation wins.
        self._exemplars: dict[int, tuple[float, str]] = {}

    def observe(self, value: float, trace_id=None) -> None:
        value = float(value)
        if not math.isfinite(value):
            return
        with self._lock:
            index = bisect.bisect_left(self.boundaries, value)
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if trace_id is not None:
                self._exemplars[index] = (value, str(trace_id))

    def exemplars(self) -> dict[int, tuple[float, str]]:
        """Snapshot of ``{bucket index: (value, trace_id)}``."""
        with self._lock:
            return dict(self._exemplars)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, final entry is +Inf."""
        with self._lock:
            return list(self._counts)

    def cumulative(self) -> list[int]:
        counts = self.bucket_counts()
        out, running = [], 0
        for c in counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        The single canonical estimator for the whole codebase
        (``stats()`` dashboards, the monitor CLI, latency SLOs) so no
        consumer re-derives p99 ad hoc.  See
        :func:`quantile_from_counts` for the estimation contract.
        """
        return quantile_from_counts(self.boundaries,
                                    self.bucket_counts(), q)

    def quantiles(self, qs=(0.5, 0.95, 0.99)) -> dict[float, float]:
        """Several quantiles from one consistent snapshot of counts."""
        counts = self.bucket_counts()
        return {float(q): quantile_from_counts(self.boundaries, counts, q)
                for q in qs}


def quantile_from_counts(boundaries, bucket_counts, q: float) -> float:
    """Estimate a quantile from fixed-boundary histogram counts.

    Follows the Prometheus ``histogram_quantile`` convention: linear
    interpolation inside the bucket holding the target rank, a lower
    edge of 0 for the first bucket (latencies are non-negative), and
    the highest finite boundary for ranks landing in the ``+Inf``
    overflow bucket.  Returns NaN for an empty histogram — callers
    that feed gauges rely on the registry's non-finite drop policy.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile must be in [0, 1], got {q}")
    boundaries = tuple(boundaries)
    counts = list(bucket_counts)
    if len(counts) != len(boundaries) + 1:
        raise MetricError(
            f"expected {len(boundaries) + 1} bucket counts "
            f"(incl. +Inf), got {len(counts)}")
    total = sum(counts)
    if total == 0:
        return float("nan")
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative < rank or count == 0:
            continue
        if i == len(boundaries):        # +Inf overflow bucket
            return float(boundaries[-1])
        upper = boundaries[i]
        lower = boundaries[i - 1] if i > 0 else min(0.0, upper)
        return lower + (upper - lower) * (rank - previous) / count
    return float(boundaries[-1])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric with optional label dimensions."""

    def __init__(self, kind: str, name: str, help: str,
                 label_names: tuple[str, ...], buckets=None):
        self.kind = kind
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        self._bound: dict[tuple, object] = {}   # str values -> child

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._lock, self.buckets)
        return _KINDS[self.kind](self._lock)

    def labels(self, **label_values):
        if set(label_values) != set(self.label_names):
            raise MetricError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}")
        return self.child(*(label_values[n] for n in self.label_names))

    def child(self, *values):
        """The child for label ``values`` in declaration order.  The
        first call per tuple finds or makes it under the family lock;
        an all-``str`` tuple is then bound, so later calls are one dict
        read with no lock.  Other values are not bound: ``True`` and
        ``1`` are one dict key but two label values."""
        child = self._bound.get(values)
        if child is None:
            if len(values) != len(self.label_names):
                raise MetricError(
                    f"{self.name} expects {len(self.label_names)} label "
                    f"values {self.label_names}, got {values!r}")
            key = tuple(str(value) for value in values)
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
                if all(type(value) is str for value in values):
                    self._bound[values] = child
        return child

    def _default(self):
        if self.label_names:
            raise MetricError(f"{self.name} has labels "
                              f"{self.label_names}; call .labels(...)")
        return self.child()

    # Label-free families proxy straight to their single child.
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float, trace_id=None) -> None:
        self._default().observe(value, trace_id=trace_id)

    @property
    def value(self) -> float:
        return self._default().value

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum

    def bucket_counts(self):
        return self._default().bucket_counts()

    def cumulative(self):
        return self._default().cumulative()

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


def _fmt(value: float) -> str:
    """Prometheus-style number formatting."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(names, values, extra: str = "") -> str:
    parts = [f'{n}="{v}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Container of metric families with idempotent registration."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- registration --------------------------------------------------
    def _register(self, kind: str, name: str, help: str,
                  labels, buckets=None) -> _Family:
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != labels:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.label_names}")
                return family
            family = _Family(kind, name, help, labels, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels=()) -> _Family:
        return self._register("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", labels=()) -> _Family:
        return self._register("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "", labels=(),
                  buckets=DEFAULT_BUCKETS) -> _Family:
        return self._register("histogram", name, help, labels, buckets)

    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    # -- exposition ----------------------------------------------------
    def to_prometheus(self) -> str:
        """Render every family in the Prometheus text format."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                labels = _label_str(family.label_names, key)
                if family.kind in ("counter", "gauge"):
                    lines.append(
                        f"{family.name}{labels} {_fmt(child.value)}")
                    continue
                bounds = list(family.buckets) + [math.inf]
                exemplars = child.exemplars()
                for index, (bound, cum) in enumerate(
                        zip(bounds, child.cumulative())):
                    le = _label_str(family.label_names, key,
                                    extra=f'le="{_fmt(bound)}"')
                    line = f"{family.name}_bucket{le} {cum}"
                    exemplar = exemplars.get(index)
                    if exemplar is not None:
                        # OpenMetrics exemplar: the p99 bucket links
                        # straight to a kept trace id.
                        value, trace_id = exemplar
                        line += (f' # {{trace_id="{trace_id}"}} '
                                 f"{_fmt(value)}")
                    lines.append(line)
                lines.append(f"{family.name}_sum{labels} "
                             f"{_fmt(child.sum)}")
                lines.append(f"{family.name}_count{labels} "
                             f"{child.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """JSON-able snapshot; inverse of :meth:`from_dict`."""
        out: dict[str, dict] = {}
        for family in self.families():
            entry: dict = {"kind": family.kind, "help": family.help,
                           "labels": list(family.label_names)}
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets)
            samples = []
            for key, child in family.children():
                sample: dict = {
                    "labels": dict(zip(family.label_names, key))}
                if family.kind == "histogram":
                    sample["count"] = child.count
                    sample["sum"] = child.sum
                    sample["bucket_counts"] = child.bucket_counts()
                    exemplars = child.exemplars()
                    if exemplars:
                        sample["exemplars"] = {
                            str(index): {"value": value,
                                         "trace_id": trace_id}
                            for index, (value, trace_id)
                            in sorted(exemplars.items())}
                else:
                    sample["value"] = child.value
                samples.append(sample)
            entry["samples"] = samples
            out[family.name] = entry
        return out

    def dump_json(self, path, indent: int = 2) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=indent,
                      sort_keys=True)
            handle.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_dict` snapshot."""
        registry = cls()
        for name, entry in data.items():
            kind = entry["kind"]
            labels = tuple(entry.get("labels", ()))
            if kind == "counter":
                family = registry.counter(name, entry.get("help", ""),
                                          labels)
            elif kind == "gauge":
                family = registry.gauge(name, entry.get("help", ""),
                                        labels)
            elif kind == "histogram":
                family = registry.histogram(
                    name, entry.get("help", ""), labels,
                    buckets=tuple(entry["buckets"]))
            else:
                raise MetricError(f"unknown metric kind {kind!r}")
            for sample in entry.get("samples", ()):
                child = family.labels(**sample.get("labels", {}))
                if kind == "histogram":
                    child._counts = [int(c)
                                     for c in sample["bucket_counts"]]
                    child._sum = float(sample["sum"])
                    child._count = int(sample["count"])
                    child._exemplars = {
                        int(index): (float(ex["value"]),
                                     str(ex["trace_id"]))
                        for index, ex
                        in sample.get("exemplars", {}).items()}
                else:
                    child._value = float(sample["value"])
        return registry


class ParsedExposition(dict):
    """:func:`parse_prometheus` result: ``{series: {labels: value}}``.

    Plain-``dict`` compatible for every existing caller, plus an
    :attr:`exemplars` side table mapping ``(series, labels)`` to the
    OpenMetrics exemplar attached to that sample
    (``{"labels": {...}, "value": float}``), so round-trips through
    text exposition preserve trace links instead of dropping them.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.exemplars: dict[tuple, dict] = {}


def parse_prometheus(text: str) -> "ParsedExposition":
    """Parse Prometheus text into ``{series: {label-items: value}}``.

    Only what :meth:`MetricsRegistry.to_prometheus` emits is supported
    (enough for round-trip tests and quick greps, not a full scraper).
    Series names keep their ``_bucket``/``_sum``/``_count`` suffixes;
    label sets are ``tuple(sorted((name, value), ...))``.  OpenMetrics
    exemplar suffixes (``... # {trace_id="7"} 0.042``) are tolerated
    and preserved on the result's ``exemplars`` attribute rather than
    breaking the value parse.
    """

    def parse_labels(blob: str) -> tuple:
        labels = []
        for item in filter(None, blob.split(",")):
            key, __, raw = item.partition("=")
            labels.append((key, raw.strip('"')))
        return tuple(sorted(labels))

    samples = ParsedExposition()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        exemplar = None
        if " # " in line:            # OpenMetrics exemplar suffix
            line, __, suffix = line.partition(" # ")
            ex_labels, __, ex_value = suffix.rpartition(" ")
            exemplar = {"labels": dict(parse_labels(
                            ex_labels.strip().strip("{}"))),
                        "value": float(ex_value)}
        name_part, __, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, __, label_part = name_part.partition("{")
            key = parse_labels(label_part.rstrip("}"))
        else:
            name, key = name_part, ()
        value = float(value_part)
        samples.setdefault(name, {})[key] = value
        if exemplar is not None:
            samples.exemplars[(name, key)] = exemplar
    return samples
