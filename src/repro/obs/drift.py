"""Embedding-drift detection: streaming sketches + PSI/KS scoring.

The serving stack can be fast and healthy yet *silently wrong*: a
stale hot-swap or a slowly degrading encoder shifts the geometry of
the embedding space long before any latency or availability signal
moves.  This module watches three cheap per-query signals whose
distributions are pinned at training time:

* ``embedding_norm`` — L2 norm of the raw query embedding (before the
  index normalizes it); scaling faults and saturated encoders move it;
* ``top1_distance`` — cosine distance to the nearest corpus item; a
  corpus/model mismatch pushes queries away from everything;
* ``margin`` — top2 minus top1 distance; a collapsing embedding space
  shows up as vanishing margins even while top-1 distance looks sane.

Each signal is summarized by a :class:`QuantileSketch` — a fixed-bin
histogram over a pinned range, mergeable and JSON-serializable.  The
:class:`~repro.core.trainer.Trainer` builds a :class:`DriftReference`
(one sketch per signal, computed over the validation corpus) and
persists it alongside checkpoints; at hot-swap the serving layer loads
it and a :class:`DriftMonitor` scores the live distribution against it
with PSI (population stability index) and the KS statistic.  PSI reads
on the usual industry scale: < 0.1 stable, 0.1–0.25 moderate shift,
> 0.25 action required — the drift-score SLO ceiling defaults into
that last band.

Bins are *shared* between reference and live sketches (the live sketch
is spawned from the reference) so the PSI comparison is well-defined.
"""

from __future__ import annotations

import json
import math
import pathlib
import threading
from typing import Callable

import numpy as np

__all__ = [
    "QuantileSketch", "psi", "ks_statistic",
    "DRIFT_SIGNALS", "DRIFT_REFERENCE_NAME",
    "DriftReference", "DriftMonitor",
]

#: Signals tracked per query, in a fixed export order.
DRIFT_SIGNALS = ("embedding_norm", "top1_distance", "margin")

#: Filename the trainer persists the reference under, alongside
#: checkpoints, and the serving layer looks for at hot-swap.
DRIFT_REFERENCE_NAME = "drift-reference.json"

#: Laplace-style smoothing for PSI bin probabilities — keeps log(0)
#: out of the math when a bin is empty on one side.
_PSI_SMOOTHING = 1e-4


class QuantileSketch:
    """Fixed-bin streaming histogram over a pinned ``[lo, hi]`` range.

    Deliberately simple (no P² adaptivity): pinned, shared bin edges
    make two sketches directly comparable, which is what PSI/KS need.
    Values outside the range clamp into the edge bins, so a runaway
    signal still registers as mass piling up at an extreme.
    """

    def __init__(self, lo: float, hi: float, bins: int = 32):
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise ValueError(f"invalid sketch range [{lo}, {hi}]")
        if bins < 2:
            raise ValueError("need at least 2 bins")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self.counts = np.zeros(self.bins, dtype=np.int64)
        self._width = (self.hi - self.lo) / self.bins

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def _bin_of(self, value: float) -> int:
        i = int((value - self.lo) / self._width)
        return min(max(i, 0), self.bins - 1)

    def update(self, value: float) -> None:
        """Add one observation; non-finite values are dropped."""
        value = float(value)
        if not math.isfinite(value):
            return
        self.counts[self._bin_of(value)] += 1

    def update_many(self, values) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        values = values[np.isfinite(values)]
        if values.size == 0:
            return
        idx = ((values - self.lo) / self._width).astype(np.int64)
        np.clip(idx, 0, self.bins - 1, out=idx)
        self.counts += np.bincount(idx, minlength=self.bins)

    def probabilities(self, smoothing: float = _PSI_SMOOTHING
                      ) -> np.ndarray:
        """Smoothed per-bin probabilities (sum to 1, never zero)."""
        counts = self.counts.astype(np.float64) + smoothing
        return counts / counts.sum()

    def cdf(self) -> np.ndarray:
        """Empirical CDF at each bin's upper edge (unsmoothed)."""
        total = self.total
        if total == 0:
            return np.zeros(self.bins)
        return np.cumsum(self.counts) / total

    def spawn(self) -> "QuantileSketch":
        """An empty sketch with identical bins — the live counterpart
        of a reference sketch, guaranteed PSI-comparable."""
        return QuantileSketch(self.lo, self.hi, self.bins)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "bins": self.bins,
                "counts": self.counts.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "QuantileSketch":
        sketch = cls(payload["lo"], payload["hi"], payload["bins"])
        counts = np.asarray(payload["counts"], dtype=np.int64)
        if counts.shape != sketch.counts.shape:
            raise ValueError("counts do not match declared bins")
        sketch.counts = counts
        return sketch


def psi(reference: QuantileSketch, live: QuantileSketch) -> float:
    """Population stability index between two same-binned sketches."""
    if (reference.lo, reference.hi, reference.bins) != \
            (live.lo, live.hi, live.bins):
        raise ValueError("sketches must share bin edges for PSI")
    p = reference.probabilities()
    q = live.probabilities()
    return float(np.sum((q - p) * np.log(q / p)))


def ks_statistic(reference: QuantileSketch,
                 live: QuantileSketch) -> float:
    """Kolmogorov–Smirnov statistic (max CDF gap) between sketches."""
    if (reference.lo, reference.hi, reference.bins) != \
            (live.lo, live.hi, live.bins):
        raise ValueError("sketches must share bin edges for KS")
    return float(np.max(np.abs(reference.cdf() - live.cdf())))


class DriftReference:
    """Training-time sketches of the three drift signals.

    Built by the trainer from the validation corpus (recipe embeddings
    queried against the image index, the paper's im2recipe direction
    reversed to match what serving sees) and persisted as JSON next to
    the checkpoints.
    """

    def __init__(self, sketches: dict[str, QuantileSketch]):
        missing = set(DRIFT_SIGNALS) - set(sketches)
        if missing:
            raise ValueError(f"reference missing signals: {missing}")
        self.sketches = sketches

    @classmethod
    def from_embeddings(cls, query_embeddings: np.ndarray,
                        corpus_embeddings: np.ndarray,
                        bins: int = 32) -> "DriftReference":
        """Build the reference from raw (unnormalized) embeddings.

        ``query_embeddings`` plays the live-query role (recipe side),
        ``corpus_embeddings`` the index role (image side).  Cosine
        distances live in [0, 2] so those sketch ranges are pinned;
        the norm range is data-driven with headroom for upward drift.
        """
        from ..retrieval.index import NearestNeighborIndex

        queries = np.asarray(query_embeddings, dtype=np.float64)
        norms = np.linalg.norm(queries, axis=1)
        finite = norms[np.isfinite(norms)]
        hi = float(finite.max()) * 2.0 if finite.size else 1.0
        if hi <= 0.0:
            hi = 1.0
        sketches = {
            "embedding_norm": QuantileSketch(0.0, hi, bins),
            "top1_distance": QuantileSketch(0.0, 2.0, bins),
            "margin": QuantileSketch(0.0, 2.0, bins),
        }
        sketches["embedding_norm"].update_many(norms)

        index = NearestNeighborIndex(
            np.asarray(corpus_embeddings, dtype=np.float64))
        k = min(2, len(index))
        if k >= 1:
            _, distances = index.query_batch(queries, k=k)
            sketches["top1_distance"].update_many(distances[:, 0])
            if k == 2:
                sketches["margin"].update_many(
                    distances[:, 1] - distances[:, 0])
        return cls(sketches)

    def spawn_live(self) -> dict[str, QuantileSketch]:
        """Empty live sketches sharing this reference's bins."""
        return {name: sketch.spawn()
                for name, sketch in self.sketches.items()}

    def to_dict(self) -> dict:
        return {"signals": {name: sketch.to_dict()
                            for name, sketch in self.sketches.items()}}

    @classmethod
    def from_dict(cls, payload: dict) -> "DriftReference":
        return cls({name: QuantileSketch.from_dict(raw)
                    for name, raw in payload["signals"].items()})

    def save(self, path) -> None:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), sort_keys=True))
        tmp.replace(path)

    @classmethod
    def load(cls, path) -> "DriftReference":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))


class DriftMonitor:
    """Thread-safe live drift scoring against a reference.

    The serving layer calls :meth:`observe_query` on every successful
    index-stage result; scores are recomputed and exported as gauges
    every ``export_every`` observations (PSI over 32 bins is cheap,
    but per-query would still be wasteful).  A hot-swap calls
    :meth:`start_generation` to reset the live sketches — drift is
    always measured *within* a generation, against that generation's
    reference.
    """

    def __init__(self, reference: DriftReference | None = None,
                 registry=None, min_samples: int = 20,
                 export_every: int = 16,
                 on_scores: Callable[[dict], None] | None = None):
        self._lock = threading.Lock()
        self.min_samples = int(min_samples)
        self.export_every = max(1, int(export_every))
        self.on_scores = on_scores
        self._m_score = None
        self._m_samples = None
        if registry is not None:
            self._m_score = registry.gauge(
                "drift_score", "PSI drift score per signal vs the "
                "training-time reference", labels=("signal",))
            self._m_samples = registry.gauge(
                "drift_samples",
                "Observations in the current live drift window")
        self.reference: DriftReference | None = None
        self.live: dict[str, QuantileSketch] = {}
        self._since_export = 0
        if reference is not None:
            self.start_generation(reference)

    @property
    def active(self) -> bool:
        return self.reference is not None

    def start_generation(self,
                         reference: DriftReference | None) -> None:
        """Install a (possibly new) reference and reset live sketches."""
        with self._lock:
            self.reference = reference
            self.live = (reference.spawn_live()
                         if reference is not None else {})
            self._since_export = 0
        self._export()

    def observe_query(self, vector, distances) -> None:
        """Record one served query.

        ``vector`` is the raw query embedding; ``distances`` the sorted
        result distances (top-1 first).  Cheap no-op when no reference
        is installed.
        """
        if self.reference is None:
            return
        norm = float(np.linalg.norm(np.asarray(vector,
                                               dtype=np.float64)))
        distances = np.asarray(distances, dtype=np.float64).ravel()
        with self._lock:
            if not self.live:
                return
            self.live["embedding_norm"].update(norm)
            if distances.size >= 1:
                self.live["top1_distance"].update(distances[0])
            if distances.size >= 2:
                self.live["margin"].update(distances[1] - distances[0])
            self._since_export += 1
            due = self._since_export >= self.export_every
            if due:
                self._since_export = 0
        if due:
            self._export()

    def samples(self) -> int:
        with self._lock:
            if not self.live:
                return 0
            return max(s.total for s in self.live.values())

    def scores(self) -> dict[str, float]:
        """PSI per signal; NaN until ``min_samples`` observations."""
        with self._lock:
            reference = self.reference
            live = {name: QuantileSketch.from_dict(s.to_dict())
                    for name, s in self.live.items()}
        out = {}
        for name in DRIFT_SIGNALS:
            if (reference is None or name not in live
                    or live[name].total < self.min_samples):
                out[name] = float("nan")
            else:
                out[name] = psi(reference.sketches[name], live[name])
        return out

    def ks_scores(self) -> dict[str, float]:
        """KS statistic per signal (same min-samples gating as PSI)."""
        with self._lock:
            reference = self.reference
            live = {name: QuantileSketch.from_dict(s.to_dict())
                    for name, s in self.live.items()}
        out = {}
        for name in DRIFT_SIGNALS:
            if (reference is None or name not in live
                    or live[name].total < self.min_samples):
                out[name] = float("nan")
            else:
                out[name] = ks_statistic(reference.sketches[name],
                                         live[name])
        return out

    def _export(self) -> None:
        scores = self.scores()
        if self._m_score is not None:
            for name, value in scores.items():
                # Gauge.set drops non-finite values, so the gauge
                # holds its last finite score during warm-up.
                self._m_score.labels(signal=name).set(value)
        if self._m_samples is not None:
            self._m_samples.set(self.samples())
        if self.on_scores is not None:
            self.on_scores(scores)

    def summary(self) -> dict:
        """Compact dict for ``stats()`` and flight bundles."""
        return {
            "active": self.active,
            "samples": self.samples(),
            "psi": self.scores(),
            "ks": self.ks_scores(),
        }

    def dump(self) -> dict:
        """Full sketch state (reference + live) for flight bundles."""
        with self._lock:
            return {
                "reference": (self.reference.to_dict()
                              if self.reference else None),
                "live": {name: sketch.to_dict()
                         for name, sketch in self.live.items()},
            }
