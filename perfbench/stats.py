"""Percentile and tally helpers shared by every workload.

A tail percentile is only meaningful with enough samples beyond it:
``percentile`` reports a value only when at least ``MIN_BEYOND``
samples lie strictly above it, so a p99 needs about 1000 samples.
"""

from __future__ import annotations

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def needed_samples(q: float) -> int:
    """Fewest samples for which the ``q``-th percentile is reportable."""
    return int(np.ceil(MIN_BEYOND * 100.0 / (100.0 - q))) if q < 100 else 0


def percentile(samples, q: float) -> float | None:
    """The ``q``-th percentile of ``samples``, or ``None`` when fewer
    than :data:`MIN_BEYOND` samples lie beyond it."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        return None
    value = float(np.percentile(values, q))
    if int(np.count_nonzero(values > value)) < MIN_BEYOND:
        return None
    return value


class Tally:
    """Attempted / succeeded / failed per operation kind in one phase."""

    def __init__(self, phase: str):
        self.phase = phase
        self.counts: dict[str, list[int]] = {}

    def add(self, kind: str, ok: bool) -> None:
        row = self.counts.setdefault(kind, [0, 0])
        row[0] += 1
        row[1] += int(ok)

    @property
    def attempted(self) -> int:
        return sum(row[0] for row in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(row[0] - row[1] for row in self.counts.values())

    def lines(self, workload: str) -> list[str]:
        return [f"{workload} phase={self.phase} op={kind} "
                f"attempted={row[0]} succeeded={row[1]} "
                f"failed={row[0] - row[1]}"
                for kind, row in sorted(self.counts.items())]
