"""Zero-downtime corpus/index hot-swap.

A corpus refresh must never be observable as a half-updated index.
The protocol:

1. **Build aside** — a full new :class:`RecipeSearchEngine` (both
   nearest-neighbour indexes) and its :class:`DegradedRanker` are
   constructed off to the side while the old generation keeps serving.
2. **Canary** — the candidate generation answers a handful of
   self-queries drawn from its own corpus; empty results or non-finite
   distances mark the candidate bad.
3. **Swap or roll back** — on success the service's active-generation
   pointer is replaced under its lock (a single reference assignment);
   on canary failure the candidate is discarded and the old generation
   keeps serving, untouched.

In-flight requests snapshot the generation once at admission, so a
request started on generation *n* completes entirely on generation
*n* — mixed-generation results are impossible by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.engine import RecipeSearchEngine
from .degraded import DegradedRanker

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .cluster import IndexCluster

__all__ = ["EngineGeneration", "SwapReport", "run_canaries"]


@dataclass(frozen=True)
class EngineGeneration:
    """One immutable serving generation under a generation id.

    Carries the engine, its degraded fallback, and the two clusters
    that serve the engine's indexes (fridge/recipe queries hit the
    image cluster, image queries the recipe cluster) — one shard with
    one replica unless the service configures a topology.  Clusters
    are rebuilt from scratch for every generation — hot-swap replaces
    the whole topology atomically, replica health included.
    """

    generation: int
    engine: RecipeSearchEngine
    fallback: DegradedRanker
    image_cluster: IndexCluster
    recipe_cluster: IndexCluster


@dataclass(frozen=True)
class SwapReport:
    """Outcome of one :meth:`ResilientSearchService.swap_corpus` call.

    ``generation`` is the generation *active after the call* — the new
    one on success, the surviving old one on rollback.  ``duration_s``
    covers build-aside + canaries + the swap itself (service clock),
    so slow corpus refreshes are visible in the telemetry.
    """

    ok: bool
    generation: int
    canaries_run: int
    failures: tuple[str, ...]
    rolled_back: bool
    duration_s: float = 0.0
    #: Offline quality numbers recorded at swap time by generation
    #: hooks (e.g. the golden probe's baseline MedR/R@K) — what online
    #: metrics for this generation are judged against.  ``None`` when
    #: no hook is attached or the swap rolled back.
    quality_baseline: dict | None = None

    def summary(self) -> str:
        verdict = ("swapped" if self.ok
                   else f"rolled back ({len(self.failures)} failures)")
        return (f"swap -> generation {self.generation}: {verdict} "
                f"after {self.canaries_run} canaries "
                f"in {self.duration_s * 1000:.1f}ms")


def run_canaries(candidate: EngineGeneration, num_queries: int = 3
                 ) -> tuple[int, list[str]]:
    """Validate a candidate generation with self-queries.

    Recipe canaries: embed the first ``num_queries`` corpus recipes and
    query the image index; each must return a non-empty, finite,
    ascending-distance result list.  One ingredient canary exercises
    the fridge path (skipped if the sampled ingredients fall outside
    the trained vocabulary — an input property, not an engine fault).

    Returns ``(canaries_run, failures)``; an empty failure list means
    the candidate is safe to promote.
    """
    engine = candidate.engine
    failures: list[str] = []
    rows = min(int(num_queries), len(engine))
    run = 0
    # A poisoned candidate produces NaN distances; the point of the
    # canary is to *observe* them, so FP warnings must not escape.
    with np.errstate(all="ignore"):
        for row in range(rows):
            recipe = engine.dataset[int(engine.corpus.recipe_indices[row])]
            run += 1
            try:
                results = engine.search_by_recipe(
                    recipe, k=min(3, len(engine)))
            except Exception as exc:  # any canary crash is a veto
                failures.append(f"recipe canary row {row}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            if not results:
                failures.append(f"recipe canary row {row}: empty results")
            elif not all(math.isfinite(r.distance) for r in results):
                failures.append(f"recipe canary row {row}: "
                                f"non-finite distances")
            else:
                distances = [r.distance for r in results]
                if distances != sorted(distances):
                    failures.append(f"recipe canary row {row}: "
                                    f"unsorted distances")
        if rows:
            recipe = engine.dataset[int(engine.corpus.recipe_indices[0])]
            if recipe.ingredients:
                run += 1
                try:
                    results = engine.search_by_ingredients(
                        recipe.ingredients[:2], k=min(3, len(engine)))
                    if not all(math.isfinite(r.distance) for r in results):
                        failures.append(
                            "ingredient canary: non-finite distances")
                except ValueError:
                    run -= 1  # out-of-vocabulary query: not a veto
                except Exception as exc:
                    failures.append(f"ingredient canary: "
                                    f"{type(exc).__name__}: {exc}")
    return run, failures
