"""An alert-triggered profile capture, end to end.

Stands up the resilient search service on a tiny synthetic corpus,
then injects the two halves of a classic brownout: a *straggling
shard* (every replica attempt on shard 0 stalls) and a *hot-spinning
thread* in the loadgen role.  The latency SLO burns through its
budget, the alert fires, and the ``AlertManager.on_fire`` hooks do
the rest — the sampling profiler opens a bounded capture window and
the flight recorder dumps an incident bundle.  Once the window
closes, a post-capture bundle lands with the full evidence:

* ``profile.txt``   — collapsed stacks blaming the spin on the
  loadgen role, plus the blocked time on the straggling stage;
* ``memory.json``   — the memory ledger's itemized bytes (index,
  rings, WAL, cache) against process RSS.

The folded profile is then rendered with the same code path as
``repro profile top`` / ``repro profile flame``:

    python examples/profiler_demo.py --out profiler-demo-out

No training runs: the demo uses a deterministic histogram embedder,
so it finishes in a few seconds of (real) wall clock — the sampler
needs real time to sample.
"""

import argparse
import pathlib
import shutil
import threading
import time

import numpy as np

from repro.cli import main as cli_main
from repro.core.engine import RecipeSearchEngine
from repro.data import DatasetConfig, RecipeFeaturizer, generate_dataset
from repro.obs import (AlertManager, BurnRateWindow, FlightRecorder,
                       Telemetry, default_serving_slos)
from repro.robustness import SlowShard
from repro.serving import (ClusterConfig, ResilientSearchService,
                           ServiceConfig)


class _ManagerClock:
    """Manual clock for the burn-rate windows; the service and the
    profiler run on real time, only SLO bookkeeping fast-forwards."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(float(seconds), 0.0)


class _Embedded:
    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data


class _StubModel:
    """Deterministic embedder: normalized ingredient-id histograms."""

    def __init__(self, dim: int = 16):
        self.dim = int(dim)

    def _recipe_rows(self, ids, lengths) -> np.ndarray:
        ids, lengths = np.asarray(ids), np.asarray(lengths)
        out = np.zeros((len(ids), self.dim))
        for row in range(len(ids)):
            n = max(int(lengths[row]), 1)
            hist = np.bincount(ids[row][:n] % self.dim,
                               minlength=self.dim).astype(float) + 1e-3
            out[row] = hist / np.linalg.norm(hist)
        return out

    def embed_recipes(self, ingredient_ids, ingredient_lengths,
                      sentence_vectors, sentence_lengths) -> _Embedded:
        return _Embedded(self._recipe_rows(ingredient_ids,
                                           ingredient_lengths))

    def embed_images(self, images) -> _Embedded:
        flat = np.asarray(images).reshape(len(images), -1)
        hist = np.abs(flat[:, :self.dim]) + 1e-3
        return _Embedded(hist / np.linalg.norm(hist, axis=1,
                                               keepdims=True))

    def encode_corpus(self, corpus, batch_size: int = 256):
        recipe = self._recipe_rows(corpus.ingredient_ids,
                                   corpus.ingredient_lengths)
        return recipe.copy(), recipe


class _FireAlways:
    def __contains__(self, query_id) -> bool:
        return True


def _spin(stop_event, sink=[0.0]):
    x = 1.0001
    while not stop_event.is_set():
        for __ in range(2000):
            x = x * x % 1.7
        sink[0] = x


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="profiler-demo-out",
                        help="output directory (telemetry + bundles)")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jsonl = out / "telemetry.jsonl"
    jsonl.unlink(missing_ok=True)
    shutil.rmtree(out / "flight", ignore_errors=True)

    print("== Setting up a 2-shard service with profiling attached ==")
    dataset = generate_dataset(DatasetConfig(
        num_pairs=60, num_classes=4, image_size=8, seed=7))
    featurizer = RecipeFeaturizer(word_dim=8, sentence_dim=8).fit(dataset)
    corpus = featurizer.encode_split(dataset, "test")
    engine = RecipeSearchEngine(_StubModel(), featurizer, dataset, corpus)

    fault = SlowShard(queries=(), shard_id=0, delay=0.3,
                      sleep=time.sleep)
    telemetry = Telemetry(jsonl_path=jsonl)
    service = ResilientSearchService(
        engine,
        ServiceConfig(deadline=5.0,
                      cluster=ClusterConfig(num_shards=2)),
        telemetry=telemetry, cluster_faults=fault)
    service.profiler.window_s = 1.5       # bounded capture per alert

    recorder = FlightRecorder(telemetry, out / "flight",
                              profiler=service.profiler,
                              memory=service.memory,
                              min_interval_s=0.0)
    manager_clock = _ManagerClock()
    manager = AlertManager(
        telemetry.registry, default_serving_slos(),
        windows=(BurnRateWindow("page", 60.0, 300.0, 2.0),),
        clock=manager_clock, events=telemetry.events,
        on_fire=[service.profiler.on_alert, recorder.on_alert])

    indices = engine.corpus.recipe_indices

    def traffic(n: int) -> None:
        for i in range(n):
            recipe = dataset[int(indices[i % len(indices)])]
            assert service.search_by_recipe(recipe, k=5).ok

    print("== Phase 1: healthy steady state ==")
    traffic(30)
    for __ in range(3):
        manager_clock.sleep(20.0)
        manager.evaluate()
    print(f"   alerts firing: "
          f"{[n for n, a in manager.alerts.items() if a.firing]}")
    print(f"   profiler running: {service.profiler.running}")

    print("== Phase 2: straggling shard + hot-spinning loadgen thread ==")
    fault.queries = _FireAlways()         # shard 0 stalls 300 ms
    stop_spin = threading.Event()
    spinner = threading.Thread(target=_spin, args=(stop_spin,),
                               name="loadgen-hot-9", daemon=True)
    spinner.start()
    traffic(8)                            # every index stage now slow

    print("== Phase 3: the SLO burns, the alert opens a window ==")
    fired = []
    for __ in range(6):
        manager_clock.sleep(20.0)
        fired = [a.slo.name for a in manager.evaluate() if a.firing]
        if fired:
            break
    print(f"   alerts firing: {fired}")
    print(f"   profiler running: {service.profiler.running} "
          f"(bounded window, {service.profiler.window_s:.1f}s)")

    # Keep the incident load up while the capture window samples it.
    traffic(5)
    deadline = time.monotonic() + 10.0
    while service.profiler.running and time.monotonic() < deadline:
        time.sleep(0.05)
    stop_spin.set()
    spinner.join()
    fault.queries = ()
    print(f"   window closed after "
          f"{service.profiler.snapshot()['samples']} samples")

    print("== Phase 4: post-capture flight bundle ==")
    bundle = recorder.dump(reason="profile-capture-complete")
    for name in sorted(p.name for p in bundle.iterdir()):
        print(f"   {bundle / name}")
    snap = service.profiler.snapshot()
    stages = {stage: dict(states)
              for stage, states in snap["stages"].items()}
    print(f"   stages sampled: {stages}")
    memory = service.memory.snapshot()
    print(f"   rss {memory['rss_bytes'] / 1e6:.1f} MB, tracked "
          f"{memory['tracked_bytes'] / 1e6:.3f} MB across "
          f"{len(memory['components'])} components")

    telemetry.close()

    print()
    print("== Rendering the capture via `repro profile top` ==")
    cli_main(["profile", "top",
              "--profile", str(bundle / "profile.txt")])
    print()
    print("== And as a flame tree (`repro profile flame`) ==")
    cli_main(["profile", "flame",
              "--profile", str(bundle / "profile.txt"),
              "--min-share", "0.05"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
