"""The traced benchmark's hooks still fit the program.

``perfbench/tracing.py`` wraps named functions and methods of the
serving stack by ``getattr``; renaming or deleting one of them breaks
``perfbench/run.py --trace 1``, and a fast path that goes around one
(a module-global kernel or merge, or the admission instance's
``acquire``, looked up once and cached) silently empties a layer of a
traced run.  These tests install every hook on a stub-model service,
serve one request through them — sharded, and on the default
one-shard path where fast paths live — check that every layer
recorded a span, and that ``uninstall`` puts every original back.
"""

import threading

from perfbench.tracing import NAME, Recorder
from repro.serving import (ClusterConfig, IndexCluster,
                           ResilientSearchService, ServiceConfig)

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)

#: One span name per wrapped layer a search passes through.
SEARCH_LAYERS = {"service.request", "admission.acquire", "engine.embed",
                 "cluster.query", "index.query", "distance.kernel",
                 "sharding.merge", "engine.materialize"}


def _traced_search(config: ServiceConfig):
    dataset, featurizer = make_world()
    clock = FakeClock()
    service = ResilientSearchService(
        make_engine(dataset, featurizer), config,
        clock=clock, sleep=clock.sleep)
    recorder = Recorder()
    try:
        recorder.install_program()
        recorder.install_service(service)
        recorder.start_phase()
        response = service.search_by_ingredients(
            known_ingredients(service.engine), k=3)
        recorder.enabled = False
    finally:
        recorder.uninstall()
    return response, {span[NAME] for span in recorder.spans}


def test_install_record_and_uninstall_restore_originals():
    originals = (threading.Thread.start, IndexCluster.query,
                 ResilientSearchService.search_by_ingredients)
    response, names = _traced_search(ServiceConfig(
        cluster=ClusterConfig(num_shards=2, replication=1)))
    assert response.ok
    assert SEARCH_LAYERS <= names
    assert (threading.Thread.start, IndexCluster.query,
            ResilientSearchService.search_by_ingredients) == originals


def test_one_shard_search_reaches_every_layer_hook():
    response, names = _traced_search(ServiceConfig())
    assert response.ok
    assert SEARCH_LAYERS <= names
