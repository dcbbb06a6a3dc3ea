"""The traced benchmark's hooks still fit the program.

``perfbench/tracing.py`` wraps named functions and methods of the
serving stack by ``getattr``; renaming or deleting one of them breaks
``perfbench/run.py --trace 1``.  This test installs every hook on a
stub-model service, serves one sharded request through them, and
checks that ``uninstall`` puts every original back.
"""

import threading

from perfbench.tracing import NAME, Recorder
from repro.serving import (ClusterConfig, IndexCluster,
                           ResilientSearchService, ServiceConfig)

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)


def test_install_record_and_uninstall_restore_originals():
    dataset, featurizer = make_world()
    clock = FakeClock()
    service = ResilientSearchService(
        make_engine(dataset, featurizer),
        ServiceConfig(cluster=ClusterConfig(num_shards=2,
                                            replication=1)),
        clock=clock, sleep=clock.sleep)
    originals = (threading.Thread.start, IndexCluster.query,
                 ResilientSearchService.search_by_ingredients)
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
    assert response.ok
    names = {span[NAME] for span in recorder.spans}
    assert {"service.request", "admission.acquire", "engine.embed",
            "cluster.query", "index.query",
            "engine.materialize"} <= names
    assert (threading.Thread.start, IndexCluster.query,
            ResilientSearchService.search_by_ingredients) == originals
