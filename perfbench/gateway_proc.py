"""The serving process of ``wire-model-2k``.

Boots the seeded, untrained AdaMine model, the service and the HTTP
gateway in a process of their own, so the client's parsing never holds
the server's GIL.  Run by ``wire.py``; talks over its stdin/stdout:

* on start-up it prints ``{"port", "setup_s", "builds"}`` once ready;
* ``boot`` (untraced runs, after the measured phase) boots the rest of
  ``BOOTS`` and answers ``{"setup_s"}`` with every boot's time;
* ``trace`` (traced runs only) starts recording spans;
* ``report`` answers ``{"rss_mb", "layers", "lines"}``;
* end of input drains the gateway and exits.

Noise controls: the inputs are loaded and frozen out of the collector
before the first boot, garbage is collected before every boot and
before the traced phase, and set-up runs ``BOOTS`` times (each earlier
gateway is drained, and its model and engine released, untimed) and
reports the median.  Untraced runs boot half the times before the
measured phase and half after it, as the in-process workloads do.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEADLINE_S = 5.0
BOOTS = 25        # set-ups per run; setup_s is their median


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np

    from perfbench import inputs, tracing
    from repro.core.engine import RecipeSearchEngine
    from repro.serving import ResilientSearchService, ServiceConfig
    from repro.serving.gateway import Gateway, GatewayConfig

    featurizer = inputs.wire_inputs(args.seed).featurizer
    dataset = inputs.wire_dataset(args.seed)
    corpus = featurizer.encode_corpus(dataset, np.arange(len(dataset)))
    recorder = tracing.Recorder() if args.trace else None
    if recorder is not None:
        recorder.install_program()
        recorder.enabled = True
    gc.collect()
    gc.freeze()

    setups, gateway, service = [], None, None

    def boot(count: int) -> None:
        nonlocal gateway, service
        for _ in range(count):
            if gateway is not None:
                gateway.drain(reason="reboot")
            gateway = service = model = engine = None
            gc.collect()
            started = time.perf_counter()
            with (recorder.span("boot") if recorder is not None
                  else contextlib.nullcontext()):
                model = inputs.wire_model(featurizer, dataset, args.seed)
                engine = RecipeSearchEngine(model, featurizer, dataset,
                                            corpus)
                service = ResilientSearchService(
                    engine, ServiceConfig(deadline=DEADLINE_S))
                gateway = Gateway(service, GatewayConfig(port=0)).start()
            setups.append(time.perf_counter() - started)

    boot(BOOTS if recorder is not None else (BOOTS + 1) // 2)
    builds = {}
    if recorder is not None:
        builds = tracing.build_metrics(recorder.spans)
        recorder.enabled = False
        recorder.install_service(service)
    _reply({"port": gateway.port, "setup_s": setups, "builds": builds})

    window = None
    for line in sys.stdin:
        command = line.strip()
        if command == "trace" and recorder is not None:
            gc.collect()
            window = tracing.StageWindow(service)
            recorder.start_phase()
            _reply({"ok": True})
        elif command == "boot":
            boot(BOOTS - len(setups))
            _reply({"setup_s": setups})
        elif command == "report":
            layers, lines = {}, []
            if recorder is not None:
                recorder.enabled = False
                layers = tracing.layer_metrics(recorder.spans)
                layers.update(recorder.gc_metrics())
                lines = tracing.cross_check_lines(
                    "wire-model-2k", tracing.stage_means(recorder.spans),
                    window.means() if window is not None else {})
                recorder.dump(pathlib.Path(".bench_out")
                              / f"spans-wire-model-2k-{args.seed}.jsonl")
            _reply({"rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "layers": layers, "lines": lines})
        else:
            _reply({"error": f"unknown command {command!r}"})
    gateway.drain(reason="end of run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
