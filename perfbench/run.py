"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-50k --seed 1 --seconds 20 --trace 0

Workloads: ``scan-50k``, ``fanout-write-20k`` (in process, see
``inproc.py``) and ``wire-model-2k`` (over HTTP, see ``wire.py``).
Every search is checked against an exact numpy reference.  The run
prints attempted / succeeded / failed per phase and operation, then,
as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
It exits non-zero, printing no result, when the program cannot be
imported or any step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: End-to-end metrics and their units (every workload reports all).
END_TO_END = {"setup_s": "s", "qps": "1/s", "p50_ms": "ms",
              "p95_ms": "ms", "rss_mb": "MB", "recall_at_10": "ratio"}

WORKLOADS = ("scan-50k", "fanout-write-20k", "wire-model-2k")


def result_line(metrics: dict, units: dict, recall: float,
                attempted: int, failed: int) -> str:
    """The final JSON line: every metric of ``units``, with its unit."""
    return json.dumps({
        "correct": failed == 0 and recall == 1.0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in units.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # the program under test, built from this checkout
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import inproc, tracing, wire

    runner = wire.run if args.workload == "wire-model-2k" else inproc.run
    metrics, recall, failed, tallies, lines = runner(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for tally in tallies:
        for line in tally.lines(args.workload):
            print(line)
    for line in lines:
        print(line)
    print(f"{args.workload} recall_at_10={recall:.6f}")
    units = tracing.LAYER_METRICS if args.trace else END_TO_END
    print(result_line(metrics, units, recall,
                      sum(t.attempted for t in tallies), failed),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
