"""Alternating before/after pairs of one perfbench workload.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload wire-model-2k \
        [--seed 1] [--pairs 10]

Exports ``--parent`` with ``git archive`` into a temporary directory,
then runs ``perfbench/run.py`` (untraced, 20 s) once on each side per pair:
the parent's own copy against the parent, this checkout's against the
working tree as it is on disk.  The side that runs first alternates
from pair to pair, so a host that drifts during the session moves both
sides alike.  Prints every run's metrics as it lands, then, per
end-to-end metric of ``BENCHMARK.json``, each side's median with its
q1–q3 and the number of pairs in which the working tree did better.
Ten pairs is the default because a gain is claimed only when the
working tree wins at least nine of ten.
Exits non-zero when any run fails or reads incorrect.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Every run's length: pairs are only comparable at one length.
SECONDS = 20


def export(rev: str, into: pathlib.Path) -> None:
    """Unpack ``rev``'s committed files into ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout,
                   check=True)


def run_once(root: pathlib.Path, workload: str, seed: int) -> dict:
    """One untraced run; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench-pairs: run in {root} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"bench-pairs: run in {root} is not correct: "
                         f"{lines[-1]}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    better = {entry["name"]: entry["better"] for entry in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_root = pathlib.Path(tmp)
        export(args.parent, parent_root)
        roots = {"parent": parent_root, "tree": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "tree") if pair % 2 == 0 else ("tree",
                                                              "parent")
            for side in order:
                metrics = run_once(roots[side], args.workload, args.seed)
                runs[side].append(metrics)
                print(f"pair {pair + 1} {side}: " + " ".join(
                    f"{name}={value:.4g}" for name, value
                    in metrics.items()), flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{SECONDS} s, parent {args.parent}: median [q1, q3]")
    for name, direction in better.items():
        before = [run[name] for run in runs["parent"]]
        after = [run[name] for run in runs["tree"]]
        wins = sum((a < b) if direction == "lower" else (a > b)
                   for a, b in zip(after, before))
        (m0, lo0, hi0), (m1, lo1, hi1) = spread(before), spread(after)
        change = (m1 - m0) / m0 * 100.0 if m0 else float("nan")
        print(f"  {name:13s} parent {m0:.4g} [{lo0:.4g}, {hi0:.4g}]  "
              f"tree {m1:.4g} [{lo1:.4g}, {hi1:.4g}]  "
              f"{change:+.1f}%  tree better in {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
