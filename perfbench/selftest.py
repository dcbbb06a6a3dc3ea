"""Self-tests of the benchmark harness (not of the program).

    python3 perfbench/selftest.py

* a given seed yields an identical op stream per workload;
* the exact reference matches ``NearestNeighborIndex.query`` on a tiny
  corpus, including a tie;
* every metric in ``BENCHMARK.json`` is printed, with its unit;
* a percentile is reported only when at least ten samples lie beyond.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import inputs, oracle, run, stats, tracing  # noqa: E402
from repro.retrieval.index import NearestNeighborIndex  # noqa: E402


class OpStreams(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for workload, ops in inputs.OPS.items():
            first = list(itertools.islice(ops(7), 5000))
            again = list(itertools.islice(ops(7), 5000))
            other = list(itertools.islice(ops(8), 5000))
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)

    def test_fanout_pattern(self):
        ops = [kind for kind, _ in itertools.islice(inputs.fanout_ops(3),
                                                    20)]
        self.assertEqual(ops[:10], ["search"] * 4 + ["add"]
                         + ["search"] * 4 + ["delete"])

    def test_wire_hot_share(self):
        ops = list(itertools.islice(inputs.wire_ops(5), 20000))
        hot = sum(query < inputs.WIRE_HOT for _, query in ops) / len(ops)
        self.assertAlmostEqual(hot, 0.25, delta=0.02)


class Reference(unittest.TestCase):
    def test_matches_index_with_tie(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((40, 6))
        rows[17] = rows[5]              # a duplicate row: an exact tie
        query = rows[5] + 1e-9
        index = NearestNeighborIndex(rows)
        for k in (1, 2, 5, 40):
            ids, dist = index.query(query, k=k)
            keys, ref = oracle.topk(np.arange(len(rows)),
                                    oracle.distances(oracle.normalize(rows),
                                                     query), k)
            np.testing.assert_array_equal(ids, keys)
            np.testing.assert_array_equal(dist, ref)
        reference = oracle.Reference(rows, [query], k=2)
        np.testing.assert_array_equal(reference.ids(0), [5, 17])

    def test_extra_rows_merge(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((30, 4))
        extra = rng.standard_normal((5, 4))
        query = rng.standard_normal(4)
        whole = NearestNeighborIndex(np.vstack([rows, extra]))
        reference = oracle.Reference(rows, [query], k=8)
        got = reference.ids(0, np.arange(30, 35),
                            oracle.normalize(extra))
        np.testing.assert_array_equal(got, whole.query(query, k=8)[0])

    def test_recall(self):
        self.assertEqual(oracle.recall([1, 2, 3], [3, 2, 1]), 1.0)
        self.assertAlmostEqual(oracle.recall([1, 2, 9], [1, 2, 3]), 2 / 3)


class Metrics(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def _printed(self, units):
        line = run.result_line({}, units, 1.0, attempted=1, failed=0)
        return json.loads(line)["metrics"]

    def test_end_to_end_printed_with_units(self):
        printed = self._printed(run.END_TO_END)
        for metric in self.spec["end_to_end"]:
            self.assertIn(metric["name"], printed)
            self.assertEqual(printed[metric["name"]]["unit"],
                             metric["unit"])
        self.assertEqual(len(printed), len(self.spec["end_to_end"]))

    def test_per_layer_printed_with_units(self):
        printed = self._printed(tracing.LAYER_METRICS)
        for metric in self.spec["per_layer"]:
            self.assertIn(metric["name"], printed)
            self.assertEqual(printed[metric["name"]]["unit"],
                             metric["unit"])
        self.assertEqual(len(printed), len(self.spec["per_layer"]))

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


class Percentiles(unittest.TestCase):
    def test_needs_ten_beyond(self):
        self.assertEqual(stats.needed_samples(99), 1000)
        self.assertIsNone(stats.percentile(np.arange(900.0), 99))
        self.assertIsNotNone(stats.percentile(np.arange(1000.0), 99))
        self.assertIsNone(stats.percentile(np.arange(19.0), 50))
        self.assertEqual(stats.percentile(np.arange(101.0), 50), 50.0)

    def test_layer_tail_omitted_when_thin(self):
        spans = [[i, "index.query", 0.0, 0.001 * (i + 1), 1000 + i,
                  1000 + i, {"rows": 1, "bytes": 8}] for i in range(500)]
        spans += [[1000 + i, "service.request", 0.0, 1.0, None,
                   1000 + i, {"attempts": 1}] for i in range(500)]
        out = tracing.layer_metrics(spans)
        self.assertIn("index.query_p50_ms", out)
        self.assertNotIn("index.query_p99_ms", out)


if __name__ == "__main__":
    unittest.main()
