"""The wire workload: ``wire-model-2k``.

The HTTP gateway runs in its own process (``gateway_proc.py``) with the
result cache and static admission at their defaults.  The model is a
seeded, untrained AdaMine (``build_scenario("adamine", ...,
latent_dim=32, backbone="hist")``), whose forward costs what a trained
one's does; the corpus is all 2,000 pairs of a generated dataset.
Half the pooled queries are ingredient lists and half ``recipe_id``,
all with ``k=10``; one request in four repeats one of 32 hot queries.

Why: on a cache miss the model forward is most of the request, so
embed, gateway and cache work show here and not in the stub workloads.
The one-in-four hot share keeps both p50 and p99 among cache misses.

Load model: closed loop, one client thread driving two keep-alive
connections — each connection has one request in flight, so the
admission plane (and any later micro-batching) sees two concurrent
requests.  Cold queries cycle through 1,536 distinct bodies in a
seeded order, far more than the cache's 256 entries, so they miss.
"""

from __future__ import annotations

import gc
import http.client
import json
import pathlib
import select
import subprocess
import sys
import time

import numpy as np

from . import inputs as inputs_module
from . import oracle
from .stats import Tally, needed_samples, percentile

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEADERS = {"Content-Type": "application/json"}
WARMUP_S = 1.0
MIN_REQUESTS = needed_samples(99)
MAX_PHASE_S = 75.0
READY_TIMEOUT_S = 150.0
REPLY_TIMEOUT_S = 60.0


class _Server:
    """The gateway process and its line protocol."""

    def __init__(self, seed: int, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.gateway_proc",
             "--seed", str(seed), "--trace", str(int(trace))],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.ready: dict = {}

    def wait_ready(self) -> dict:
        """Block until the gateway listens; its start-up report."""
        self.ready = self._read(READY_TIMEOUT_S)
        return self.ready

    def _read(self, timeout: float) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError("gateway process did not answer "
                               f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read(REPLY_TIMEOUT_S)

    def stop(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class _Client:
    """One thread, two keep-alive connections, one request in flight
    on each."""

    def __init__(self, port: int, bodies: list[bytes]):
        self.port = port
        self.bodies = bodies
        # (query, client latency s, HTTP status, body, X-Cache, tally)
        self.records: list[tuple] = []
        self.tallies: list[Tally] = []

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REPLY_TIMEOUT_S)

    def phase(self, name: str, ops, seconds: float,
              min_requests: int = 0, min_misses: int = 0) -> dict:
        tally = Tally(name)
        self.tallies.append(tally)
        conns = [self._connect(), self._connect()]
        pending: list[tuple | None] = [None, None]
        first = len(self.records)
        misses = 0
        started = time.perf_counter()

        def send(slot: int) -> bool:
            try:
                _, query = next(ops)
            except StopIteration:
                return False
            t0 = time.perf_counter()
            conns[slot].request("POST", "/search", body=self.bodies[query],
                                headers=HEADERS)
            pending[slot] = (query, t0)
            return True

        stopping = not (send(0) and send(1))
        slot = 0
        while pending[0] is not None or pending[1] is not None:
            if pending[slot] is None:
                slot ^= 1
                continue
            query, t0 = pending[slot]
            try:
                response = conns[slot].getresponse()
                body, status = response.read(), response.status
                cache = response.getheader("X-Cache")
            except (OSError, http.client.HTTPException):
                body, status, cache = b"", 0, None
                conns[slot].close()
                conns[slot] = self._connect()
            latency = time.perf_counter() - t0
            pending[slot] = None
            self.records.append((query, latency, status, body, cache, tally))
            misses += cache == "miss"
            if not stopping:
                elapsed = time.perf_counter() - started
                stopping = elapsed >= MAX_PHASE_S or (
                    elapsed >= seconds
                    and len(self.records) - first >= min_requests
                    and misses >= min_misses)
            if not stopping:
                stopping = not send(slot)
            slot ^= 1
        elapsed = time.perf_counter() - started
        for conn in conns:
            conn.close()
        return {"elapsed": elapsed, "records": (first, len(self.records))}

    def latencies(self, phase: dict) -> list[float]:
        first, last = phase["records"]
        return [r[1] for r in self.records[first:last]]


def _check(client: _Client, reference) -> tuple[float, list[dict]]:
    """Parse every reply, tally it, and score it against the exact
    reference; returns mean recall and the parsed bodies."""
    recalls, parsed = [], []
    for query, _, status, body, cache, tally in client.records:
        reply = None
        if status == 200:
            try:
                reply = json.loads(body)
            except ValueError:
                reply = None
        rows = ([r["corpus_row"] for r in reply["results"]]
                if reply else [])
        dists = [r["distance"] for r in reply["results"]] if reply else []
        ok = (reply is not None and reply.get("status") == "ok"
              and len(rows) == inputs_module.K
              and len(set(rows)) == len(rows)
              and all(a <= b for a, b in zip(dists, dists[1:])))
        tally.add("search", ok)
        parsed.append(reply if ok else None)
        if ok:
            recalls.append(oracle.recall(rows, reference.ids(query)))
    return (float(np.mean(recalls)) if recalls else 0.0), parsed


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns ``(metrics, recall@10, failed ops, tallies,
    report lines)``."""
    wire_inputs = inputs_module.wire_inputs(seed)
    bodies = [json.dumps(r).encode("utf-8") for r in wire_inputs.requests]
    reference = wire_inputs.reference
    del wire_inputs
    gc.collect()
    server = _Server(seed, trace)
    try:
        client = _Client(server.wait_ready()["port"], bodies)
        client.phase("warmup", inputs_module.wire_warmup_ops(), WARMUP_S)
        ops = inputs_module.wire_ops(seed)
        if not trace:
            main = client.phase("measure", ops, seconds, MIN_REQUESTS)
            setups = server.command("boot")["setup_s"]
        else:
            plain = client.phase("untraced", ops, seconds / 2,
                                 MIN_REQUESTS)
            server.command("trace")
            traced = client.phase("traced", ops, seconds / 2,
                                  MIN_REQUESTS, MIN_REQUESTS)
        report = server.command("report")
    finally:
        server.stop()
    recall, parsed = _check(client, reference)
    tallies = client.tallies
    failed = sum(t.failed for t in tallies)
    if not trace:
        latencies = client.latencies(main)
        metrics = {
            "setup_s": float(np.median(setups)),
            "qps": len(latencies) / main["elapsed"],
            "p50_ms": percentile(latencies, 50) * 1000.0,
            "p95_ms": percentile(latencies, 95) * 1000.0,
            "rss_mb": report["rss_mb"],
            "recall_at_10": recall,
        }
        return metrics, recall, failed, tallies, []
    metrics = dict(server.ready["builds"])
    metrics.update(report["layers"])
    metrics["e2e.search_p99_ms"] = percentile(
        client.latencies(plain), 99) * 1000.0
    first, last = traced["records"]
    wire_ms = [client.records[i][1] * 1000.0
               - parsed[i]["outcome"]["latency_ms"]
               for i in range(first, last)
               if client.records[i][4] == "miss" and parsed[i]]
    for metric, q in (("gateway.wire_p50_ms", 50),
                      ("gateway.wire_p99_ms", 99)):
        value = percentile(wire_ms, q)
        if value is not None:
            metrics[metric] = value
    metrics["gateway.cache_hit_ratio"] = (
        sum(client.records[i][4] == "hit" for i in range(first, last))
        / max(last - first, 1))
    metrics["trace.overhead_p50_ms"] = (
        percentile(client.latencies(traced), 50)
        - percentile(client.latencies(plain), 50)) * 1000.0
    return metrics, recall, failed, tallies, report["lines"]
