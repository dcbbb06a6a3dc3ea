"""Resilient serving layer for the recipe search engine.

Production containment around :class:`~repro.core.engine.RecipeSearchEngine`:

* :mod:`~repro.serving.deadline` — cooperative per-request time
  budgets threaded through every stage;
* :mod:`~repro.serving.retry` — backoff-with-jitter retries and
  per-dependency circuit breakers;
* :mod:`~repro.serving.degraded` — model-free lexical fallback
  ranking when the embed/index stages are unavailable;
* :mod:`~repro.serving.hotswap` — canary-validated, atomic
  corpus+index generation swaps;
* :mod:`~repro.serving.sharding` — deterministic hash-by-id shard
  placement and bitwise-exact top-k merging;
* :mod:`~repro.serving.cluster` — the sharded, replicated
  :class:`~repro.serving.cluster.IndexCluster` with a sequential
  fan-out on the caller's thread, failover, anti-entropy repair,
  and partial results;
* :mod:`~repro.serving.wal` — the crash-safe, checksummed,
  segment-rotated write-ahead delta log;
* :mod:`~repro.serving.ingest` — streaming adds/deletes over a frozen
  base index: the exact base ∪ delta overlay, WAL-backed durability,
  and exactly-once compaction into a new base snapshot;
* :mod:`~repro.serving.admission` — adaptive admission control:
  per-tenant token buckets, weighted deficit-round-robin fair
  queuing, an AIMD concurrency limiter, and the brownout degradation
  ladder;
* :mod:`~repro.serving.loadgen` — open-loop multi-tenant load
  generation for overload experiments, in-process or over HTTP;
* :mod:`~repro.serving.service` — the
  :class:`~repro.serving.service.ResilientSearchService` tying it all
  together with admission control and structured outcome records;
* :mod:`~repro.serving.gateway` — the hardened stdlib HTTP front-end:
  wire armor (timeouts, size bounds, slowloris reaper,
  shed-at-accept), graceful SIGTERM drain, and a swap-aware LRU+TTL
  result cache with stale-while-revalidate under brownout.
"""

from .admission import (BROWNOUT_LADDER, CRITICALITIES, SHED_REASONS,
                        AdaptiveLimiter, AdmissionConfig,
                        AdmissionController, AdmissionDecision,
                        BrownoutConfig, BrownoutController, FairQueue,
                        TenantPolicy, TokenBucket)
from .cluster import ClusterConfig, ClusterResult, IndexCluster, ShardReplica
from .deadline import Deadline, DeadlineExceeded
from .degraded import DegradedRanker
from .gateway import (SHED_STATUS_CODES, STATUS_CODES, BadRequest,
                      CacheConfig, Gateway, GatewayConfig, ResultCache,
                      normalize_search_request, parse_deadline_header,
                      query_fingerprint)
from .hotswap import EngineGeneration, SwapReport, run_canaries
from .ingest import (CompactionReport, CompactionThread, CompactionTicket,
                     DeltaOverlay, IngestAck, IngestConfig, IngestError,
                     IngestOp, Ingestor, payload_to_recipe,
                     recipe_to_payload, scan_log)
from .loadgen import (GOOD_STATUSES, HttpRequester, LoadGenerator,
                      LoadReport, TenantLoad, TenantReport)
from .retry import CircuitBreaker, CircuitState, RetryPolicy
from .service import (INGEST_STATUSES, STATUSES, IngestOutcome,
                      RequestOutcome, ResilientSearchService,
                      ServiceConfig, ServiceResponse)
from .sharding import merge_topk, partition_positions, stable_hash64
from .wal import (DeltaLog, LogPosition, LogRecovery, WalCorruption,
                  WalError, WalWriteError)

__all__ = [
    "Deadline", "DeadlineExceeded",
    "DegradedRanker",
    "EngineGeneration", "SwapReport", "run_canaries",
    "CircuitBreaker", "CircuitState", "RetryPolicy",
    "STATUSES", "RequestOutcome", "ResilientSearchService",
    "ServiceConfig", "ServiceResponse",
    "INGEST_STATUSES", "IngestOutcome",
    "ClusterConfig", "ClusterResult", "IndexCluster", "ShardReplica",
    "stable_hash64", "partition_positions", "merge_topk",
    "WalError", "WalCorruption", "WalWriteError",
    "DeltaLog", "LogPosition", "LogRecovery",
    "IngestError", "IngestConfig", "IngestOp", "IngestAck",
    "DeltaOverlay", "Ingestor", "CompactionTicket", "CompactionReport",
    "CompactionThread", "scan_log", "recipe_to_payload",
    "payload_to_recipe",
    "CRITICALITIES", "SHED_REASONS", "BROWNOUT_LADDER",
    "TenantPolicy", "BrownoutConfig", "AdmissionConfig",
    "AdmissionDecision", "TokenBucket", "FairQueue",
    "AdaptiveLimiter", "BrownoutController", "AdmissionController",
    "GOOD_STATUSES", "TenantLoad", "TenantReport", "LoadReport",
    "LoadGenerator", "HttpRequester",
    "STATUS_CODES", "SHED_STATUS_CODES", "BadRequest", "CacheConfig",
    "GatewayConfig", "ResultCache", "Gateway",
    "normalize_search_request", "parse_deadline_header",
    "query_fingerprint",
]
