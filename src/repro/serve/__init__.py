"""Query serving: persistent cube store, cache, server and telemetry.

Section 5.1's observation — precomputed BUC-tree leaves answer any
iceberg query almost immediately — made into a serving subsystem:

* :class:`CubeStore` persists the leaves (sorted columnar runs,
  checksummed) so a restart never repeats the precompute, publishes
  every state as an immutable snapshot (readers never wait for
  ``append`` or ``compact``), and recovers from crashes mid-compaction
  (one manifest replace is the commit) and damaged leaf files (salvage
  from the covering root leaf);
* :class:`QueryCache` keeps hot answers with LRU eviction and
  insert-generation invalidation;
* :class:`CubeServer` admits concurrent queries (thread pool + optional
  stdlib-HTTP JSON endpoint, ``repro.serve.http``) and answers cache -> store,
  degrading gracefully under load: bounded admission
  (:class:`AdmissionGate`) and per-query :class:`Deadline` budgets;
* :class:`ServerTelemetry` records per-query latency, source and
  degradation events on the metrics registry;
* :class:`CubeRouter` (``repro.serve.cluster``) fronts N store shards
  x R replicas as one logical cube: stable covering-leaf placement
  (:class:`ShardMap`), per-replica :class:`CircuitBreaker` failover,
  generation-pinned fan-out, and honest 503s when a whole shard is
  down;
* :class:`WriteAheadLog` (``repro.serve.ingest``) makes appends durable
  and idempotent: checksummed batch-id-stamped delta records fsync'd
  before acknowledgement, replayed on restart, deduplicated on retry
  (:class:`AppendResult`), compacted in the background, and re-delivered
  to lagging replicas by the router's anti-entropy sweep (retries paced
  by :class:`RetryPolicy`).
"""

from .cache import QueryCache, cache_key
from .cluster import CubeRouter, ReplicaClient, ShardMap, stable_shard_hash
from .http import HttpEndpoint
from .ingest import WalRecord, WriteAheadLog
from .resilience import AdmissionGate, CircuitBreaker, Deadline, RetryPolicy
from .server import CubeAnswer, CubeServer, QueryAnswer
from .store import AppendResult, CubeStore
from .telemetry import ServerTelemetry

__all__ = [
    "CubeStore",
    "AppendResult",
    "WriteAheadLog",
    "WalRecord",
    "RetryPolicy",
    "QueryCache",
    "cache_key",
    "CubeServer",
    "HttpEndpoint",
    "QueryAnswer",
    "CubeAnswer",
    "CubeRouter",
    "ShardMap",
    "ReplicaClient",
    "stable_shard_hash",
    "ServerTelemetry",
    "AdmissionGate",
    "CircuitBreaker",
    "Deadline",
]
