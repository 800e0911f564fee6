"""Concurrent query serving over the incrementally updated index.

The subsystem the paper's motivation asks for but its evaluation never
builds: reader threads answer boolean / streamed / vector queries against
an immutable published :class:`IndexSnapshot` while a single writer
absorbs batch updates, publishing a fresh snapshot atomically at each
flush — either a full checkpoint clone (``publish_mode="clone"``) or an
incremental copy-on-write snapshot sharing all untouched structure with
its predecessor (``publish_mode="cow"``).  A validity-ranged
:class:`QueryResultCache` short-circuits repeated queries and is
invalidated delta-scoped at cow publishes (wholesale under clone);
:class:`LoadGenerator` drives the mixed workload — checking served
answers against a brute-force mirror it alone owns — and reports
throughput plus tail and publish latency.

Beyond one interpreter, :mod:`repro.service.gateway` puts each shard
behind its own OS process (:mod:`repro.service.worker`, speaking the
:mod:`repro.service.wire` frame protocol) with an asyncio scatter-gather
gateway in front: per-shard deadlines, bounded-queue admission control,
and checkpoint + op-log failover when a worker dies.  With
``replicas > 1`` each shard runs k worker processes
(:mod:`repro.service.replication`): writes fan out to every healthy
replica, reads rotate across them with every answer validated against
the published version vector, and a SIGKILLed replica is rebuilt in the
background while its siblings keep serving — a
:class:`~repro.core.rebalance.RebuildScheduler` meanwhile staggers
``grow_buckets`` rebuilds so at most one shard pays the rehash spike per
flush round.

With ``read_tier="immediate"`` the service additionally keeps a
:class:`~repro.core.memtier.MemTier` — the writer's own pending batch,
read under a watermark and absorbed into every answer through
:mod:`repro.query.twotier` — so ingested documents are queryable
*before* any flush;
:class:`~repro.service.server.BackgroundMerger` drains the buffer
through the ordinary flush/publish path on a background thread.
"""

from .cache import CacheStats, QueryResultCache
from .gateway import (
    AsyncShardGateway,
    GatewayError,
    GatewayOverloaded,
    GatewayService,
    GatewaySnapshot,
    RemoteWorkerError,
    ShardDeadlineExceeded,
    WorkerDied,
    WorkerProcess,
)
from .loadgen import LoadConfig, LoadGenerator, ServingReport
from .replication import (
    Replica,
    ReplicaSet,
    ReplicaState,
    ReplicationStats,
)
from .server import (
    BackgroundMerger,
    QueryService,
    ServiceError,
    ServiceStats,
)
from .snapshot import IndexSnapshot
from .worker import FlushOutcome, ShardWorker, WorkerSpec

__all__ = [
    "AsyncShardGateway",
    "BackgroundMerger",
    "CacheStats",
    "FlushOutcome",
    "GatewayError",
    "GatewayOverloaded",
    "GatewayService",
    "GatewaySnapshot",
    "IndexSnapshot",
    "LoadConfig",
    "LoadGenerator",
    "QueryResultCache",
    "QueryService",
    "RemoteWorkerError",
    "Replica",
    "ReplicaSet",
    "ReplicaState",
    "ReplicationStats",
    "ServiceError",
    "ServiceStats",
    "ServingReport",
    "ShardDeadlineExceeded",
    "ShardWorker",
    "WorkerDied",
    "WorkerProcess",
    "WorkerSpec",
]
