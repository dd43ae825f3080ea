"""Sharded multi-process serving of patient-stream fleets.

The layer above :class:`~repro.core.sessions.StreamSessionManager` on
the road to fleet scale (see ``docs/serving.md``):

``repro.serve.hashing``
    Deterministic consistent-hash ring routing ``session_id`` keys to
    shard workers with minimal movement on pool changes.
``repro.serve.worker``
    Shard workers — one session manager per shard, behind either an
    in-process transport or a child process with a pipe.
``repro.serve.gateway``
    :class:`ShardedStreamGateway`: open/push/push_many/close with the
    single-manager event semantics, bounded per-session submit queues
    with explicit :class:`Backpressure`, elastic worker add/remove with
    bit-exact session migration, and whole-fleet checkpoint/restore
    built on ``save_sessions``/``load_sessions`` shard files plus a
    manifest.  Every tick counts into :class:`TickStats`, monotonic
    counters that ``/metrics`` reads and nothing resets.
``repro.serve.loadgen``
    The load harness: :class:`LoadGenerator` opens many clocked-source
    sessions against a gateway, times every tick itself and measures
    p50/p99/p99.9 tick latency, sustained throughput, backpressure
    onset and worker-loss recovery; ``repro loadtest`` runs it.
``repro.serve.service``
    The network front end: one asyncio TCP server speaking a
    length-prefixed JSON data plane (open/push/close/checkpoint) and a
    plain-HTTP ops plane (``GET /healthz``, ``GET /metrics``) over one
    gateway, with graceful SIGTERM drain-to-checkpoint.
``repro.serve.metrics``
    Shared observability: the ``/metrics`` snapshot builder and the
    structured JSON log formatter.
"""

from repro.serve.gateway import (
    FLEET_MANIFEST,
    Backpressure,
    ShardedStreamGateway,
    TickStats,
)
from repro.serve.hashing import HashRing, stable_hash
from repro.serve.loadgen import (
    LoadConfig,
    LoadGenerator,
    LoadReport,
    run_load_test,
)
from repro.serve.metrics import (
    JsonLogFormatter,
    gateway_metrics,
    service_logger,
)
from repro.serve.service import (
    LaelapsService,
    ServiceClient,
    ServiceError,
    ServiceRunner,
    http_get,
    run_service,
)
from repro.serve.worker import (
    InlineShardWorker,
    ProcessShardWorker,
    ShardCommandHandler,
    WorkerDiedError,
    WorkerError,
    WorkerTimeoutError,
)

__all__ = [
    "ShardedStreamGateway",
    "Backpressure",
    "FLEET_MANIFEST",
    "TickStats",
    "HashRing",
    "stable_hash",
    "InlineShardWorker",
    "ProcessShardWorker",
    "ShardCommandHandler",
    "WorkerError",
    "WorkerDiedError",
    "WorkerTimeoutError",
    "LoadConfig",
    "LoadGenerator",
    "LoadReport",
    "run_load_test",
    "LaelapsService",
    "ServiceRunner",
    "ServiceClient",
    "ServiceError",
    "run_service",
    "http_get",
    "JsonLogFormatter",
    "gateway_metrics",
    "service_logger",
]
