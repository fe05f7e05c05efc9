"""``repro.gateway`` — the serving stack behind ``rota serve`` and ``rota gateway``.

An asyncio HTTP front end over a supervised pool of worker *processes*,
with request coalescing on content keys (concurrent identical
submissions share one execution), streaming job progress (SSE plus
ETag conditional polling), tiered backpressure (accept →
coalesce-only → shed → draining), and poisoned-key quarantine. The
HTTP surface is generated from the experiment registry; see
``docs/architecture.md`` ("Serving") for routes and the error contract.
"""

from repro.gateway.api import ApiResponse, GatewayAPI
from repro.gateway.coalesce import Coalescer
from repro.gateway.http import AsyncHTTPFrontend
from repro.gateway.jobs import (
    TIERS,
    GatewayManager,
    Job,
    JobState,
    QueueFullError,
    ServiceStoppedError,
    UnknownJobError,
)
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.pool import PoolEvent, WorkerProcessPool
from repro.gateway.server import GatewayConfig, GatewayService, serve_gateway

__all__ = [
    "ApiResponse",
    "AsyncHTTPFrontend",
    "Coalescer",
    "GatewayAPI",
    "GatewayConfig",
    "GatewayManager",
    "GatewayMetrics",
    "GatewayService",
    "Job",
    "JobState",
    "PoolEvent",
    "QueueFullError",
    "ServiceStoppedError",
    "TIERS",
    "UnknownJobError",
    "WorkerProcessPool",
    "serve_gateway",
]
