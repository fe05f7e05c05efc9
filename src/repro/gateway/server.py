"""Assembly and lifecycle of one gateway process (``rota serve`` / ``rota gateway``).

:class:`GatewayService` wires the pieces together — gateway metrics,
circuit breaker, the coalescing :class:`~repro.gateway.jobs.
GatewayManager` over its worker-process pool, the
:class:`~repro.gateway.api.GatewayAPI`, and the asyncio
:class:`~repro.gateway.http.AsyncHTTPFrontend` — and owns the event
loop, which runs on a dedicated background thread so ``start()`` /
``shutdown()`` stay plain synchronous calls.

:func:`serve_gateway` is the CLI entrypoint of both ``rota serve`` and
``rota gateway`` (they differ only in their defaults): print one listening line,
park on a shutdown event, and drain gracefully when SIGTERM *or*
SIGINT arrives — both signals take the identical path: stop accepting,
let running executions finish, cancel queued ones, close streams.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.resilience import CircuitBreaker
from repro.gateway.api import GatewayAPI
from repro.gateway.http import AsyncHTTPFrontend
from repro.gateway.jobs import GatewayManager
from repro.gateway.metrics import GatewayMetrics

__all__ = ["GatewayConfig", "GatewayService", "serve_gateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of one gateway process.

    ``request_timeout`` is enforced end-to-end: it is both the
    per-connection timeout and the wall-clock budget of each execution
    (an overrunning worker is terminated and the job's detail responds
    504). ``breaker_threshold`` consecutive execution failures open the
    circuit breaker, which sheds unique submissions with 503 +
    ``Retry-After`` until a probe succeeds after ``breaker_cooldown``
    seconds. ``task_attempts`` bounds worker-crash retries before a
    content key is quarantined, and ``start_method`` picks how worker
    processes are started (``spawn`` is the safe default next to the
    asyncio loop; tests use ``fork`` for speed).
    """

    host: str = "127.0.0.1"
    port: int = 8764
    workers: int = 4
    queue_depth: int = 64
    request_timeout: float = 300.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0
    task_attempts: int = 2
    start_method: str = "spawn"
    cache_dir: Optional[str] = None
    #: ``None`` = environment default; ``False`` forces every execution
    #: cold (the load bench uses it so throughput measures work, not
    #: warm hits).
    cache_enabled: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"gateway workers must be >= 1, got {self.workers}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"gateway queue depth must be >= 1, got {self.queue_depth}"
            )
        if self.request_timeout <= 0:
            raise ConfigurationError(
                f"gateway request timeout must be > 0, "
                f"got {self.request_timeout}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"gateway breaker threshold must be >= 1, "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_cooldown <= 0:
            raise ConfigurationError(
                f"gateway breaker cooldown must be > 0, "
                f"got {self.breaker_cooldown}"
            )
        if self.task_attempts < 1:
            raise ConfigurationError(
                f"gateway task attempts must be >= 1, got {self.task_attempts}"
            )
        if self.start_method not in ("spawn", "fork", "forkserver"):
            raise ConfigurationError(
                f"gateway start method must be spawn/fork/forkserver, "
                f"got {self.start_method!r}"
            )


class GatewayService:
    """One assembled gateway: pool + manager + API + asyncio front end."""

    def __init__(self, config: Optional[GatewayConfig] = None) -> None:
        self.config = config if config is not None else GatewayConfig()
        self.metrics = GatewayMetrics()
        self.manager = GatewayManager(
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            metrics=self.metrics,
            job_timeout=self.config.request_timeout,
            breaker=CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                cooldown_seconds=self.config.breaker_cooldown,
            ),
            task_attempts=self.config.task_attempts,
            cache_dir=self.config.cache_dir,
            cache_enabled=self.config.cache_enabled,
            start_method=self.config.start_method,
        )
        self.api = GatewayAPI(self.manager)
        self._frontend = AsyncHTTPFrontend(
            self.api,
            host=self.config.host,
            port=self.config.port,
            request_timeout=self.config.request_timeout,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._host: Optional[str] = None
        self._port: Optional[int] = None

    @property
    def host(self) -> str:
        """The bound host (after :meth:`start`)."""
        return self._host if self._host is not None else self.config.host

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        return self._port if self._port is not None else self.config.port

    @property
    def url(self) -> str:
        """Base URL of the running gateway."""
        return f"http://{self.host}:{self.port}"

    def start(self, ready_timeout: Optional[float] = 60.0) -> None:
        """Warm the worker pool, then bind and serve (both blocking).

        Returns only once every worker process has completed its ready
        handshake and the listener is bound — by the time the listening
        line is printed, the pool really is ``workers`` wide.
        """
        self.manager.start(ready_timeout=ready_timeout)
        if self._loop_thread is not None:
            return
        loop = asyncio.new_event_loop()
        self._loop = loop
        started = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(loop)
            started.set()
            loop.run_forever()

        self._loop_thread = threading.Thread(
            target=_run, name="rota-gateway-loop", daemon=True
        )
        self._loop_thread.start()
        started.wait()
        future = asyncio.run_coroutine_threadsafe(self._frontend.start(), loop)
        self._host, self._port = future.result(timeout=30.0)

    def shutdown(self, drain_timeout: Optional[float] = None) -> str:
        """Graceful drain; returns a one-line shutdown summary.

        Order matters: close the listener first (no new submissions),
        then drain the pool — running executions finish, queued ones
        cancel, and their terminal events close any live SSE streams —
        and only then stop the loop.
        """
        loop = self._loop
        if loop is not None:
            asyncio.run_coroutine_threadsafe(
                self._frontend.stop(), loop
            ).result(timeout=30.0)
        self.manager.shutdown(timeout=drain_timeout)
        if loop is not None and self._loop_thread is not None:
            loop.call_soon_threadsafe(loop.stop)
            self._loop_thread.join(timeout=30.0)
            loop.close()
            self._loop = None
            self._loop_thread = None
        metrics = self.metrics
        return (
            f"rota gateway drained: {metrics.jobs_completed} completed "
            f"({metrics.jobs_coalesced} coalesced, "
            f"{metrics.executions_dispatched} executions), "
            f"{metrics.jobs_failed} failed, {metrics.jobs_cancelled} "
            f"cancelled, {metrics.jobs_rejected} rejected; "
            f"{metrics.requests_total} requests in "
            f"{metrics.uptime_seconds():.1f}s"
        )


def serve_gateway(
    config: Optional[GatewayConfig] = None,
    install_signal_handlers: bool = True,
) -> str:
    """Run the gateway until SIGTERM/SIGINT, then drain and summarize.

    This is what ``rota serve`` and ``rota gateway`` call. SIGINT is handled identically
    to SIGTERM — an operator's Ctrl-C gets the same graceful drain as
    the supervisor's stop signal.
    """
    service = GatewayService(config)
    stop = threading.Event()

    if install_signal_handlers:

        def _request_shutdown(signum: int, frame: Any) -> None:
            stop.set()

        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)

    service.start()
    print(
        f"rota gateway listening on {service.url} "
        f"(workers={service.config.workers} processes, "
        f"queue={service.config.queue_depth}, "
        f"start_method={service.config.start_method}); "
        f"SIGTERM/SIGINT drain",
        flush=True,
    )
    stop.wait()
    return service.shutdown()
