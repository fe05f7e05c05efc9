"""The gateway's supervised worker-process pool.

The gateway runs experiments in N dedicated worker *processes*, never
in the HTTP process: one experiment at a time per worker, dispatched
over a per-worker task queue, results and lifecycle events flowing
back over one shared event queue. A supervisor thread in the gateway process owns the pool state
and provides the resilience guarantees the serving front door needs:

* **ready handshake** — a worker announces itself only after it has
  imported the simulation stack, so ``/healthz`` reporting N live
  workers means N *warm* processes;
* **deadline enforcement** — a task overrunning its wall-clock budget
  gets its worker ``terminate()``-d (processes, unlike threads, can
  actually be killed) and reported as a timeout;
* **dead-worker respawn** — a worker that exits for any reason is
  replaced, and whatever task it held is retried on another worker;
* **poisoned-task retry accounting** — a task that keeps killing
  workers is failed with ``kind="crash"`` after ``task_attempts``
  tries; the job layer quarantines its content key so identical
  submissions stop burning workers (the same quarantine idea
  :class:`~repro.runtime.parallel.ParallelRunner` applies to batch
  tasks, re-used for serving).

Workers execute through the same ``run_experiment`` entrypoint as the
CLI (behind the warm-hit result cache), so a gateway response is
byte-identical to ``rota <exp> --json`` (modulo manifest timings).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError

__all__ = ["PoolEvent", "WorkerProcessPool"]

#: Environment knob forcing nested runners serial inside pool workers
#: (mirrors :func:`repro.runtime.parallel._worker_init`).
_JOBS_ENV = "REPRO_JOBS"


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------


def _observed_summary(observed: Any) -> Dict[str, int]:
    """Flatten a worker-side RunMetrics into a picklable counter dict."""
    return {
        "cache_hits": observed.cache_hits,
        "cache_misses": observed.cache_misses,
        "cache_puts": observed.cache_puts,
        "cache_evictions": observed.cache_evictions,
        "cache_corruptions": observed.cache_corruptions,
        "task_retries": observed.task_retries,
        "task_timeouts": observed.task_timeouts,
        "task_quarantines": observed.task_quarantines,
        "tasks_run": len(observed.task_timings),
        "task_seconds": sum(t.seconds for t in observed.task_timings),
    }


def _worker_main(
    worker_id: int,
    task_queue: "multiprocessing.Queue",
    event_queue: "multiprocessing.Queue",
    cache_dir: Optional[str],
    cache_enabled: Optional[bool],
) -> None:
    """One worker process: import, announce ready, execute until sentinel."""
    os.environ[_JOBS_ENV] = "1"
    # Pay the import bill up front, before claiming to be ready.
    from repro.experiments.registry import run_experiment  # noqa: F401
    from repro.runtime import ResultCache, result_cache
    from repro.runtime.observe import collect_metrics

    if cache_dir is not None:
        cache = ResultCache(
            directory=cache_dir,
            enabled=True if cache_enabled is None else cache_enabled,
        )
    else:
        cache = result_cache()
    event_queue.put(("ready", worker_id, os.getpid()))
    while True:
        item = task_queue.get()
        if item is None:
            return
        task_id, spec_id, params, key = item
        event_queue.put(("started", worker_id, task_id, os.getpid()))
        try:
            with collect_metrics() as observed:
                payload, cached = _run_or_reuse(cache, key, spec_id, params)
            event_queue.put(
                (
                    "done",
                    worker_id,
                    task_id,
                    payload,
                    cached,
                    _observed_summary(observed),
                )
            )
        except ReproError as error:
            event_queue.put(
                ("failed", worker_id, task_id, "repro-error", str(error))
            )
        except Exception as error:  # noqa: BLE001 - worker must survive jobs
            event_queue.put(
                (
                    "failed",
                    worker_id,
                    task_id,
                    "internal-error",
                    f"{type(error).__name__}: {error}",
                )
            )


def _run_or_reuse(
    cache: Any, key: str, spec_id: str, params: Dict[str, Any]
) -> Tuple[Dict[str, Any], bool]:
    """Serve from the shared warm-hit store or execute for real."""
    from repro.experiments.registry import run_experiment

    hit = cache.get(key)
    if isinstance(hit, dict) and "result" in hit and "manifest" in hit:
        return hit, True
    run = run_experiment(spec_id, **params)
    payload = {
        "result": run.result.to_dict(),
        "manifest": run.manifest.to_dict(),
    }
    cache.put(key, payload)
    return payload, False


# ---------------------------------------------------------------------------
# Gateway process side
# ---------------------------------------------------------------------------


@dataclass
class PoolEvent:
    """One task outcome reported to the pool's owner.

    ``kind`` is ``"started"``, ``"done"``, ``"failed"``, ``"crash"``,
    ``"timeout"``, ``"retry"``, or ``"cancelled"``. For ``done``,
    ``payload``/``cached``/``observed`` are set; for failures, ``code``
    and ``message``.
    """

    kind: str
    task_id: str
    payload: Optional[Dict[str, Any]] = None
    cached: bool = False
    observed: Optional[Dict[str, int]] = None
    code: Optional[str] = None
    message: Optional[str] = None
    attempts: int = 1


@dataclass
class _Task:
    task_id: str
    spec_id: str
    params: Dict[str, Any]
    key: str
    attempts: int = 0


@dataclass
class _Worker:
    index: int
    process: "multiprocessing.process.BaseProcess"
    task_queue: "multiprocessing.Queue"
    ready: bool = False
    current: Optional[_Task] = None
    started_at: float = 0.0
    jobs_completed: int = 0
    restarts: int = 0
    stats: Dict[str, Any] = field(default_factory=dict)


class WorkerProcessPool:
    """N supervised worker processes behind per-worker task queues.

    Parameters
    ----------
    workers:
        Number of worker processes.
    on_event:
        Callback invoked from the supervisor thread with a
        :class:`PoolEvent` for every task lifecycle transition. The
        callback must be thread-safe and fast.
    task_timeout:
        Wall-clock budget per executing task; an overrunning worker is
        terminated and the task reported with ``kind="timeout"``.
        ``None`` disables the deadline.
    task_attempts:
        Times a task may be dispatched before a worker crash condemns
        it (``kind="crash"``). Attempt 2+ of a task is reported with a
        ``retry`` event first.
    cache_dir / cache_enabled:
        Explicit warm-hit store for the workers; ``None`` resolves the
        environment default (``REPRO_RESULT_CACHE``) per worker.
    start_method:
        ``multiprocessing`` start method. ``spawn`` (default) keeps
        workers independent of the gateway's threads; tests may use
        ``fork`` for startup speed.
    """

    #: Seconds the supervisor blocks on its event queue between
    #: deadline/liveness sweeps. Submissions do not wait for it: they
    #: put a wake-up event on the queue.
    IDLE_POLL_SECONDS = 0.02

    def __init__(
        self,
        workers: int,
        on_event: Callable[[PoolEvent], None],
        task_timeout: Optional[float] = None,
        task_attempts: int = 2,
        cache_dir: Optional[str] = None,
        cache_enabled: Optional[bool] = None,
        start_method: str = "spawn",
        on_restart: Optional[Callable[[], None]] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"gateway workers must be >= 1, got {workers}"
            )
        if task_attempts < 1:
            raise ConfigurationError(
                f"task_attempts must be >= 1, got {task_attempts}"
            )
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be > 0, got {task_timeout}"
            )
        self._context = multiprocessing.get_context(start_method)
        self._num_workers = workers
        self._on_event = on_event
        self._task_timeout = task_timeout
        self._task_attempts = task_attempts
        self._cache_dir = cache_dir
        self._cache_enabled = cache_enabled
        self._event_queue: "multiprocessing.Queue" = self._context.Queue()
        self._lock = threading.Lock()
        self._pending: List[_Task] = []
        self._workers: List[_Worker] = []
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._on_restart = on_restart
        self.workers_restarted = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self, ready_timeout: Optional[float] = 60.0) -> None:
        """Spawn the workers and the supervisor thread (idempotent).

        Blocks until every worker has completed its import handshake
        (up to ``ready_timeout`` seconds) so callers observe a warm,
        full-width pool.
        """
        if self._supervisor is not None:
            return
        with self._lock:
            for index in range(self._num_workers):
                self._workers.append(self._spawn(index))
        self._supervisor = threading.Thread(
            target=self._supervise, name="rota-gateway-supervisor", daemon=True
        )
        self._supervisor.start()
        if ready_timeout is not None:
            deadline = time.monotonic() + ready_timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if all(worker.ready for worker in self._workers):
                        return
                time.sleep(0.01)
            raise ReproError(
                f"gateway worker pool not ready within {ready_timeout:g}s"
            )

    def _spawn(self, index: int) -> _Worker:
        task_queue: "multiprocessing.Queue" = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(
                index,
                task_queue,
                self._event_queue,
                self._cache_dir,
                self._cache_enabled,
            ),
            name=f"rota-gateway-worker-{index}",
            daemon=True,
        )
        process.start()
        return _Worker(index=index, process=process, task_queue=task_queue)

    def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Drain and stop: finish running tasks, cancel pending ones.

        Pending (never dispatched) tasks are reported as ``cancelled``;
        busy workers get up to ``drain_timeout`` seconds to finish
        before being terminated (their task reported as ``crash``).
        """
        self._draining.set()
        with self._lock:
            pending, self._pending = self._pending, []
        for task in pending:
            self._on_event(PoolEvent(kind="cancelled", task_id=task.task_id))
        deadline = (
            None
            if drain_timeout is None
            else time.monotonic() + drain_timeout
        )
        while True:
            with self._lock:
                busy = [w for w in self._workers if w.current is not None]
            if not busy:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        self._stop.set()
        self._wake()
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.task_queue.put_nowait(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None

    # -- intake -------------------------------------------------------------

    def submit(
        self, task_id: str, spec_id: str, params: Dict[str, Any], key: str
    ) -> None:
        """Queue one task for execution (dispatched by the supervisor)."""
        if self._draining.is_set() or self._stop.is_set():
            raise ReproError("worker pool is shutting down")
        with self._lock:
            self._pending.append(
                _Task(task_id=task_id, spec_id=spec_id, params=params, key=key)
            )
        self._wake()

    def _wake(self) -> None:
        """Unblock the supervisor's idle poll (no-op before :meth:`start`).

        Without it a submission to an idle pool waits out the poll
        before an idle worker picks it up.
        """
        if self._supervisor is not None:
            self._event_queue.put(("wake", None))

    def pending_count(self) -> int:
        """Tasks accepted but not yet dispatched to a worker."""
        with self._lock:
            return len(self._pending)

    def busy_count(self) -> int:
        """Workers currently executing a task."""
        with self._lock:
            return sum(1 for w in self._workers if w.current is not None)

    def worker_health(self) -> List[Dict[str, Any]]:
        """Per-worker liveness for ``/healthz`` (process pool flavor)."""
        with self._lock:
            rows = []
            for worker in self._workers:
                rows.append(
                    {
                        "id": worker.index,
                        "kind": "process",
                        "pid": worker.process.pid,
                        "alive": worker.process.is_alive(),
                        "ready": worker.ready,
                        "busy": worker.current is not None,
                        "current_job": (
                            None
                            if worker.current is None
                            else worker.current.task_id
                        ),
                        "jobs_completed": worker.jobs_completed,
                        "restarts": worker.restarts,
                    }
                )
            return rows

    # -- supervision --------------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.is_set():
            try:
                event = self._event_queue.get(timeout=self.IDLE_POLL_SECONDS)
            except queue.Empty:
                event = None
            except (OSError, ValueError):
                return  # queue closed during shutdown
            if event is not None:
                try:
                    self._handle_event(event)
                except Exception:  # noqa: BLE001 - supervisor must survive
                    pass
            self._check_deadlines()
            self._check_liveness()
            self._dispatch()

    def _handle_event(self, event: Tuple[Any, ...]) -> None:
        kind, worker_id = event[0], event[1]
        if kind == "wake":
            return
        with self._lock:
            worker = self._worker_by_index(worker_id)
        if worker is None:
            return
        if kind == "ready":
            with self._lock:
                worker.ready = True
            return
        if kind == "started":
            # Dispatch already recorded worker.current; the event just
            # confirms the worker picked the task up.
            task_id = event[2]
            with self._lock:
                if worker.current is not None and (
                    worker.current.task_id == task_id
                ):
                    worker.started_at = time.monotonic()
            self._on_event(PoolEvent(kind="started", task_id=task_id))
            return
        if kind == "done":
            _, _, task_id, payload, cached, observed = event
            with self._lock:
                task = worker.current
                worker.current = None
                worker.jobs_completed += 1
            if task is None or task.task_id != task_id:
                return
            self._on_event(
                PoolEvent(
                    kind="done",
                    task_id=task_id,
                    payload=payload,
                    cached=cached,
                    observed=observed,
                    attempts=task.attempts,
                )
            )
            return
        if kind == "failed":
            _, _, task_id, code, message = event
            with self._lock:
                task = worker.current
                worker.current = None
            if task is None or task.task_id != task_id:
                return
            self._on_event(
                PoolEvent(
                    kind="failed",
                    task_id=task_id,
                    code=code,
                    message=message,
                    attempts=task.attempts,
                )
            )

    def _worker_by_index(self, index: int) -> Optional[_Worker]:
        for worker in self._workers:
            if worker.index == index:
                return worker
        return None

    def _check_deadlines(self) -> None:
        if self._task_timeout is None:
            return
        now = time.monotonic()
        overdue: List[Tuple[_Worker, _Task]] = []
        with self._lock:
            for worker in self._workers:
                if (
                    worker.current is not None
                    and worker.started_at
                    and now - worker.started_at > self._task_timeout
                ):
                    overdue.append((worker, worker.current))
        for worker, task in overdue:
            self._replace_worker(worker)
            self._on_event(
                PoolEvent(
                    kind="timeout",
                    task_id=task.task_id,
                    code="timeout",
                    message=(
                        f"job exceeded the {self._task_timeout:g}s "
                        f"request timeout"
                    ),
                    attempts=task.attempts,
                )
            )

    def _check_liveness(self) -> None:
        dead: List[_Worker] = []
        with self._lock:
            for worker in self._workers:
                if not worker.process.is_alive():
                    dead.append(worker)
        for worker in dead:
            task = worker.current
            self._replace_worker(worker)
            if task is None:
                continue
            if task.attempts < self._task_attempts and not (
                self._draining.is_set()
            ):
                # The crash burned one attempt; requeue on another worker.
                self._on_event(
                    PoolEvent(
                        kind="retry",
                        task_id=task.task_id,
                        attempts=task.attempts,
                    )
                )
                with self._lock:
                    self._pending.insert(0, task)
            else:
                self._on_event(
                    PoolEvent(
                        kind="crash",
                        task_id=task.task_id,
                        code="worker-crash",
                        message=(
                            f"worker process died while executing "
                            f"{task.task_id} (attempt {task.attempts}/"
                            f"{self._task_attempts})"
                        ),
                        attempts=task.attempts,
                    )
                )

    def _replace_worker(self, worker: _Worker) -> None:
        """Kill (if needed) and respawn one worker slot."""
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if self._stop.is_set() or self._draining.is_set():
            with self._lock:
                worker.current = None
            return
        with self._lock:
            replacement = self._spawn(worker.index)
            replacement.jobs_completed = worker.jobs_completed
            replacement.restarts = worker.restarts + 1
            position = self._workers.index(worker)
            self._workers[position] = replacement
            self.workers_restarted += 1
        if self._on_restart is not None:
            self._on_restart()

    def _dispatch(self) -> None:
        """Hand pending tasks to ready idle workers (supervisor only)."""
        while True:
            with self._lock:
                if not self._pending:
                    return
                idle = next(
                    (
                        worker
                        for worker in self._workers
                        if worker.ready
                        and worker.current is None
                        and worker.process.is_alive()
                    ),
                    None,
                )
                if idle is None:
                    return
                task = self._pending.pop(0)
                task.attempts += 1
                idle.current = task
                idle.started_at = time.monotonic()
            try:
                idle.task_queue.put(
                    (task.task_id, task.spec_id, task.params, task.key)
                )
            except (OSError, ValueError):
                with self._lock:
                    idle.current = None
                    self._pending.insert(0, task)
                return
