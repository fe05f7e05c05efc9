"""Run observability: cache hit/miss counters and task-timing capture.

Any code can open a :func:`collect_metrics` scope; while it is active,
the :class:`~repro.runtime.cache.ResultCache` reports every hit, miss,
and write into it, and every :class:`~repro.runtime.parallel.
ParallelRunner` reports its per-task wall times. The experiment layer
uses this to assemble a ``RunManifest`` (see
:mod:`repro.experiments.registry`) without threading a metrics object
through every driver signature.

Scopes nest: an outer scope collecting a whole ``rota report`` run and
an inner scope collecting one section both see the section's events.
Collection is process-local — pool workers do not report back to the
parent (worker task wall times are already measured in the parent by
``ParallelRunner``), so cache counts reflect the coordinating process.

Scopes are also **thread-local**: each thread keeps its own scope
stack, so concurrent threads never interleave each other's counters. A
scope opened in one thread observes only events recorded by that
thread. Gateway workers are separate processes: each opens its own
scope per job and ships the flattened counters back to the gateway.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

__all__ = ["RunMetrics", "collect_metrics"]


@dataclass
class RunMetrics:
    """Mutable event sink for one observed scope."""

    cache_hits: int = 0
    cache_misses: int = 0
    cache_puts: int = 0
    cache_evictions: int = 0
    cache_corruptions: int = 0
    task_retries: int = 0
    task_timeouts: int = 0
    task_quarantines: int = 0
    checkpoint_skips: int = 0
    task_timings: List[Any] = field(default_factory=list)

    def cache_summary(self) -> Dict[str, int]:
        """The cache counters as a plain dict (manifest-ready)."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "puts": self.cache_puts,
            "evictions": self.cache_evictions,
            "corruptions": self.cache_corruptions,
        }

    def resilience_summary(self) -> Dict[str, int]:
        """The resilience counters as a plain dict (manifest-ready)."""
        return {
            "retries": self.task_retries,
            "timeouts": self.task_timeouts,
            "quarantined": self.task_quarantines,
            "checkpoint_skips": self.checkpoint_skips,
            "cache_corruptions": self.cache_corruptions,
        }


#: Per-thread scope stacks, innermost last. Thread-local so concurrent
#: threads each observe only their own events; pool workers are
#: separate processes and start with an empty stack either way.
_LOCAL = threading.local()


def _scopes() -> List[RunMetrics]:
    """This thread's active scope stack (created on first use)."""
    stack = getattr(_LOCAL, "scopes", None)
    if stack is None:
        stack = []
        _LOCAL.scopes = stack
    return stack


@contextmanager
def collect_metrics() -> Iterator[RunMetrics]:
    """Collect this thread's cache and task events until the scope exits."""
    metrics = RunMetrics()
    stack = _scopes()
    stack.append(metrics)
    try:
        yield metrics
    finally:
        stack.remove(metrics)


def record_cache_hit() -> None:
    """Count one result-cache hit in every scope active on this thread."""
    for scope in _scopes():
        scope.cache_hits += 1


def record_cache_miss() -> None:
    """Count one result-cache miss in every scope active on this thread."""
    for scope in _scopes():
        scope.cache_misses += 1


def record_cache_put() -> None:
    """Count one result-cache write in every scope active on this thread."""
    for scope in _scopes():
        scope.cache_puts += 1


def record_cache_eviction(count: int = 1) -> None:
    """Count ``count`` pruned cache entries in every active scope."""
    for scope in _scopes():
        scope.cache_evictions += count


def record_cache_corruption(count: int = 1) -> None:
    """Count ``count`` corrupt cache entries in every active scope."""
    for scope in _scopes():
        scope.cache_corruptions += count


def record_task_retry() -> None:
    """Count one retried runner task in every active scope."""
    for scope in _scopes():
        scope.task_retries += 1


def record_task_timeout() -> None:
    """Count one timed-out runner task in every active scope."""
    for scope in _scopes():
        scope.task_timeouts += 1


def record_task_quarantine() -> None:
    """Count one quarantined (retries-exhausted) task in every scope."""
    for scope in _scopes():
        scope.task_quarantines += 1


def record_checkpoint_skip(count: int = 1) -> None:
    """Count ``count`` tasks skipped via a checkpoint journal."""
    for scope in _scopes():
        scope.checkpoint_skips += count


def record_task_timing(timing: Any) -> None:
    """Record one runner task timing in every scope active on this thread."""
    for scope in _scopes():
        scope.task_timings.append(timing)
