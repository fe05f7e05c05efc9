"""Parallel execution runtime and persistent result caching.

The substrate the experiment layer scales on: a process-pool runner
with a serial fallback and deterministic result ordering
(:mod:`repro.runtime.parallel`), stable content hashing for cache keys
(:mod:`repro.runtime.fingerprint`), and a persistent content-addressed
result store (:mod:`repro.runtime.cache`), plus the one seed-rebuild
rule every Monte Carlo entry point shares (:mod:`repro.runtime.seeds`). See
``docs/architecture.md`` ("Runtime & caching") for the full contract.
"""

from repro.runtime.cache import (
    CacheStats,
    CacheVerifyReport,
    ResultCache,
    cache_root,
    result_cache,
)
from repro.runtime.observe import RunMetrics, collect_metrics
from repro.runtime.fingerprint import (
    CACHE_SCHEMA_VERSION,
    accelerator_fingerprint,
    content_hash,
)
from repro.runtime.parallel import (
    JOBS_ENV,
    ParallelRunner,
    TaskTiming,
    default_jobs,
    resolve_jobs,
    run_parallel,
)
from repro.runtime.seeds import fresh_seed_sequence

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "CacheVerifyReport",
    "JOBS_ENV",
    "ParallelRunner",
    "ResultCache",
    "RunMetrics",
    "TaskTiming",
    "collect_metrics",
    "accelerator_fingerprint",
    "cache_root",
    "content_hash",
    "default_jobs",
    "fresh_seed_sequence",
    "resolve_jobs",
    "result_cache",
    "run_parallel",
]
