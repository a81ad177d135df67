"""repro.par — the parallel-execution substrate.

One persistent, reusable worker pool (fork-preferred, verified-spawn
fallback) with per-worker payload caching keyed by content digest.
Its caller is the query-level fan-out of wlgen campaigns
(:mod:`repro.wlgen.campaign`); each query compiles on one core.
"""

from .pool import (
    ParError,
    PoolStats,
    WorkerContext,
    WorkerPool,
    encode_payload,
    get_pool,
    leaked_segments,
    shutdown_pools,
)

__all__ = [
    "ParError",
    "PoolStats",
    "WorkerContext",
    "WorkerPool",
    "encode_payload",
    "get_pool",
    "leaked_segments",
    "shutdown_pools",
]
