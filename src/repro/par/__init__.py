"""repro.par — the parallel-execution substrate.

One persistent, reusable worker pool (fork-preferred, verified-spawn
fallback) with per-worker payload caching keyed by content digest,
shared by parallel POSP generation (:mod:`repro.ess.diagram`), slab
batch compilation (:mod:`repro.batchopt.shard`) and wlgen campaigns
(:mod:`repro.wlgen.campaign`).
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
