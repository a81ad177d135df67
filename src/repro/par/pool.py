"""Persistent worker pool with digest-keyed payload caching.

This replaces the per-call ``ctx.Pool`` sites (parallel POSP, slab
batch compile, wlgen campaigns) with one substrate:

* **Persistent + reusable** — ``get_pool(workers)`` hands back a live
  pool keyed by ``(start method, worker count)``; workers are started
  once and survive across calls, so repeated shards pay no
  fork/spawn/interpreter-boot tax.  ``shutdown_pools()`` (also wired to
  ``atexit``) tears everything down.
* **Fork-preferred, verified-spawn fallback** — the start method
  resolution and the pickle-round-trip hardening that used to be
  copy-pasted four times live here once: under a non-fork method every
  new payload digest is verified to survive ``pickle.loads`` in the
  parent before any worker sees it, so an unpicklable payload fails
  fast with a clear error instead of crashing inside queue machinery.
* **Per-worker payload caching keyed by content digest** — a payload
  (optimizer + space, bouquet, campaign config) is pickled once per
  call, hashed, and shipped to each worker at most once per digest;
  subsequent calls with a byte-identical payload ship nothing.  Workers
  keep the decoded object plus a derived-state memo
  (:meth:`WorkerContext.memo`), so e.g. a campaign environment is
  rebuilt once per worker per config, not once per chunk.
* **Deterministic reassembly** — tasks carry their submission index and
  results are reassembled by that index, so the caller sees exactly the
  submission order regardless of which worker finished what when
  (work-stealing off a single shared task queue).  Since every task's
  output is a pure function of ``(payload, item)``, index-sorted
  reassembly makes results bit-identical at any worker count.

Telemetry lands on the tracer passed to :meth:`WorkerPool.run` under
the ``par.*`` namespace: pool reuse, payload ships vs. cache hits,
shipped bytes, per-task latency (worker-measured), task counts.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing as mp
import os
import pickle
import queue as _queue
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import ReproError
from ..obs.tracer import NULL_TRACER, Tracer

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


class ParError(ReproError):
    """The parallel substrate failed (dead worker, bad payload, misuse)."""


#: Per-worker payload-cache capacity.  The parent keeps an LRU of this
#: many digests per worker and sends explicit eviction messages when a
#: digest falls out, so worker-side payload/memo memory stays bounded
#: even when a long-lived pool is fed an endless stream of distinct
#: payloads (every mutated bouquet/config digests differently).
PAYLOAD_CACHE_SLOTS = 8


def encode_payload(payload: Any) -> Tuple[str, bytes]:
    """Pickle ``payload`` and return ``(content digest, blob)``.

    The digest is the payload-cache key: two calls whose payloads pickle
    to the same bytes share one per-worker decode.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest(), blob


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class WorkerContext:
    """Per-worker state handed to every task function.

    ``memo(name, builder)`` caches derived state under ``(current
    payload digest, name)`` — e.g. the campaign environment built from a
    config, which survives across chunks and across calls for as long as
    the payload bytes stay identical.
    """

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.payload_digest: Optional[str] = None
        self._memo: Dict[Tuple[Optional[str], str], Any] = {}

    def memo(self, name: str, builder: Callable[[], Any]) -> Any:
        key = (self.payload_digest, name)
        try:
            return self._memo[key]
        except KeyError:
            value = builder()
            self._memo[key] = value
            return value

    def _purge(self, digest: str) -> None:
        """Drop every memo entry derived from an evicted payload digest."""
        for key in [k for k in self._memo if k[0] == digest]:
            del self._memo[key]


def _worker_main(worker_id: int, ctrl, tasks, results) -> None:
    """Worker loop: steal tasks, decode payloads on first sight, reply.

    Workers never trace: payload pickling already degraded any embedded
    tracer to the null tracer (``Tracer.__reduce__``), and the parent
    records fan-out/latency telemetry itself.  The control queue carries
    ``("ship", digest, blob)`` and ``("evict", digest)`` messages; the
    parent guarantees a digest's ship message is enqueued strictly
    before any task naming it, so the drain loop below always
    terminates.  Evictions mirror the parent's per-worker LRU
    (``PAYLOAD_CACHE_SLOTS``), keeping the decoded-payload and memo
    caches bounded for the life of a persistent worker.
    """
    ctx = WorkerContext(worker_id)
    payloads: Dict[Optional[str], Any] = {None: None}
    try:
        while True:
            item = tasks.get()
            if item is None:
                break
            seq, digest, fn, arg = item
            while digest not in payloads:
                message = ctrl.get()
                if message[0] == "ship":
                    _, shipped, blob = message
                    payloads[shipped] = pickle.loads(blob)
                else:
                    _, victim = message
                    payloads.pop(victim, None)
                    ctx._purge(victim)
            ctx.payload_digest = digest
            started = time.perf_counter()
            try:
                value = fn(ctx, payloads[digest], arg)
            except Exception:
                results.put((seq, False, traceback.format_exc(), 0.0))
            else:
                results.put((seq, True, value, time.perf_counter() - started))
    except KeyboardInterrupt:
        pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class PoolStats:
    """Parent-side counters (mirrored into ``par.*`` tracer telemetry)."""

    runs: int = 0
    tasks: int = 0
    payload_ships: int = 0
    payload_hits: int = 0
    ship_bytes: int = 0

    @property
    def reuse_rate(self) -> float:
        """Fraction of runs that reused an already-warm pool."""
        return (self.runs - 1) / self.runs if self.runs > 0 else 0.0


def _resolve_start_method(start_method: Optional[str]) -> str:
    methods = mp.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in methods else "spawn"
    if start_method not in methods:
        raise ParError(
            f"start method {start_method!r} unavailable (have {methods})"
        )
    return start_method


class WorkerPool:
    """A persistent pool of worker processes around shared queues.

    One shared task queue (workers steal), one shared result queue, and
    one private control queue per worker (payload broadcast).  ``run``
    is serialized on an internal lock: concurrent callers (e.g. the
    serving layer's compile thread pool, whose threads all reach the one
    shared :func:`get_pool` pool) queue up instead of interleaving
    seq-numbered tuples on the shared task/result queues.
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
    ):
        if workers < 1:
            raise ParError("WorkerPool needs workers >= 1")
        self.workers = workers
        self.start_method = _resolve_start_method(start_method)
        self.stats = PoolStats()
        self._mp = mp.get_context(self.start_method)
        self._tasks = self._mp.Queue()
        self._results = self._mp.Queue()
        self._ctrl = [self._mp.Queue() for _ in range(workers)]
        self._procs: List[Any] = []
        # Parent-side mirror of each worker's payload cache: an LRU of
        # digests, identical in policy to the worker's (evictions are
        # pushed as control messages), so "don't re-ship" stays truthful.
        self._shipped: List["OrderedDict[str, None]"] = [
            OrderedDict() for _ in range(workers)
        ]
        self._verified: Set[str] = set()
        self._broken = False
        self._closed = False
        self._run_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not (self._closed or self._broken)

    def _ensure_started(self, tracer: Tracer) -> None:
        if self._procs:
            return
        started = time.perf_counter()
        for wid in range(self.workers):
            proc = self._mp.Process(
                target=_worker_main,
                args=(wid, self._ctrl[wid], self._tasks, self._results),
                daemon=True,
                name=f"repro-par-{self.start_method}-{wid}",
            )
            proc.start()
            self._procs.append(proc)
        if tracer.enabled:
            tracer.count("par.pool.starts")
            tracer.observe("par.pool.start_seconds", time.perf_counter() - started)

    def close(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: drain sentinels, join, reap stragglers."""
        if self._closed:
            return
        self._closed = True
        if self._procs:
            for _ in self._procs:
                self._tasks.put(None)
            deadline = time.monotonic() + timeout
            for proc in self._procs:
                proc.join(max(0.1, deadline - time.monotonic()))
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(1.0)
        self._close_queues()

    def terminate(self) -> None:
        """Hard stop (dead worker / interrupt): kill workers."""
        self._closed = True
        self._broken = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(1.0)
        self._close_queues()
        _discard_pool(self)

    def _close_queues(self) -> None:
        for q in [self._tasks, self._results, *self._ctrl]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass

    # -- execution ------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        payload: Any,
        items: Sequence[Any],
        tracer: Tracer = NULL_TRACER,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Evaluate ``fn(ctx, payload, item)`` for every item.

        Returns results in submission (item) order.  ``on_result(seq,
        value)`` streams completions as they land, in completion order.
        A task exception is re-raised here (lowest submission index
        first) after the batch drains, so the pool stays reusable; a
        *dead* worker breaks the pool and raises immediately.

        Thread-safe by serialization: a second thread calling ``run``
        blocks until the first batch fully drains.
        """
        items = list(items)
        with self._run_lock:
            if not self.alive:
                raise ParError("worker pool is closed")
            if not items:
                return []
            try:
                self._ensure_started(tracer)
                self.stats.runs += 1
                if tracer.enabled:
                    tracer.count("par.pool.runs")
                    if self.stats.runs > 1:
                        tracer.count("par.pool.reuse")
                digest = self._ship_payload(payload, tracer)
                for seq, item in enumerate(items):
                    self._tasks.put((seq, digest, fn, item))
                return self._collect(len(items), tracer, on_result)
            except KeyboardInterrupt:
                self.terminate()
                raise

    def _ship_payload(self, payload: Any, tracer: Tracer) -> Optional[str]:
        if payload is None:
            return None
        digest, blob = encode_payload(payload)
        if self.start_method != "fork" and digest not in self._verified:
            try:
                pickle.loads(blob)
            except Exception as exc:
                raise ParError(
                    "payload does not survive a pickle round trip under "
                    f"the {self.start_method!r} start method: {exc}"
                ) from exc
            self._verified.add(digest)
        ships = 0
        for wid in range(self.workers):
            cache = self._shipped[wid]
            if digest in cache:
                cache.move_to_end(digest)
                continue
            cache[digest] = None
            # Evictions go on the wire *before* the ship so the worker
            # frees the old payload/memo in the same drain that decodes
            # the new one.
            while len(cache) > PAYLOAD_CACHE_SLOTS:
                victim, _ = cache.popitem(last=False)
                self._ctrl[wid].put(("evict", victim))
            self._ctrl[wid].put(("ship", digest, blob))
            ships += 1
        hits = self.workers - ships
        self.stats.payload_ships += ships
        self.stats.payload_hits += hits
        self.stats.ship_bytes += len(blob) * ships
        if tracer.enabled:
            if ships:
                tracer.count("par.payload.ships", ships)
                tracer.observe("par.payload.ship_bytes", float(len(blob) * ships))
            if hits:
                tracer.count("par.payload.cache_hits", hits)
        return digest

    def _collect(
        self,
        expected: int,
        tracer: Tracer,
        on_result: Optional[Callable[[int, Any], None]],
    ) -> List[Any]:
        out: List[Any] = [None] * expected
        failures: List[Tuple[int, str]] = []
        callback_error: Optional[Exception] = None
        done = 0
        while done < expected:
            try:
                seq, ok, value, elapsed = self._results.get(timeout=0.5)
            except _queue.Empty:
                dead = [p for p in self._procs if not p.is_alive()]
                if dead:
                    codes = sorted({p.exitcode for p in dead})
                    self.terminate()
                    raise ParError(
                        f"{len(dead)} worker(s) died mid-run "
                        f"(exit codes {codes}); pool terminated"
                    )
                continue
            done += 1
            self.stats.tasks += 1
            if tracer.enabled:
                tracer.count("par.tasks")
            if not ok:
                failures.append((seq, value))
                continue
            if tracer.enabled:
                tracer.observe("par.task_seconds", elapsed)
            out[seq] = value
            if on_result is not None and callback_error is None:
                # A raising callback must not abandon in-flight results
                # on the shared queue — a later run would consume them
                # as its own.  Finish the drain, then re-raise.
                try:
                    on_result(seq, value)
                except Exception as exc:
                    callback_error = exc
        if callback_error is not None:
            raise callback_error
        if failures:
            failures.sort()
            seq, tb = failures[0]
            raise ParError(f"task {seq} failed in a pool worker:\n{tb}")
        return out


# ---------------------------------------------------------------------------
# Process-global pool registry
# ---------------------------------------------------------------------------

_POOLS: Dict[Tuple[str, int], WorkerPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(
    workers: int,
    start_method: Optional[str] = None,
    tracer: Tracer = NULL_TRACER,
) -> WorkerPool:
    """The shared persistent pool for ``(start method, worker count)``.

    Broken/closed pools are transparently replaced; callers never cache
    the returned object across calls — re-resolving is how they pick up
    a replacement after a crash.
    """
    method = _resolve_start_method(start_method)
    key = (method, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and pool.alive:
            return pool
        pool = WorkerPool(workers, start_method=method)
        if tracer.enabled:
            tracer.count("par.pool.created")
        _POOLS[key] = pool
        return pool


def _discard_pool(pool: WorkerPool) -> None:
    with _POOLS_LOCK:
        for key, candidate in list(_POOLS.items()):
            if candidate is pool:
                del _POOLS[key]


def shutdown_pools() -> None:
    """Close every registered pool."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


def leaked_segments() -> List[str]:
    """``repro_par_*`` shared-memory segments left in ``/dev/shm``.

    The substrate ships payloads by pickle and creates no segments, so
    this audit must come back empty after a teardown.  Without
    ``/dev/shm`` it is always empty.
    """
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in names if name.startswith("repro_par_"))


atexit.register(shutdown_pools)
