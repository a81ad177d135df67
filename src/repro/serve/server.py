"""BouquetServer: concurrent serving of cached compiled bouquets.

The paper's deployment story (§4.2) is "compile once, execute many" for
canned queries.  :class:`BouquetServer` makes that operational:

* every request is keyed by the content hash of (canonical query,
  statistics fingerprint, compile knobs) and answered from the artifact
  store when possible;
* an exact-key miss then consults the **template tier**
  (:mod:`repro.template`): when another instance of the same query
  *template* — same shape, different constants — was compiled before,
  the artifact is **rebound** from it instead of recompiled (source
  ``"template"``, counters ``serve.template.*``), falling back to the
  full compile on any structural mismatch;
* concurrent misses on the *same* key are **single-flighted** — exactly
  one compile runs, the rest coalesce onto its future (counter
  ``serve.singleflight.coalesced``); concurrent misses on different
  instances of the *same template* coalesce too — one full compile
  runs, the rest wait and rebind from its artifact (counter
  ``serve.template.coalesced``);
* misses compile on a bounded worker pool; a request whose compile
  exceeds its deadline **degrades** to the NAT path (one native
  optimizer call, one unbounded execution — an answer without the MSO
  guarantee) while the compile keeps running in the background so the
  artifact still lands in the cache for later requests;
* executions run with per-request budgets
  (:class:`repro.api.BudgetCappedService`) and report
  ``budget-exhausted`` instead of an MSO-guaranteed result when capped;
* :meth:`refresh_statistics` swaps the catalog's world view, patches
  every cached artifact the delta-refresh engine can carry over
  (:mod:`repro.drift`), and invalidates the rest.

The canonical calling convention is the typed envelope pair from
:mod:`repro.serve.envelope`::

    response = server.serve(ServeRequest(query=sql, budget=1e9))
    response.status, response.error_code, response.rows

``serve(sql)`` remains as sugar, and the old keyword sprawl
(``serve(sql, budget=..., mode=..., crossing=..., timeout=...)``) keeps
working behind a :class:`DeprecationWarning` adapter.  Admission
control, tenant quotas, and load shedding live one layer up, in
:class:`repro.serve.front.ServeGateway`.

The degradation ladder, top to bottom: memory hit → disk hit →
template rebind → single-flight compile → NAT fallback → failure.
"""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, Optional, Tuple, Union

from ..api import (
    BouquetConfig,
    Catalog,
    CompiledBouquet,
    DEFAULT_CONFIG,
    _compile_pipeline,
    execute as api_execute,
)
from ..catalog.statistics import DatabaseStatistics
from ..exceptions import BouquetError, BudgetExceeded, ReproError, TemplateError
from ..obs.tracer import NULL_TRACER, Tracer
from ..query.query import Query
from ..query.sql import parse_query
from ..robustness.nat import native_run
from ..template import TemplateSignature, TemplateStore, rebind_compiled, template_signature
from .cache import BouquetArtifactStore
from .envelope import ServeRequest, ServeResponse
from .fingerprint import ArtifactKey, artifact_key, statistics_fingerprint

__all__ = ["BouquetServer"]


class BouquetServer:
    """Serves many concurrent query requests from a bouquet artifact cache.

    Thread-safe: ``serve``/``compile`` may be called from any number of
    threads.  Compiles run on an internal bounded pool; executions run
    on the caller's thread (budget-capped per request).
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        config: BouquetConfig = DEFAULT_CONFIG,
        store: Optional[BouquetArtifactStore] = None,
        templates: Optional[TemplateStore] = None,
        max_workers: int = 4,
        compile_timeout: Optional[float] = None,
        compile_workers: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        if max_workers < 1:
            raise BouquetError("server needs at least one compile worker")
        self.catalog = catalog
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.store = store if store is not None else BouquetArtifactStore()
        # The template tier (None only when the config turns it off and
        # no explicit store is handed in).
        if templates is not None:
            self.templates = templates
        else:
            self.templates = TemplateStore() if config.template else None
        self.compile_timeout = compile_timeout
        self.compile_workers = compile_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="bouquet-compile"
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._template_inflight: Dict[str, Future] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "BouquetServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Compile path (cache + single-flight)
    # ------------------------------------------------------------------

    def _parse(self, query: Union[str, Query]) -> Tuple[Query, Optional[str]]:
        if isinstance(query, str):
            return parse_query(query, self.catalog.schema), query
        return query, None

    def _config_for(self, engine: Optional[str]) -> BouquetConfig:
        """The server config, with a per-request compile-engine override.

        The engine is cache-neutral (both engines produce byte-identical
        artifacts), so overriding it never changes the artifact key.
        """
        if engine is None or engine == self.config.compile_engine:
            return self.config
        return self.config.with_(compile_engine=engine)

    def _use_templates(self) -> bool:
        return self.templates is not None and self.config.template

    def _compile_and_store(
        self,
        key: ArtifactKey,
        query: Query,
        sql: Optional[str],
        config: Optional[BouquetConfig] = None,
    ) -> CompiledBouquet:
        """Pool task: run the compile pipeline and publish the artifact
        (to the exact store, and as the template's representative)."""
        compiled = _compile_pipeline(
            query,
            self.catalog,
            config if config is not None else self.config,
            None,
            None,
            self.tracer,
            self.compile_workers,
            None,
            sql,
            span_name="serve.compile",
        )
        self.store.put(key, compiled, tracer=self.tracer)
        if self._use_templates():
            sig = template_signature(
                query, self.catalog.schema, self.catalog.statistics
            )
            self.templates.put(
                sig, compiled, key.statistics_digest, key.config_digest
            )
            if self.tracer.enabled:
                self.tracer.count("serve.template.stores")
        return compiled

    def _rebind_from_template(
        self,
        key: ArtifactKey,
        query: Query,
        sql: Optional[str],
        sig: TemplateSignature,
    ) -> Optional[CompiledBouquet]:
        """Try to answer an exact-key miss from the template tier.

        On a template hit the cached representative is rebound onto this
        instance and the result published under the exact key (so the
        next identical request is a plain store hit).  Returns ``None``
        on a template miss or a rebind fallback — the caller proceeds to
        the full compile.
        """
        tracer = self.tracer
        entry = self.templates.lookup(
            sig, key.statistics_digest, key.config_digest
        )
        if entry is None:
            if tracer.enabled:
                tracer.count("serve.template.misses")
            return None
        if tracer.enabled:
            tracer.count("serve.template.hits")
        try:
            with tracer.span(
                "serve.template.rebind", query=query.name, template=sig.digest
            ):
                outcome = rebind_compiled(
                    entry.compiled,
                    entry.signature,
                    query,
                    self.catalog,
                    instance_sig=sig,
                    sql=sql,
                    tracer=tracer,
                )
        except TemplateError as exc:
            if tracer.enabled:
                tracer.count("serve.template.fallbacks")
                tracer.event(
                    "serve.template.fallback",
                    query=query.name,
                    reason=exc.reason,
                )
            return None
        if tracer.enabled:
            tracer.count("serve.template.rebinds")
        self.store.put(key, outcome.compiled, tracer=tracer)
        return outcome.compiled

    def compile(
        self,
        query: Union[str, Query],
        timeout: Optional[float] = None,
        engine: Optional[str] = None,
    ) -> Tuple[CompiledBouquet, str]:
        """Obtain the compiled bouquet for ``query``; returns
        ``(compiled, source)`` where source is ``memory``/``disk``/
        ``template``/``compiled``/``coalesced``.

        Raises :class:`FutureTimeoutError` when the (possibly coalesced)
        compile does not finish within ``timeout`` (default: the
        server's ``compile_timeout``); the compile itself keeps running
        and will still populate the store.  ``engine`` overrides the
        config's compile engine for this request (cache-neutral).
        """
        parsed, sql = self._parse(query)
        key = artifact_key(parsed, self.catalog.statistics, self.config)
        hit, tier = self.store.lookup(key, self.catalog, query=parsed, tracer=self.tracer)
        if hit is not None:
            return hit, tier
        sig: Optional[TemplateSignature] = None
        if self._use_templates():
            sig = template_signature(
                parsed, self.catalog.schema, self.catalog.statistics
            )
            compiled = self._rebind_from_template(key, parsed, sql, sig)
            if compiled is not None:
                return compiled, "template"
        timeout = timeout if timeout is not None else self.compile_timeout
        waited_template = False
        while True:
            template_future: Optional[Future] = None
            with self._lock:
                if self._closed:
                    raise BouquetError("server is closed")
                future = self._inflight.get(key.digest)
                owner = False
                template_owner = False
                if future is None:
                    # A compile that finished between our store miss above
                    # and this lock acquisition has already published its
                    # artifact (_retire runs strictly after the store put),
                    # so one more lookup here closes the race that would
                    # duplicate the compile.  Fast batch compiles made that
                    # window easy to hit: a whole compile can complete while
                    # a peer thread is still between its miss and the lock.
                    # Telemetry-silent: this is a race-closing recheck, not
                    # a second user-visible cache lookup — the pre-lock miss
                    # above already accounted this request.
                    hit, tier = self.store.lookup(
                        key, self.catalog, query=parsed, tracer=NULL_TRACER
                    )
                    if hit is not None:
                        return hit, tier
                    if sig is not None and not waited_template:
                        # Another instance of this template is compiling:
                        # wait for its artifact and rebind from it instead
                        # of starting a second full compile.
                        template_future = self._template_inflight.get(sig.digest)
                    if template_future is None:
                        owner = True
                        future = self._pool.submit(
                            self._compile_and_store, key, parsed, sql,
                            self._config_for(engine),
                        )
                        self._inflight[key.digest] = future
                        if sig is not None and sig.digest not in self._template_inflight:
                            self._template_inflight[sig.digest] = future
                            template_owner = True
                else:
                    if self.tracer.enabled:
                        self.tracer.count("serve.singleflight.coalesced")
            if template_future is not None:
                if self.tracer.enabled:
                    self.tracer.count("serve.template.coalesced")
                # Wait out the template owner's compile (sharing the
                # request deadline), then retry: the exact store may now
                # hold our key (the owner *was* our query raced through a
                # different thread), or the template tier can rebind.  A
                # failed or fallback-worthy wait falls through to the
                # ordinary single-flight full compile.
                waited_template = True
                try:
                    template_future.result(timeout=timeout)
                except FutureTimeoutError:
                    raise
                except Exception:
                    continue
                hit, tier = self.store.lookup(
                    key, self.catalog, query=parsed, tracer=NULL_TRACER
                )
                if hit is not None:
                    return hit, tier
                compiled = self._rebind_from_template(key, parsed, sql, sig)
                if compiled is not None:
                    return compiled, "template"
                continue
            break
        if owner:
            # Registered outside the lock: a compile that finishes (or
            # fails) instantly runs the callback inline on this thread,
            # and _retire needs the lock we would still be holding.
            tdigest = sig.digest if template_owner else None
            future.add_done_callback(
                lambda _f, d=key.digest, t=tdigest: self._retire(d, t)
            )
        compiled = future.result(timeout=timeout)
        return compiled, ("compiled" if owner else "coalesced")

    def warm_sweep(
        self,
        query: Union[str, Query],
        crossing: Optional[str] = None,
        timeout: Optional[float] = None,
    ):
        """Compile ``query`` (or reuse the cached artifact) and pre-sweep
        its optimized cost field with the vectorized engine
        (:mod:`repro.sweep`).

        The sweep runs under the artifact's own run-time knobs (crossing
        unless overridden, equivalence threshold, model-error δ), so the
        field is what :func:`repro.api.simulate` charges at every
        location.  The field and the engine's contour tables are
        memoized on the compiled bouquet, so later metric or diagnostics
        requests against the same artifact are answered from cache.
        Returns the grid-shaped cost field.
        """
        compiled, source = self.compile(query, timeout=timeout)
        from ..sweep import SweepEngine

        config = compiled.config
        engine = SweepEngine(
            compiled.bouquet,
            crossing=crossing if crossing is not None else config.crossing,
            equivalence_threshold=config.equivalence_threshold,
            model_error_delta=config.model_error_delta,
            tracer=self.tracer,
        )
        with self.tracer.span(
            "serve.warm_sweep", source=source, crossing=engine.crossing.name
        ):
            field = engine.cost_field()
        if self.tracer.enabled:
            self.tracer.count("serve.warm_sweeps")
        return field

    def warm_compile(
        self,
        queries,
        timeout: Optional[float] = None,
    ):
        """Pre-populate the artifact cache for a workload.

        Each query is compiled through the ordinary cache/single-flight
        path — and therefore through the configured compile engine, which
        by default is the batch slab kernel (:mod:`repro.batchopt`), so
        warming a canned workload costs one DPsize enumeration per
        contour-band slab instead of one scalar optimize per ESS
        location.  Returns ``[(compiled, source), ...]`` in input order.
        """
        results = []
        with self.tracer.span("serve.warm_compile"):
            for query in queries:
                results.append(self.compile(query, timeout=timeout))
                if self.tracer.enabled:
                    self.tracer.count("serve.warm_compiles")
        return results

    def _retire(self, digest: str, template_digest: Optional[str] = None) -> None:
        with self._lock:
            self._inflight.pop(digest, None)
            if template_digest is not None:
                self._template_inflight.pop(template_digest, None)

    # ------------------------------------------------------------------
    # Serve path (compile → execute, with degradation)
    # ------------------------------------------------------------------

    def serve(
        self,
        request: Union[ServeRequest, str, Query],
        *,
        budget: Optional[float] = None,
        mode: Optional[str] = None,
        crossing: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> ServeResponse:
        """Answer one request end to end.

        The canonical calling convention is a
        :class:`~repro.serve.envelope.ServeRequest`; bare SQL text (or a
        parsed query) is accepted as sugar for ``ServeRequest(query=...)``.

        .. deprecated::
            The keyword arguments (``budget``/``mode``/``crossing``/
            ``timeout``) are the old signature; they are folded into an
            envelope (``timeout`` becomes ``deadline``) behind a
            :class:`DeprecationWarning`.
        """
        if isinstance(request, ServeRequest):
            if any(v is not None for v in (budget, mode, crossing, timeout)):
                raise BouquetError(
                    "serve: pass knobs inside the ServeRequest, not as "
                    "keyword arguments"
                )
            return self.serve_request(request)
        if any(v is not None for v in (budget, mode, crossing, timeout)):
            warnings.warn(
                "BouquetServer.serve(query, budget=..., mode=..., "
                "crossing=..., timeout=...) is deprecated; pass a "
                "ServeRequest envelope instead",
                DeprecationWarning,
                stacklevel=2,
            )
        return self.serve_request(
            ServeRequest(
                query=request,
                budget=budget,
                mode=mode,
                crossing=crossing,
                deadline=timeout,
            )
        )

    def serve_request(self, request: ServeRequest) -> ServeResponse:
        """Answer one enveloped request end to end.

        Requires the catalog to carry a database (serving executes for
        real).  Never raises for per-request problems — parse failures,
        compile deadlines, budget exhaustion, and execution errors are
        reported as typed statuses with stable ``error_code``\\ s, and
        the NAT fallback is attempted before giving up.
        """
        if self.catalog.database is None:
            raise BouquetError("serving requires a catalog with a database")
        request.validate()
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("serve.requests")
        started = time.perf_counter()

        def _respond(response: ServeResponse) -> ServeResponse:
            response.tenant = request.tenant
            response.request_id = request.request_id
            response.service_seconds = time.perf_counter() - started
            return response

        try:
            parsed, _sql = self._parse(request.query)
        except ReproError as exc:
            if tracer.enabled:
                tracer.count("serve.parse_failures")
            return _respond(
                ServeResponse(
                    status="failed",
                    query_name=request.sql or "",
                    error=str(exc),
                    error_code="parse-error",
                )
            )
        key = artifact_key(parsed, self.catalog.statistics, self.config)
        compiled: Optional[CompiledBouquet] = None
        source = "none"
        error: Optional[str] = None
        error_code: Optional[str] = None
        if request.cached_only:
            # The overload ladder: answer from cache or fall straight
            # through to NAT — never start (or wait on) a compile.
            hit, tier = self.store.lookup(
                key, self.catalog, query=parsed, tracer=tracer
            )
            if hit is not None:
                compiled, source = hit, tier
            else:
                error = "no cached artifact (cached-only request)"
                error_code = "cached-only-miss"
                if tracer.enabled:
                    tracer.count("serve.cached_only_misses")
        else:
            try:
                compiled, source = self.compile(
                    parsed,
                    timeout=request.deadline,
                    engine=request.compile_engine,
                )
            except FutureTimeoutError:
                error = "compile deadline exceeded"
                error_code = "compile-timeout"
                if tracer.enabled:
                    tracer.count("serve.compile_timeouts")
            except ReproError as exc:
                error = str(exc)
                error_code = "server-closed" if self._closed else "compile-failed"
                if tracer.enabled:
                    tracer.count("serve.compile_failures")

        if compiled is not None:
            try:
                result = api_execute(
                    compiled,
                    self.catalog.database,
                    budget=request.budget,
                    mode=request.mode,
                    crossing=request.crossing,
                    tracer=tracer,
                    span_name="serve.execute",
                )
                if tracer.enabled:
                    tracer.count("serve.served_ok")
                return _respond(
                    ServeResponse(
                        status="ok",
                        cache=source,
                        query_name=parsed.name,
                        key=key,
                        result=result,
                        mso_bound=compiled.mso_bound,
                    )
                )
            except BudgetExceeded as exc:
                if tracer.enabled:
                    tracer.count("serve.budget_exhausted")
                return _respond(
                    ServeResponse(
                        status="budget-exhausted",
                        cache=source,
                        query_name=parsed.name,
                        key=key,
                        mso_bound=compiled.mso_bound,
                        error=str(exc),
                        error_code="budget-exhausted",
                    )
                )
            except ReproError as exc:
                # Bouquet execution failed outright; fall through to NAT.
                error = str(exc)
                error_code = "execute-failed"
                if tracer.enabled:
                    tracer.count("serve.execute_failures")

        # Degradation: no compiled bouquet in time — answer natively.
        try:
            optimizer = self.catalog.optimizer(self.config, tracer=tracer)
            result = native_run(optimizer, parsed, self.catalog.database, tracer)
            if tracer.enabled:
                tracer.count("serve.degraded")
            return _respond(
                ServeResponse(
                    status="degraded",
                    cache=source,
                    query_name=parsed.name,
                    key=key,
                    result=result,
                    error=error,
                    error_code=error_code if error_code else "compile-failed",
                )
            )
        except ReproError as exc:
            if tracer.enabled:
                tracer.count("serve.failed")
            return _respond(
                ServeResponse(
                    status="failed",
                    cache=source,
                    query_name=parsed.name,
                    key=key,
                    error=f"{error}; native fallback failed: {exc}"
                    if error
                    else str(exc),
                    error_code="native-failed",
                )
            )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def refresh_statistics(
        self,
        statistics: Optional[DatabaseStatistics],
        *,
        patch: Optional[bool] = None,
    ) -> int:
        """Swap in a new statistics world view.

        With patching enabled (default: the config's ``patch`` knob)
        every cached artifact keyed to the old fingerprint is first
        offered to the delta-refresh engine
        (:func:`repro.drift.refresh.patch_compiled`): artifacts whose
        compile-visible inputs are unchanged — or changed only in a few
        base selectivities — are re-keyed under the new fingerprint after
        re-planning just the drift-suspect ESS locations (counter
        ``serve.cache.patched``).  Whatever cannot be patched (the drift
        moved the error dimensions, the grid, or the patch failed) is
        swept by the invalidation fallback, exactly as before.  Returns
        the number of entries dropped.
        """
        if patch is None:
            patch = self.config.patch
        old_statistics = self.catalog.statistics
        self.catalog.statistics = statistics
        fingerprint = statistics_fingerprint(statistics)
        if patch and fingerprint != statistics_fingerprint(old_statistics):
            self._patch_artifacts(fingerprint, old_statistics)
        removed = self.store.invalidate_statistics(fingerprint, tracer=self.tracer)
        if self.templates is not None:
            # The template tier keys on the statistics digest too, so
            # entries built under the old world view are unreachable —
            # sweep them (the patch pass above already re-registered the
            # artifacts it managed to carry over under the new digest).
            dropped = self.templates.invalidate_statistics(fingerprint)
            if dropped and self.tracer.enabled:
                self.tracer.count("serve.template.invalidated", dropped)
        if self.tracer.enabled:
            self.tracer.count("serve.statistics_refreshes")
        return removed

    def _patch_artifacts(
        self, fingerprint: str, old_statistics: Optional[DatabaseStatistics]
    ) -> int:
        """Re-key every patchable stale artifact under ``fingerprint``."""
        from ..drift.refresh import patch_compiled

        patched = 0
        with self.tracer.span("serve.patch_artifacts"):
            for _old_key, compiled in self.store.stale_entries(
                fingerprint, self.catalog
            ):
                try:
                    outcome = patch_compiled(
                        compiled,
                        self.catalog,
                        old_statistics=old_statistics,
                        tracer=self.tracer,
                    )
                except ReproError:
                    # Not patchable — the invalidation sweep drops it.
                    continue
                new_key = artifact_key(
                    outcome.compiled.query, self.catalog.statistics, compiled.config
                )
                self.store.put(new_key, outcome.compiled, tracer=self.tracer)
                if self._use_templates():
                    # A patched artifact is a valid representative of its
                    # template under the *new* statistics — re-register it
                    # so the template tier survives the refresh warm.
                    sig = template_signature(
                        outcome.compiled.query,
                        self.catalog.schema,
                        self.catalog.statistics,
                    )
                    self.templates.put(
                        sig,
                        outcome.compiled,
                        new_key.statistics_digest,
                        new_key.config_digest,
                    )
                patched += 1
                if self.tracer.enabled:
                    self.tracer.count("serve.cache.patched")
        return patched

    def stats(self) -> Dict[str, Dict]:
        """Point-in-time serving statistics (counters + store occupancy)."""
        snapshot = self.tracer.snapshot() if self.tracer.enabled else {"counters": {}}
        with self._lock:
            inflight = len(self._inflight)
        stats = {
            "counters": {
                name: value
                for name, value in sorted(snapshot["counters"].items())
                if name.startswith(("serve.", "optimizer."))
            },
            "store": self.store.snapshot(),
            "inflight": inflight,
        }
        if self.templates is not None:
            stats["templates"] = self.templates.snapshot()
        return stats
