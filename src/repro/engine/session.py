"""Session: the SparkSQL-like entry point.

A :class:`Session` owns a catalog and compiles SQL text through
parse → logical plan → physical plan → execution, timing each stage into a
:class:`~repro.engine.metrics.QueryMetrics`.

Extension point: *physical plan modifiers*. Maxson registers one
(:class:`repro.core.maxson_parser.MaxsonPlanModifier`) which rewrites the
plan between compilation and execution — exactly where the paper's
MaxsonParser sits relative to SparkSQL. The baseline engine runs with no
modifiers installed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..jsonlib.doccache import DEFAULT_DOC_CACHE_BYTES
from ..jsonlib.jackson import JacksonParser
from ..storage.fs import BlockFileSystem
from .cachebudget import CacheLedger
from .cancel import CancelToken
from .catalog import Catalog
from .errors import QueryCancelledError
from .expressions import EvalContext
from .metrics import QueryMetrics
from .parallel import parallelize_plan
from .physical import ExecState, PhysicalPlan
from .plancache import CachedPlan, PlanCache, fingerprint
from .planner import PlannedQuery, Planner
from .resultcache import ResultCache
from .sqlparser import parse_sql

__all__ = ["QueryResult", "Session"]


@dataclass
class QueryResult:
    """Rows plus the metrics of the execution that produced them."""

    rows: list[dict]
    metrics: QueryMetrics
    plan: PhysicalPlan
    #: Root :class:`repro.obs.trace.Span` when the query ran with a
    #: tracer; None on the (default) untraced path.
    trace: object | None = None
    #: ``(database, table, column, path)`` tuples the planner found, so
    #: callers (e.g. the Maxson stats collector) need not re-compile the
    #: SQL — re-compiling would defeat the plan cache.
    referenced_json_paths: list[tuple[str, str, str, str]] = field(
        default_factory=list
    )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list[object]:
        """One output column as a list."""
        return [row[name] for row in self.rows]

    def first(self) -> dict | None:
        return self.rows[0] if self.rows else None


@dataclass
class Session:
    """A single-tenant query session over a shared file system + catalog."""

    fs: BlockFileSystem = field(default_factory=BlockFileSystem)
    catalog: Catalog = None  # type: ignore[assignment]
    parser_factory: object = JacksonParser
    projection_parser_factory: object = None
    #: Split-level parallelism for morsel scans. 1 runs every morsel
    #: inline on the coordinator thread (the deterministic baseline);
    #: higher values overlap per-split I/O on a shared worker pool.
    scan_workers: int = 1
    #: "thread" (GIL-shared ThreadPoolExecutor — the default) or
    #: "process" (spawned worker processes with warm catalog snapshots,
    #: exchanging ColumnBatch payloads over shared memory). Ignored at
    #: ``scan_workers == 1``, which always runs inline.
    worker_backend: str = "thread"
    #: Capacity of the recurring-query plan cache; 0 disables it.
    plan_cache_entries: int = 64
    #: Enables the semantic result cache (final + intermediate result
    #: reuse across canonically-equivalent recurrences).
    result_cache_enabled: bool = False
    #: Entry-count cap of the result cache.
    result_cache_entries: int = 256
    #: Unified byte budget shared by the result, plan and document cache
    #: tiers (see :mod:`repro.engine.cachebudget`). ``None`` = unbudgeted.
    cache_budget_bytes: int | None = None
    #: Optional callable ``(event: str, **fields)`` receiving morsel
    #: worker lifecycle events (process backend spawn/crash/exit); the
    #: server points this at the telemetry store's ``system.workers``.
    worker_observer: object | None = None

    def __post_init__(self) -> None:
        if self.scan_workers < 1:
            raise ValueError(
                f"scan_workers must be >= 1, got {self.scan_workers!r}"
            )
        if self.worker_backend not in ("thread", "process"):
            raise ValueError(
                f"worker_backend must be 'thread' or 'process', "
                f"got {self.worker_backend!r}"
            )
        if self.plan_cache_entries < 0:
            raise ValueError(
                "plan_cache_entries must be >= 0, "
                f"got {self.plan_cache_entries!r}"
            )
        if self.result_cache_entries < 0:
            raise ValueError(
                "result_cache_entries must be >= 0, "
                f"got {self.result_cache_entries!r}"
            )
        if self.cache_budget_bytes is not None and self.cache_budget_bytes < 0:
            raise ValueError(
                "cache_budget_bytes must be >= 0, "
                f"got {self.cache_budget_bytes!r}"
            )
        if self.catalog is None:
            self.catalog = Catalog(self.fs)
        self.planner = Planner(self.catalog)
        self._plan_modifiers: list = []
        self._lock = threading.RLock()
        self.cache_ledger = CacheLedger(budget=self.cache_budget_bytes)
        self._plan_cache: PlanCache | None = (
            PlanCache(self.plan_cache_entries, ledger=self.cache_ledger)
            if self.plan_cache_entries > 0
            else None
        )
        self._result_cache: ResultCache | None = (
            ResultCache(self.cache_ledger, capacity=self.result_cache_entries)
            if self.result_cache_enabled
            else None
        )
        self._scan_pool: ThreadPoolExecutor | None = None
        self._scan_pool_size = 0
        self._proc_pool = None  # ProcessMorselPool, built lazily
        self._proc_pool_size = 0
        #: accumulated across queries; reset with `reset_session_metrics`
        self.session_metrics = QueryMetrics()

    # ------------------------------------------------------------------
    # plan modifiers (the Maxson hook)
    # ------------------------------------------------------------------
    def add_plan_modifier(self, modifier) -> None:
        """Register an object with ``modify(planned, state) -> PhysicalPlan``.

        Idempotent: registering an already-installed modifier is a no-op,
        so nested install/remove pairs (e.g. re-entrant ``baseline_sql``)
        cannot double-apply a modifier.
        """
        with self._lock:
            if modifier not in self._plan_modifiers:
                self._plan_modifiers.append(modifier)
                # The plan cache must drop instrumented plans outright;
                # the result cache keys on modifier tokens, so entries
                # from other modifier configurations stay valid (and a
                # token-less modifier bypasses it entirely).
                self.invalidate_plan_cache()

    def remove_plan_modifier(self, modifier) -> None:
        """Deregister a modifier. Idempotent: removing a modifier that is
        not installed is a no-op rather than a ``ValueError``."""
        with self._lock:
            if modifier in self._plan_modifiers:
                self._plan_modifiers.remove(modifier)
                self.invalidate_plan_cache()

    # ------------------------------------------------------------------
    # plan cache + morsel worker pool
    # ------------------------------------------------------------------
    def invalidate_plan_cache(self) -> None:
        """Drop every cached plan (generation swaps, modifier changes)."""
        if self._plan_cache is not None:
            self._plan_cache.clear()

    def configure_plan_cache(self, entries: int) -> None:
        """Resize (or disable, with 0) the plan cache."""
        if entries < 0:
            raise ValueError(f"plan_cache_entries must be >= 0, got {entries!r}")
        with self._lock:
            self.plan_cache_entries = entries
            self._plan_cache = PlanCache(entries) if entries > 0 else None

    def plan_cache_stats(self) -> dict[str, int]:
        """Counters of the plan cache (all zero when disabled)."""
        if self._plan_cache is None:
            return {
                "entries": 0,
                "capacity": 0,
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "invalidations": 0,
            }
        return self._plan_cache.stats()

    # ------------------------------------------------------------------
    # result cache
    # ------------------------------------------------------------------
    def invalidate_result_cache(self) -> None:
        """Drop every cached result (generation swaps, modifier changes).

        Keys already embed catalog/modifier tokens, so this is about
        releasing budget bytes promptly, not correctness."""
        if getattr(self, "_result_cache", None) is not None:
            self._result_cache.clear()

    def configure_result_cache(
        self, enabled: bool, entries: int | None = None
    ) -> None:
        """Enable, resize or disable the semantic result cache."""
        with self._lock:
            if entries is not None:
                if entries < 0:
                    raise ValueError(
                        f"result_cache_entries must be >= 0, got {entries!r}"
                    )
                self.result_cache_entries = entries
            if self._result_cache is not None:
                self._result_cache.clear()
            self.result_cache_enabled = enabled
            self._result_cache = (
                ResultCache(
                    self.cache_ledger, capacity=self.result_cache_entries
                )
                if enabled
                else None
            )

    def configure_cache_budget(self, budget_bytes: int | None) -> None:
        """Set (or clear) the unified byte budget for all cache tiers."""
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError(
                f"cache_budget_bytes must be >= 0, got {budget_bytes!r}"
            )
        with self._lock:
            self.cache_budget_bytes = budget_bytes
            self.cache_ledger.budget = budget_bytes

    def result_cache_stats(self) -> dict[str, int]:
        """Counters of the result cache (all zero when disabled)."""
        if self._result_cache is None:
            return {
                "entries": 0,
                "capacity": 0,
                "bytes": 0,
                "hits": 0,
                "intermediate_hits": 0,
                "misses": 0,
                "admissions": 0,
                "rejections": 0,
                "evictions": 0,
                "invalidations": 0,
            }
        return self._result_cache.stats()

    def probable_result_cache_hit(self, sql: str) -> bool:
        """Whether ``sql`` would (probably) be served from the result
        cache right now. A counter-free hint for admission priority —
        cheap recurrences jump the queue, so the answer must not
        perturb hit/miss statistics. Never raises: canonicalization
        failures (e.g. syntax errors) simply report False.
        """
        rcache = self._result_cache
        if rcache is None:
            return False
        try:
            _, tokens = self._modifier_snapshot()
            if tokens is None:
                return False
            canonical = rcache.canonicalize(
                sql, self.planner, self.catalog.version
            )
            if canonical is None:
                return False
            version = self.catalog.version
            key = (canonical.text, canonical.params, version, tokens)
            prefix_key = None
            if canonical.prefix_text is not None:
                prefix_key = (
                    canonical.prefix_text, canonical.params, version, tokens
                )
            return rcache.peek(key, prefix_key)
        except Exception:  # noqa: BLE001 - a hint must never fail a query
            return False

    def shrink_caches_to(self, budget_bytes: int) -> int:
        """Release cache bytes until the ledger total fits ``budget_bytes``.

        Watchdog ordering: the result tier yields first (lowest-benefit
        entries), then the plan tier (LRU). The document tier is
        per-query transient state and self-clamps via the ledger budget,
        so it is not force-evicted here. Returns bytes released.
        """
        before = self.cache_ledger.total()
        if before <= budget_bytes:
            return 0
        if self._result_cache is not None:
            other = before - self.cache_ledger.tier_bytes("result")
            self._result_cache.shrink_to_bytes(max(0, budget_bytes - other))
        total = self.cache_ledger.total()
        if total > budget_bytes and self._plan_cache is not None:
            other = total - self.cache_ledger.tier_bytes("plan")
            self._plan_cache.shrink_to_bytes(max(0, budget_bytes - other))
        return before - self.cache_ledger.total()

    def _morsel_pool(self):
        """The shared split-worker pool (rebuilt if ``scan_workers`` or
        ``worker_backend`` changed); None when the session is serial.

        Thread backend: a plain ``ThreadPoolExecutor``. Process backend:
        a :class:`repro.engine.procpool.ProcessMorselPool`, which the
        morsel scheduler detects by duck type (``pool.run_morsels``)."""
        if self.scan_workers <= 1:
            return None
        with self._lock:
            if self.worker_backend == "process":
                if self._scan_pool is not None:
                    self._scan_pool.shutdown(wait=False)
                    self._scan_pool = None
                    self._scan_pool_size = 0
                if (
                    self._proc_pool is None
                    or self._proc_pool_size != self.scan_workers
                ):
                    from .procpool import ProcessMorselPool, build_snapshot

                    if self._proc_pool is not None:
                        self._proc_pool.close()
                    self._proc_pool = ProcessMorselPool(
                        self.scan_workers,
                        snapshot_fn=lambda: build_snapshot(self),
                        observer=self.worker_observer,
                    )
                    self._proc_pool_size = self.scan_workers
                return self._proc_pool
            if self._proc_pool is not None:
                self._proc_pool.close()
                self._proc_pool = None
                self._proc_pool_size = 0
            if (
                self._scan_pool is None
                or self._scan_pool_size != self.scan_workers
            ):
                if self._scan_pool is not None:
                    self._scan_pool.shutdown(wait=False)
                self._scan_pool = ThreadPoolExecutor(
                    max_workers=self.scan_workers,
                    thread_name_prefix="morsel",
                )
                self._scan_pool_size = self.scan_workers
            return self._scan_pool

    def live_shm_bytes(self) -> int:
        """Bytes of shared memory currently held by the process-pool
        backend (result segments in flight plus the cancel-flag slab);
        0 on the thread backend. The memory watchdog charges this
        against its soft limit."""
        pool = self._proc_pool
        return pool.live_shm_bytes if pool is not None else 0

    def close_worker_pools(self) -> None:
        """Tear down morsel worker pools (thread and process). Safe to
        call repeatedly; pools rebuild lazily on the next query."""
        with self._lock:
            if self._scan_pool is not None:
                self._scan_pool.shutdown(wait=False)
                self._scan_pool = None
                self._scan_pool_size = 0
            if self._proc_pool is not None:
                self._proc_pool.close()
                self._proc_pool = None
                self._proc_pool_size = 0

    def _context_factory(self) -> EvalContext:
        context = EvalContext(parser=self.parser_factory())
        if self.projection_parser_factory is not None:
            context.projection_parser = self.projection_parser_factory()
        # Under a unified budget the per-query document cache may not
        # exceed the whole allowance on its own.
        if self.cache_ledger.budget is not None:
            context.doc_cache_bytes = min(
                DEFAULT_DOC_CACHE_BYTES, self.cache_ledger.budget
            )
        return context

    def _make_state(self, tracer=None, cancel_token=None) -> ExecState:
        return ExecState(
            catalog=self.catalog,
            context=self._context_factory(),
            tracer=tracer,
            context_factory=self._context_factory,
            scan_workers=self.scan_workers,
            scan_pool=self._morsel_pool(),
            cancel_token=cancel_token,
        )

    def _modifier_snapshot(self) -> tuple[list, tuple | None]:
        """The registered modifiers plus one cache-key token each.

        A modifier declares cache-compatibility by exposing
        ``plan_cache_token()`` (Maxson's does: registry identity +
        breaker epoch). A modifier without one may rewrite differently
        on every call, so its presence makes the whole query
        uncacheable — ``tokens`` comes back ``None`` and the plan cache
        is bypassed (every query still runs its ``modify``).
        """
        with self._lock:
            modifiers = list(self._plan_modifiers)
        tokens = []
        for modifier in modifiers:
            token_fn = getattr(modifier, "plan_cache_token", None)
            if not callable(token_fn):
                return modifiers, None
            tokens.append(token_fn())
        return modifiers, tuple(tokens)

    # ------------------------------------------------------------------
    def compile(self, sql: str) -> PlannedQuery:
        """Parse and plan without executing."""
        logical = parse_sql(sql)
        return self.planner.plan(logical)

    def explain(self, sql: str) -> str:
        """The physical plan as text, after plan modifiers run."""
        planned, _, _ = self._prepare(sql)
        return planned.physical.describe()

    def _prepare(
        self, sql: str, tracer=None, cancel_token=None
    ) -> tuple[PlannedQuery, ExecState, float]:
        started = time.perf_counter()
        # Traced queries bypass the plan cache entirely (no lookup, no
        # store): instrumented plans carry tracer-bound wrappers that
        # must never leak into untraced executions, and EXPLAIN ANALYZE
        # should always show a freshly derived plan.
        cache = self._plan_cache if tracer is None else None
        modifiers, tokens = self._modifier_snapshot()
        if tokens is None:  # an unkeyed modifier makes the query uncacheable
            cache = None
        key = None
        if cache is not None:
            key = (fingerprint(sql), self.catalog.version, tokens)
            entry = cache.get(key)
            if entry is not None:
                state = self._make_state(cancel_token=cancel_token)
                # Replay the plan-time metric effects (e.g. Maxson's
                # registry misses are counted during modify()) so a
                # cached query reports the same counters as a planned one.
                state.metrics.merge(entry.planned_metrics)
                state.metrics.extra["plan_cache_hits"] = (
                    state.metrics.extra.get("plan_cache_hits", 0) + 1
                )
                return entry.planned, state, time.perf_counter() - started
        if tracer is not None:
            with tracer.span("plan"):
                planned = self.compile(sql)
        else:
            planned = self.compile(sql)
        state = self._make_state(tracer=tracer, cancel_token=cancel_token)
        if tracer is not None:
            with tracer.span("rewrite", modifiers=len(modifiers)):
                for modifier in modifiers:
                    planned.physical = modifier.modify(planned, state)
            # Traced sessions keep the classic operator tree at
            # scan_workers=1 so operator spans stay per-stage; parallel
            # sessions trade them for per-split spans.
            if self.scan_workers > 1:
                planned.physical = parallelize_plan(planned.physical)
            if tracer.enabled:
                from ..obs.instrument import instrument_plan

                planned.physical = instrument_plan(planned.physical, tracer)
        else:
            for modifier in modifiers:
                planned.physical = modifier.modify(planned, state)
            # Morsel execution is the default untraced path, at any
            # worker count — workers=1 runs the same code inline, which
            # is what makes serial-vs-parallel differentials exact.
            planned.physical = parallelize_plan(planned.physical)
            if cache is not None:
                cache.put(
                    key,
                    CachedPlan(
                        planned=planned,
                        planned_metrics=state.metrics.snapshot(),
                    ),
                )
                state.metrics.extra["plan_cache_misses"] = (
                    state.metrics.extra.get("plan_cache_misses", 0) + 1
                )
        plan_seconds = time.perf_counter() - started
        return planned, state, plan_seconds

    def sql(
        self,
        sql: str,
        tracer=None,
        deadline_ms: float | None = None,
        cancel_token=None,
    ) -> QueryResult:
        """Compile and execute one SELECT statement.

        The plan runs on the vectorized path: operators exchange column
        batches and repeated JSON extractions share one parse per row.
        Expressions the batch compiler does not vectorize fall back to
        their scalar ``evaluate`` kernels, row by row.

        ``tracer`` (a :class:`repro.obs.trace.Tracer`) opts this query
        into span recording: the plan is instrumented so every operator
        records wall time and counter deltas, and the result carries the
        root span as ``result.trace``. Without a tracer the query runs
        the exact pre-observability code path.

        ``deadline_ms`` bounds this query's wall time: a
        :class:`~repro.engine.cancel.CancelToken` carrying the deadline
        is threaded through the morsel scheduler and checked at
        split/batch boundaries and inside raw-parse fallback loops, so a
        timed-out query raises ``DeadlineExceededError`` within bounded
        slack and never returns partial rows. ``cancel_token`` supplies
        an externally owned token instead (e.g. the server's, so drain
        can cancel in-flight queries); when both are given the token is
        tightened to the earlier deadline.
        """
        token = cancel_token
        if deadline_ms is not None:
            if token is None:
                token = CancelToken.with_deadline_ms(deadline_ms)
            else:
                token.tighten_deadline(deadline_ms / 1000.0)
        if token is not None:
            # A query that arrives already past its deadline (or already
            # cancelled) raises before any work — including before a
            # result-cache serve, so "expired" never silently succeeds.
            token.check()
        # -- semantic result cache -------------------------------------
        # Canonicalize first: the canonical fingerprint + parameter
        # vector + (catalog version, modifier tokens) is the result key.
        rcache = self._result_cache
        canonical = None
        result_key = None
        prefix_key = None
        if rcache is not None:
            _, tokens = self._modifier_snapshot()
            if tokens is not None:  # unkeyed modifiers bypass, like plans
                canonical = rcache.canonicalize(
                    sql, self.planner, self.catalog.version
                )
            if canonical is not None:
                version = self.catalog.version
                result_key = (canonical.text, canonical.params, version, tokens)
                if canonical.prefix_text is not None:
                    prefix_key = (
                        canonical.prefix_text, canonical.params, version, tokens
                    )
                rcache.note_recurrence(canonical.text)
        result_cache_missed = False
        if result_key is not None and tracer is None:
            served = self._serve_cached_result(result_key, prefix_key, canonical)
            if served is not None:
                return served
            result_cache_missed = True
        query_span = (
            tracer.begin("query") if tracer is not None else None
        )
        if tracer is not None and result_key is not None:
            # Traced queries never serve from the result cache (EXPLAIN
            # ANALYZE must show a real execution) but still record the
            # decision as a span.
            would_hit = rcache.peek(result_key, prefix_key)
            with tracer.span(
                "result_cache",
                decision="bypass_traced" if would_hit else "miss",
                cached=would_hit,
            ):
                pass
        planned, state, plan_seconds = self._prepare(
            sql, tracer=tracer, cancel_token=token
        )
        started = time.perf_counter()
        try:
            if tracer is None:
                rows = planned.physical.execute_batch(state).to_rows()
            else:
                with tracer.span("execute"):
                    rows = planned.physical.execute_batch(state).to_rows()
        except QueryCancelledError:
            # No partial rows, no result-cache admission: the exception
            # unwinds before any of the post-execution bookkeeping.
            if query_span is not None:
                query_span.attributes["status"] = "cancelled"
                tracer.end(query_span)
            raise
        total = time.perf_counter() - started
        metrics = state.metrics
        metrics.plan_seconds = plan_seconds
        metrics.total_seconds = total
        metrics.rows_output = len(rows)
        metrics.shared_parse_hits += state.context.shared_parse_hits()
        metrics.doc_cache_evictions += state.context.doc_cache_evictions()
        parse_stats = state.context.parser.stats
        metrics.parse_seconds += parse_stats.seconds
        metrics.parse_documents += parse_stats.documents
        metrics.parse_bytes += parse_stats.bytes_scanned
        for extra_parser in (
            state.context.projection_parser,
            state.context.xml_parser,
        ):
            if extra_parser is not None and hasattr(extra_parser, "stats"):
                metrics.parse_seconds += extra_parser.stats.seconds
                metrics.parse_documents += extra_parser.stats.documents
                metrics.parse_bytes += extra_parser.stats.bytes_scanned
        self._observe_document_tier(state)
        # -- result-cache admission ------------------------------------
        # A query that degraded (any split answered by raw-parse
        # fallback) may hold an incomplete or stale-shaped answer; it is
        # never admitted. Failed queries never reach this point.
        if result_key is not None:
            if result_cache_missed:
                metrics.extra["result_cache_misses"] = (
                    metrics.extra.get("result_cache_misses", 0) + 1
                )
            degraded = metrics.extra.get("degraded_splits", 0)
            if degraded == 0:
                admitted = rcache.admit(
                    result_key,
                    canonical,
                    rows,
                    cost_seconds=plan_seconds + total,
                    referenced_paths=planned.referenced_json_paths,
                    plan=planned.physical,
                )
                counter = (
                    "result_cache_admissions"
                    if admitted
                    else "result_cache_rejections"
                )
                metrics.extra[counter] = metrics.extra.get(counter, 0) + 1
                if tracer is not None:
                    with tracer.span(
                        "result_cache_admission", admitted=admitted
                    ):
                        pass
            elif tracer is not None:
                with tracer.span(
                    "result_cache_admission",
                    admitted=False,
                    reason="degraded_splits",
                ):
                    pass
        with self._lock:
            self.session_metrics.merge(metrics)
        trace_root = None
        if tracer is not None:
            query_span.attributes.update(
                total_seconds=metrics.total_seconds,
                plan_seconds=metrics.plan_seconds,
                read_seconds=metrics.read_seconds,
                parse_seconds=metrics.parse_seconds,
                parse_documents=metrics.parse_documents,
                rows_out=metrics.rows_output,
            )
            tracer.end(query_span)
            trace_root = query_span
        return QueryResult(
            rows=rows,
            metrics=metrics,
            plan=planned.physical,
            trace=trace_root,
            referenced_json_paths=planned.referenced_json_paths,
        )

    def _serve_cached_result(
        self, key: tuple, prefix_key: tuple | None, canonical
    ) -> QueryResult | None:
        """Answer a query from the result cache, or None on a miss."""
        started = time.perf_counter()
        found = self._result_cache.fetch(key, canonical, prefix_key)
        if found is None:
            return None
        rows, entry, from_intermediate = found
        metrics = QueryMetrics()
        metrics.rows_output = len(rows)
        metrics.total_seconds = time.perf_counter() - started
        metrics.extra["result_cache_hits"] = 1
        if from_intermediate:
            metrics.extra["result_cache_intermediate_hits"] = 1
        with self._lock:
            self.session_metrics.merge(metrics)
        return QueryResult(
            rows=rows,
            metrics=metrics,
            plan=entry.plan,
            referenced_json_paths=list(entry.referenced_paths),
        )

    def _observe_document_tier(self, state: ExecState) -> None:
        """Publish the document cache's bytes to the unified ledger.

        The document cache is per-query and dies with its context; the
        ledger keeps the last observation so the ``document`` tier shows
        up in occupancy gauges and constrains result-cache admission
        within the same query's accounting window."""
        observed = 0
        for cache in (
            state.context.json_documents,
            state.context.xml_documents,
        ):
            if cache is not None:
                observed += cache.current_bytes
        self.cache_ledger.set_tier("document", observed)

    def explain_analyze(self, sql: str) -> str:
        """Execute ``sql`` under a fresh tracer and render the annotated
        plan (per-operator wall time, rows, parse counts, cache hits)."""
        from ..obs.explain import render_explain_analyze
        from ..obs.trace import Tracer

        result = self.sql(sql, tracer=Tracer())
        return render_explain_analyze(result.trace, result.metrics, sql=sql)

    def reset_session_metrics(self) -> None:
        with self._lock:
            self.session_metrics = QueryMetrics()
