"""MaxsonSystem: the end-to-end facade (paper Fig 5).

Wires the components into the nightly cycle the paper describes:

1. the **collector** accumulates per-JSONPath statistics from executed
   queries (live SQL or replayed trace events);
2. at "midnight", the **predictor** proposes tomorrow's MPJPs;
3. the **scoring function** measures and ranks them, and greedily selects
   under the byte budget;
4. the **cacher** drops yesterday's cache and pre-parses the selection
   into file-aligned cache tables;
5. from then on, the **plan modifier** rewrites every incoming query's
   physical plan to read cached values through the Value Combiner, with
   predicate pushdown onto the cache table.

Queries run through :meth:`MaxsonSystem.sql`, which both executes them
and feeds the collector — the feedback loop of the production system.

**Cache generations.** The paper drops yesterday's cache before
re-populating; in a live service that would leave a window in which
concurrent queries observe an empty or half-built cache. The system
instead *double-buffers*: each midnight cycle builds generation ``N+1``
into its own cache tables (``{db}__{table}__g{N+1}``) while generation
``N`` keeps serving, then atomically swaps the registry the plan
modifier consults and retires the old generation's tables. With a
:class:`~repro.server.generation.GenerationGuard` installed
(``generation_guard``), retirement is deferred until the last in-flight
query leasing the old generation completes, so no query ever sees a
torn cache.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..engine.catalog import Catalog
from ..engine.metrics import QueryMetrics
from ..engine.session import QueryResult, Session
from ..storage.fs import BlockFileSystem
from ..workload.trace import PathKey
from .cacher import (
    CACHE_DATABASE,
    CacheBuildReport,
    CacheRegistry,
    JsonPathCacher,
)
from .collector import JsonPathCollector
from .journal import BuildJournal
from .maxson_parser import MaxsonPlanModifier
from .predictor import JsonPathPredictor, PredictorConfig
from .resilience import CacheCircuitBreaker, ResilienceStats
from .scoring import ScoredPath, ScoringFunction

__all__ = ["MaxsonConfig", "MidnightReport", "MaxsonSystem"]


def _span(tracer, name: str, **attributes):
    """A tracer span, or a no-op context when tracing is off."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attributes)


@dataclass
class MaxsonConfig:
    """System-level knobs."""

    cache_budget_bytes: int = 512 * 1024 * 1024
    mpjp_threshold: int = 2
    selection_strategy: str = "score"
    """'score' (the paper's ranking) or 'random' (Fig 11 comparator)."""
    enable_pushdown: bool = True
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    scoring_sample_rows: int = 64
    random_seed: int = 0
    quarantine_seconds: float = 30.0
    """How long the circuit breaker quarantines a failing cache table
    before half-opening for a re-probe."""
    breaker_failure_threshold: int = 1
    """Cache-read failures before a table is quarantined."""
    build_workers: int = 1
    """Threads parsing raw files concurrently during cache builds. Cache
    files are still written sequentially in file order, so raw/cache
    alignment, crash-journal and generation-swap semantics are identical
    at any worker count; 1 (the default) also keeps seeded fault
    injection deterministic."""
    scan_workers: int = 1
    """Split-level morsel parallelism for query scans. Results are
    bit-identical at any worker count; >1 overlaps per-split I/O on a
    worker pool."""
    worker_backend: str = "thread"
    """Morsel worker backend when ``scan_workers > 1``: 'thread' (shared
    GIL) or 'process' (spawned workers with warm snapshots exchanging
    ColumnBatch payloads over shared memory). Results are bit-identical
    across backends."""
    plan_cache_entries: int = 64
    """Capacity of the recurring-query plan cache (0 disables it)."""
    result_cache: bool = False
    """Enable the semantic result cache layered above the plan cache
    (canonicalized recurring statements replay their result set)."""
    result_cache_entries: int = 256
    """Capacity of the result cache when enabled."""


@dataclass
class MidnightReport:
    """Outcome of one midnight cycle."""

    day: int
    predicted_mpjp: int
    candidates_scored: int
    selected: list[ScoredPath]
    build: CacheBuildReport
    skipped_missing_tables: int = 0

    @property
    def cached_paths(self) -> list[PathKey]:
        return [sp.key for sp in self.selected]


class MaxsonSystem:
    """Maxson on top of a :class:`~repro.engine.session.Session`."""

    def __init__(
        self,
        session: Session | None = None,
        config: MaxsonConfig | None = None,
    ) -> None:
        self.session = session or Session()
        self.config = config or MaxsonConfig()
        self.session.scan_workers = self.config.scan_workers
        if self.config.worker_backend not in ("thread", "process"):
            raise ValueError(
                f"worker_backend must be 'thread' or 'process', "
                f"got {self.config.worker_backend!r}"
            )
        self.session.worker_backend = self.config.worker_backend
        if self.session.plan_cache_entries != self.config.plan_cache_entries:
            self.session.configure_plan_cache(self.config.plan_cache_entries)
        if self.config.result_cache and not self.session.result_cache_enabled:
            self.session.configure_result_cache(
                True, entries=self.config.result_cache_entries
            )
        self.collector = JsonPathCollector()
        self.registry = CacheRegistry()
        self.cacher = JsonPathCacher(
            self.session.catalog,
            self.registry,
            build_workers=self.config.build_workers,
        )
        self.scoring = ScoringFunction(
            self.session.catalog,
            sample_rows=self.config.scoring_sample_rows,
            mpjp_threshold=self.config.mpjp_threshold,
        )
        self.predictor = JsonPathPredictor(self.config.predictor)
        #: Degraded-mode counters shared by the modifier, the combiner,
        #: the build/recovery paths and the server's status surface.
        self.resilience = ResilienceStats()
        #: Quarantines failing cache tables; survives generation swaps
        #: (new generations use new table names, so they start clean).
        self.breaker = CacheCircuitBreaker(
            quarantine_seconds=self.config.quarantine_seconds,
            failure_threshold=self.config.breaker_failure_threshold,
        )
        self.journal = BuildJournal(
            self.session.catalog.fs,
            on_write_failure=lambda _record: self.resilience.add(
                "journal_write_failures"
            ),
        )
        self.modifier = MaxsonPlanModifier(
            self.registry,
            enable_pushdown=self.config.enable_pushdown,
            breaker=self.breaker,
            resilience=self.resilience,
        )
        self.session.add_plan_modifier(self.modifier)
        #: Closes the predict→cache loop: scores each retired generation's
        #: predicted/cached sets against the parse demand it actually saw.
        from ..obs.efficacy import EfficacyAccountant

        self.efficacy = EfficacyAccountant(byte_weight=self._path_bytes)
        self.current_day = 0
        self.cache_build_metrics = QueryMetrics()
        #: Monotonic cache-generation counter; bumped by every swap.
        self.generation = 0
        #: Optional :class:`~repro.server.generation.GenerationGuard`; when
        #: set, old-generation retirement waits for in-flight leases.
        self.generation_guard = None
        self._generation_lock = threading.RLock()
        self._baseline_lock = threading.RLock()
        self._baseline_depth = 0

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_demo(cls, rows_per_table: int = 300) -> "MaxsonSystem":
        """A ready-to-play system over the Table II tables."""
        from ..workload.tables import load_tables

        session = Session(fs=BlockFileSystem())
        load_tables(session.catalog, rows_per_table=rows_per_table, days=3)
        return cls(session=session)

    @property
    def catalog(self) -> Catalog:
        return self.session.catalog

    def _path_bytes(self, key: PathKey) -> int:
        """Estimated parse bytes for one path (efficacy byte weighting)."""
        return self.scoring.measure(key).estimated_total_bytes

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def sql(
        self,
        sql: str,
        day: int | None = None,
        tracer=None,
        deadline_ms: float | None = None,
        cancel_token=None,
    ) -> QueryResult:
        """Execute SQL through the Maxson-modified session and collect its
        JSONPath references. ``tracer`` opts the query into span
        recording; ``deadline_ms``/``cancel_token`` bound its wall time
        (see :meth:`Session.sql`)."""
        result = self.session.sql(
            sql,
            tracer=tracer,
            deadline_ms=deadline_ms,
            cancel_token=cancel_token,
        )
        # The result carries the planner's path references, so recurring
        # queries feed the collector without a second compile (which
        # would both cost plan time and sidestep the plan cache).
        self.collector.record_planned(
            day if day is not None else self.current_day,
            result.referenced_json_paths,
        )
        return result

    def explain_analyze(self, sql: str, day: int | None = None) -> str:
        """``EXPLAIN ANALYZE`` through the Maxson-modified session; the
        query still feeds the collector like any other."""
        planned = self.session.compile(sql)
        self.collector.record_planned(
            day if day is not None else self.current_day,
            planned.referenced_json_paths,
        )
        return self.session.explain_analyze(sql)

    def baseline_sql(self, sql: str) -> QueryResult:
        """Execute without Maxson (plain engine), for comparisons.

        Safe to nest and to call re-entrantly: a depth counter keeps the
        modifier uninstalled until the outermost call finishes, and both
        install and removal are idempotent on the session.
        """
        with self._baseline_lock:
            self._baseline_depth += 1
            self.session.remove_plan_modifier(self.modifier)
        try:
            return self.session.sql(sql)
        finally:
            with self._baseline_lock:
                self._baseline_depth -= 1
                if self._baseline_depth == 0:
                    self.session.add_plan_modifier(self.modifier)

    # ------------------------------------------------------------------
    # cache generations (double-buffered swap)
    # ------------------------------------------------------------------
    def _swap_generation(
        self, keys: list[PathKey], tracer=None
    ) -> CacheBuildReport:
        """Build the next cache generation off to the side and swap it in.

        The new generation's tables carry a ``__g{N}`` suffix so the
        build never touches tables the current generation is serving
        from. Once built, the registry/cacher references are swapped (a
        plan modifier snapshots ``modifier.registry`` once per query, so
        the swap is atomic from a query's point of view) and the old
        generation is retired — immediately when no
        :attr:`generation_guard` is installed, otherwise as soon as the
        last query leasing the old generation drains.
        """
        with self._generation_lock:
            next_generation = self.generation + 1
            new_registry = CacheRegistry()
            new_cacher = JsonPathCacher(
                self.catalog,
                new_registry,
                row_group_size=self.cacher.row_group_size,
                type_sample_rows=self.cacher.type_sample_rows,
                table_suffix=f"__g{next_generation}",
                build_workers=self.cacher.build_workers,
            )
            # Write-ahead: record the build before its first table exists
            # so a crash mid-build leaves a pending journal entry that
            # recover_orphan_generations() can act on after restart.
            self.journal.begin(next_generation)
            try:
                with _span(
                    tracer,
                    "build",
                    generation=next_generation,
                    keys=len(keys),
                ):
                    build = new_cacher.populate(keys, tracer=tracer)
                    if tracer is not None:
                        tracer.annotate(
                            cache_tables=len(new_registry.cache_tables()),
                            cache_bytes=new_registry.total_bytes(),
                        )
            except Exception as exc:
                # Build failed (fs fault, corrupt raw read, ...): GC the
                # half-built generation and keep the old one serving.
                # A simulated process crash (InjectedCrash) is a
                # BaseException and deliberately NOT caught here.
                self._gc_generation(next_generation, new_registry)
                self.journal.abort(next_generation)
                self.resilience.add("build_failures")
                failed = CacheBuildReport()
                failed.failed = True
                failed.error = f"{type(exc).__name__}: {exc}"
                self.cache_build_metrics.extra["failed_builds"] = (
                    self.cache_build_metrics.extra.get("failed_builds", 0.0)
                    + 1.0
                )
                return failed
            self.journal.commit(next_generation)
            old_registry = self.registry
            old_tables = old_registry.cache_tables()

            def install() -> None:
                self.registry = new_registry
                self.cacher = new_cacher
                self.modifier.registry = new_registry
                self.generation = next_generation
                # Cached plans reference the retired generation's scan
                # operators; the registry-identity token in their keys
                # already makes them unreachable, and clearing frees
                # them immediately.
                self.session.invalidate_plan_cache()
                # Result-cache keys carry the same token, so retired
                # entries can never be served; clearing releases their
                # bytes back to the unified budget right away.
                self.session.invalidate_result_cache()
                # Publish the new generation's jsonpath-tier occupancy
                # (reported beside the budgeted tiers; the midnight
                # selector enforces its own budget at selection time).
                self.session.cache_ledger.set_tier(
                    "jsonpath", new_registry.total_bytes()
                )

            def retire() -> None:
                for table in sorted(old_tables):
                    if self.catalog.table_exists(CACHE_DATABASE, table):
                        self.catalog.drop_table(CACHE_DATABASE, table)
                old_registry.clear()

            guard = self.generation_guard
            with _span(
                tracer,
                "swap",
                generation=next_generation,
                retired_tables=len(old_tables),
                guarded=guard is not None,
            ):
                if guard is None:
                    install()
                    retire()
                else:
                    guard.complete_swap(
                        self.generation, next_generation, install, retire
                    )
            self.cache_build_metrics.extra["build_seconds"] = (
                self.cache_build_metrics.extra.get("build_seconds", 0.0)
                + build.build_seconds
            )
            self.cache_build_metrics.extra["generations_built"] = (
                self.cache_build_metrics.extra.get("generations_built", 0.0)
                + 1.0
            )
            return build

    def _gc_generation(self, generation: int, registry: CacheRegistry) -> None:
        """Drop every cache table of a failed/orphaned generation."""
        suffix = f"__g{generation}"
        dropped = 0
        for info in list(self.catalog.list_tables(CACHE_DATABASE)):
            if info.name.endswith(suffix):
                self.catalog.drop_table(info.database, info.name)
                dropped += 1
        registry.clear()
        if dropped:
            self.resilience.add("recovery_actions", dropped)

    def recover_orphan_generations(self) -> list[str]:
        """Garbage-collect cache tables stranded by a crashed build.

        Run at startup (the server does this automatically) or after a
        simulated crash: any ``maxson_cache`` table not referenced by
        the live registry is unreachable by the plan modifier — either a
        half-built generation whose journal entry never committed, or a
        leftover the retirement path did not get to. Both are dropped,
        pending journal entries are closed with ``abort`` records, and
        the dropped table names are returned.
        """
        with self._generation_lock:
            live = self.registry.cache_tables()
            dropped: list[str] = []
            for info in list(self.catalog.list_tables(CACHE_DATABASE)):
                if info.name in live:
                    continue
                self.catalog.drop_table(info.database, info.name)
                dropped.append(info.name)
            for generation in self.journal.pending():
                self.journal.abort(generation)
            if dropped:
                self.resilience.add("recovery_actions", len(dropped))
            return dropped

    def refresh_cache(self) -> CacheBuildReport:
        """Incrementally extend the current generation's cache tables to
        cover raw files appended since the build (repairing invalidated
        tables in place); see :meth:`JsonPathCacher.refresh`.

        A failed refresh (fs fault mid-append) returns a ``failed``
        report instead of raising: the registry still points at the
        previous intact state, and any torn cache file the failure left
        behind is caught at read time (checksums / file-count alignment)
        and answered through the raw-parsing fallback.
        """
        with self._generation_lock:
            keys = [entry.key for entry in self.registry.all_entries()]
            try:
                build = self.cacher.refresh(keys)
            except Exception as exc:
                self.resilience.add("build_failures")
                failed = CacheBuildReport()
                failed.failed = True
                failed.error = f"{type(exc).__name__}: {exc}"
                return failed
            self.cache_build_metrics.extra["build_seconds"] = (
                self.cache_build_metrics.extra.get("build_seconds", 0.0)
                + build.build_seconds
            )
            return build

    # ------------------------------------------------------------------
    # the midnight cycle
    # ------------------------------------------------------------------
    def train_predictor(
        self, train_days: list[int], keys: list[PathKey] | None = None
    ) -> None:
        self.predictor.fit(self.collector, train_days, keys)

    def run_midnight_cycle(
        self,
        day: int | None = None,
        candidate_keys: list[PathKey] | None = None,
        history_days: int = 7,
        tracer=None,
    ) -> MidnightReport:
        """Predict, score, select and cache for ``day`` (default: the
        system's next day).

        With a ``tracer`` the cycle records a ``midnight`` span tree
        (``collect → predict → score → build → swap``), mirroring how
        traced queries record their operator tree.
        """
        target_day = day if day is not None else self.current_day + 1
        with _span(tracer, "midnight", day=target_day):
            with _span(tracer, "collect"):
                records = self.collector.queries_between(
                    max(0, target_day - history_days), target_day - 1
                )
                if tracer is not None:
                    tracer.annotate(history_records=len(records))
            with _span(tracer, "predict"):
                predicted = self.predictor.predict(
                    self.collector, target_day, candidate_keys
                )
                # Only paths over real tables can be cached.
                cacheable: set[PathKey] = set()
                missing = 0
                for key in predicted:
                    if self.catalog.table_exists(key.database, key.table):
                        cacheable.add(key)
                    else:
                        missing += 1
                if tracer is not None:
                    tracer.annotate(
                        predicted=len(predicted),
                        cacheable=len(cacheable),
                        skipped_missing_tables=missing,
                    )
            with _span(tracer, "score"):
                scored = self.scoring.score(cacheable, records)
                if self.config.selection_strategy == "random":
                    selected = ScoringFunction.random_selection(
                        scored,
                        self.config.cache_budget_bytes,
                        seed=self.config.random_seed,
                    )
                else:
                    selected = self.scoring.select_within_budget(
                        scored, self.config.cache_budget_bytes
                    )
                if tracer is not None:
                    tracer.annotate(
                        scored=len(scored), selected=len(selected)
                    )
            build = self._swap_generation(
                [sp.key for sp in selected], tracer=tracer
            )
            if not build.failed:
                # Close the book on the generation this swap retired,
                # then start accounting for the one that now serves.
                self.efficacy.close_pending(
                    self.collector,
                    up_to_day=target_day,
                    threshold=self.config.mpjp_threshold,
                )
                self.efficacy.open_generation(
                    self.generation,
                    target_day,
                    predicted,
                    [sp.key for sp in selected],
                )
            self.current_day = target_day
        return MidnightReport(
            day=target_day,
            predicted_mpjp=len(predicted),
            candidates_scored=len(scored),
            selected=selected,
            build=build,
            skipped_missing_tables=missing,
        )

    def cache_paths_directly(
        self,
        keys: list[PathKey],
        budget_bytes: int | None = None,
        strategy: str | None = None,
        records=None,
    ) -> MidnightReport:
        """Bypass prediction: score and cache the given candidate paths.

        Used by benchmarks that study scoring/caching in isolation
        (Fig 11 / Table V) where the candidate MPJP set is known.
        """
        budget = (
            budget_bytes if budget_bytes is not None else self.config.cache_budget_bytes
        )
        strategy = strategy or self.config.selection_strategy
        records = records if records is not None else self.collector.queries_between(
            0, self.current_day
        )
        cacheable = {
            key
            for key in keys
            if self.catalog.table_exists(key.database, key.table)
        }
        scored = self.scoring.score(cacheable, records)
        if strategy == "random":
            selected = ScoringFunction.random_selection(
                scored, budget, seed=self.config.random_seed
            )
        else:
            selected = self.scoring.select_within_budget(scored, budget)
        build = self._swap_generation([sp.key for sp in selected])
        if not build.failed:
            self.efficacy.close_pending(
                self.collector,
                up_to_day=self.current_day,
                threshold=self.config.mpjp_threshold,
            )
            self.efficacy.open_generation(
                self.generation,
                self.current_day,
                keys,
                [sp.key for sp in selected],
            )
        return MidnightReport(
            day=self.current_day,
            predicted_mpjp=len(keys),
            candidates_scored=len(scored),
            selected=selected,
            build=build,
            skipped_missing_tables=len(keys) - len(cacheable),
        )

    # ------------------------------------------------------------------
    def cache_summary(self) -> dict[str, object]:
        entries = self.registry.entries()
        self.session.cache_ledger.set_tier(
            "jsonpath", self.registry.total_bytes()
        )
        return {
            "cached_paths": len(entries),
            "cache_tables": len({e.cache_table for e in entries}),
            "cache_bytes": self.registry.total_bytes(),
            "invalid_tables": sorted(self.registry.invalid_tables()),
            "generation": self.generation,
            "build_seconds": self.cache_build_metrics.extra.get(
                "build_seconds", 0.0
            ),
            "failed_builds": int(
                self.cache_build_metrics.extra.get("failed_builds", 0.0)
            ),
            "quarantined_tables": self.breaker.quarantined_tables(),
            "resilience": self.resilience.snapshot(),
            "efficacy": self.efficacy.summary(),
            "plan_cache": self.session.plan_cache_stats(),
            "result_cache": self.session.result_cache_stats(),
            "cache_ledger": self.session.cache_ledger.to_dict(),
            "scan_workers": self.session.scan_workers,
            "worker_backend": self.session.worker_backend,
        }
