"""Morsel-driven split-level parallel execution.

The paper's Value Combiner (Algorithm 2) and predicate pushdown
(Algorithm 3) are both *file/split aligned*, which makes a file split the
natural morsel of intra-query parallelism (HyPer-style): each split runs
the whole scan→Sparser-prefilter→filter→project pipeline — including the
combiner's cache/raw stitching and its per-split degraded fallback — as
one work unit on a worker thread, and the coordinator merges the
per-split results **in split-index order**. Aggregations lower to
per-split partial aggregates merged the same way.

Determinism contract
--------------------
Results are bit-identical at any worker count, including 1, because
nothing about the computation depends on completion order:

* each worker gets a forked :class:`~repro.engine.physical.ExecState`
  (private parser, parse-once document cache, compiled-expression
  cache), so no shared mutable evaluation state exists;
* batches, metrics and partial aggregates are merged in split
  order, so concatenation order and float-sum association are fixed;
* group order and group representatives follow first occurrence across
  ordered splits — the same rows serial execution would pick;
* per-split fallback stays split-local (the combiner's morsel API), and
  whole-scan accounting (cache hits, breaker close, degraded counters)
  settles once on the coordinator, exactly as the serial combiner does.

``scan_workers == 1`` runs the identical morsel path inline, so "serial"
and "parallel" differ only in which thread executes a split.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..jsonlib.sparser import FilterCascade
from .batch import ColumnBatch
from .expressions import AggregateCall, Expression, Literal, transform
from .metrics import QueryMetrics
from .physical import (
    AggregateExec,
    ExecState,
    FilterExec,
    PhysicalPlan,
    ProjectExec,
    ScanExec,
    _Accumulator,
    _hashable,
    collect_aggregates,
)
from .rawfilter import SparserPrefilterExec

__all__ = ["MorselPipelineExec", "MorselAggregateExec", "parallelize_plan"]


def _fold_context_stats(metrics: QueryMetrics, context) -> None:
    """Fold a worker context's parser/sharing counters into its metrics.

    Mirrors what the session does for the coordinator context at the end
    of a query — workers must do it before returning because their
    contexts are not visible to the session.
    """
    metrics.shared_parse_hits += context.shared_parse_hits()
    metrics.doc_cache_evictions += context.doc_cache_evictions()
    for parser in (context.parser, context.projection_parser, context.xml_parser):
        stats = getattr(parser, "stats", None)
        if stats is None:
            continue
        metrics.parse_seconds += stats.seconds
        metrics.parse_documents += stats.documents
        metrics.parse_bytes += stats.bytes_scanned


def _scan_of(plan) -> ScanExec | None:
    """The scan feeding a morsel plan (pipeline or partial aggregate)."""
    if plan is None:
        return None
    pipeline = getattr(plan, "pipeline", plan)
    return getattr(pipeline, "scan", None)


def _reads_live_segments(plan) -> bool:
    """True when the plan scans ``system.*`` telemetry segments.

    Telemetry appends deliberately never bump the catalog version, so a
    process worker's warm snapshot would miss segments written since it
    was built and silently return stale rows. Such scans stay in this
    process (thread pool or inline), where the live file system is
    visible.
    """
    scan = _scan_of(plan)
    return scan is not None and scan.database.lower() == "system"


def _graft_worker_spans(state: ExecState, results: list) -> None:
    """Attach completed workers' span subtrees on an error path, so the
    coordinator tree stays well-formed (every recorded split appears
    exactly once) even when the query is about to fail."""
    if state.tracer is None:
        return
    for entry in results:
        if entry is None:
            continue
        metrics = entry[2]
        subtree = metrics.extra.pop("span_tree", None)
        if isinstance(subtree, dict):
            state.tracer.graft(subtree)


def _run_morsels(state: ExecState, units: list, fn, plan=None) -> list:
    """Run ``fn(worker_state, unit)`` for every unit; results in unit order.

    Dispatches to the session's worker pool when the state carries one
    and there is genuine parallelism to exploit; otherwise runs inline.
    Each invocation gets a forked state; the returned tuples carry the
    worker's metrics so the coordinator can merge them deterministically.

    ``plan`` describes the same work declaratively for the process
    backend (:mod:`repro.engine.procpool`), whose workers cannot
    run the ``fn`` closure and instead ship the pipeline itself.
    """

    def task(unit):
        worker = state.fork()
        worker.check_cancelled()
        split_span = None
        if state.tracer is not None:
            from ..obs.trace import Tracer, export_subtree

            tracer = Tracer(clock=time.perf_counter)
            worker.tracer = tracer
            split_span = tracer.begin(
                "split",
                backend="thread",
                worker=threading.current_thread().name,
            )
        started = time.perf_counter()
        try:
            payload, fallback = fn(worker, unit)
        finally:
            if split_span is not None:
                tracer.end(split_span)
        _fold_context_stats(worker.metrics, worker.context)
        if split_span is not None:
            worker.metrics.extra["span_tree"] = export_subtree(split_span)
        return payload, fallback, worker.metrics, time.perf_counter() - started

    pool = state.scan_pool
    if pool is not None and state.scan_workers > 1 and len(units) > 1:
        state.check_cancelled()
        run_in_processes = getattr(pool, "run_morsels", None)
        if run_in_processes is not None and plan is not None:
            if _reads_live_segments(plan):
                # Process snapshots cannot see live telemetry appends;
                # run system-table scans inline on the coordinator.
                return [task(unit) for unit in units]
            return run_in_processes(state, plan, units)
        futures = [pool.submit(task, unit) for unit in units]
        results = []
        first_error: BaseException | None = None
        for future in futures:
            if first_error is not None:
                # Free workers promptly: unstarted morsels are dropped;
                # running ones unwind at their next cancellation check.
                future.cancel()
                continue
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                first_error = exc
        if first_error is not None:
            # Drain stragglers so no morsel of this query is still
            # running when the error surfaces to the caller.
            for future in futures:
                if not future.cancel():
                    try:
                        future.result()
                    except BaseException:  # noqa: BLE001 - already failing
                        pass
            _graft_worker_spans(state, results)
            raise first_error
        return results
    return [task(unit) for unit in units]


def _settle(state: ExecState, scan: ScanExec, results: list, row_counts: list) -> int:
    """Coordinator-side merge: metrics in split order, per-split spans,
    then the scan's whole-scan accounting. Returns fallback split count."""
    fallback_splits = 0
    for index, (_, fallback, metrics, seconds) in enumerate(results):
        # The worker's exported span subtree is transport, not a counter:
        # pop it before the merge (merge would try to add dicts).
        subtree = metrics.extra.pop("span_tree", None)
        state.metrics.merge(metrics)
        if fallback:
            fallback_splits += 1
        if state.tracer is not None:
            if isinstance(subtree, dict):
                span = state.tracer.graft(subtree)
            else:
                # No worker subtree shipped (legacy worker): synthesize
                # the split span coordinator-side as before.
                span = state.tracer.begin("split")
                state.tracer.end(span)
            span.attributes["index"] = index
            span.attributes["rows"] = row_counts[index]
            span.attributes["fallback"] = bool(fallback)
            span.attributes["seconds"] = seconds
            # Process-backend transport accounting, when present.
            shm_bytes = metrics.extra.get("shm_bytes")
            if shm_bytes is not None:
                span.attributes["shm_bytes"] = shm_bytes
            dispatch = metrics.extra.get("proc_dispatch_seconds")
            if dispatch is not None:
                span.attributes["dispatch_seconds"] = dispatch
    scan.finish_morsels(state, fallback_splits)
    return fallback_splits


def _concat_batches(batches: list[ColumnBatch]) -> ColumnBatch:
    """Concatenate per-split batches in order, preserving aliasing:
    names that share one list in every input share one list in the
    output (the qualified-alias invariant scans rely on)."""
    first = batches[0]
    names = list(first.names)
    merged_by_identity: dict[tuple, list] = {}
    columns: dict[str, list] = {}
    for name in names:
        identity = tuple(id(batch.columns[name]) for batch in batches)
        merged = merged_by_identity.get(identity)
        if merged is None:
            merged = []
            for batch in batches:
                merged.extend(batch.columns[name])
            merged_by_identity[identity] = merged
        columns[name] = merged
    return ColumnBatch(names, columns, sum(batch.length for batch in batches))


@dataclass
class MorselPipelineExec(PhysicalPlan):
    """Scan→prefilter→filter→project, executed one split at a time.

    The stages are *absorbed* operators from the serial plan; attribute
    names deliberately avoid ``child`` so later plan rewrites (and span
    instrumentation, which recurses through ``child``/``left``/``right``)
    treat the pipeline as one opaque operator.
    """

    scan: ScanExec
    prefilter: SparserPrefilterExec | None = None
    condition: Expression | None = None
    projections: list[Expression] | None = None

    def children(self) -> tuple[PhysicalPlan, ...]:
        # For describe(): show the prefilter (which still points at the
        # scan) when present, so EXPLAIN keeps the familiar subtree.
        if self.prefilter is not None:
            return (self.prefilter,)
        return (self.scan,)

    def output_names(self) -> set[str]:
        if self.projections is not None:
            return {e.output_name() for e in self.projections}
        return self.scan.output_names()

    def _label(self) -> str:
        stages = []
        if self.condition is not None:
            stages.append(f"Filter {self.condition.sql()}")
        if self.projections is not None:
            stages.append(
                f"Project [{', '.join(e.sql() for e in self.projections)}]"
            )
        inner = f" [{'; '.join(stages)}]" if stages else ""
        return f"MorselPipeline{inner}"

    # -- per-split stages (worker side) --------------------------------
    def _apply_prefilter_batch(self, worker: ExecState, batch: ColumnBatch):
        """Per-split Sparser prefilter with a worker-local cascade clone.

        ``FilterCascade.calibrate`` reorders its filter list and
        ``matches`` mutates stats, so the plan's cascade is a template:
        each split calibrates its own copy on its own leading sample —
        deterministic because it only depends on the split's rows.
        """
        prefilter = self.prefilter
        cascade = FilterCascade(list(prefilter.cascade.filters))
        started = time.perf_counter()
        if prefilter.column in batch.columns:
            texts = batch.column(prefilter.column)
        else:
            texts = [None] * batch.length
        sample = [
            text
            for text in texts[: prefilter.calibration_sample]
            if isinstance(text, str)
        ]
        cascade.calibrate(sample)
        keep = [
            i
            for i, text in enumerate(texts)
            if not isinstance(text, str) or cascade.matches(text)
        ]
        extra = worker.metrics.extra
        extra["sparser_seconds"] = (
            extra.get("sparser_seconds", 0.0) + time.perf_counter() - started
        )
        extra["sparser_rows_dropped"] = (
            extra.get("sparser_rows_dropped", 0.0) + batch.length - len(keep)
        )
        counts = (batch.length, len(keep))
        if len(keep) == batch.length:
            return batch, counts
        return batch.take(keep), counts

    def _process_batch(self, worker: ExecState, unit):
        batch, fallback = self.scan.run_morsel(worker, unit)
        worker.check_cancelled()
        prefilter_counts = None
        if self.prefilter is not None:
            batch, prefilter_counts = self._apply_prefilter_batch(worker, batch)
        if self.condition is not None:
            values = (
                worker.batch_compiler().compile(self.condition).evaluate(batch)
            )
            keep = [i for i, value in enumerate(values) if value is True]
            if len(keep) != batch.length:
                batch = batch.take(keep)
        if self.projections is not None:
            compiler = worker.batch_compiler()
            names: list[str] = []
            columns: dict[str, list] = {}
            for expr in self.projections:
                name = expr.output_name()
                if name not in columns:
                    names.append(name)
                columns[name] = compiler.compile(expr).evaluate(batch)
            batch = ColumnBatch(names, columns, batch.length)
        return (batch, prefilter_counts), fallback

    def _fold_prefilter(self, counts: list) -> None:
        """Deterministic whole-scan prefilter counters (coordinator)."""
        if self.prefilter is None:
            return
        pairs = [pair for pair in counts if pair is not None]
        self.prefilter.rows_in = sum(pair[0] for pair in pairs)
        self.prefilter.rows_out = sum(pair[1] for pair in pairs)

    def _output_name_list(self) -> list[str]:
        if self.projections is not None:
            return list(
                dict.fromkeys(e.output_name() for e in self.projections)
            )
        return self.scan.morsel_output_names()

    def _empty_batch(self) -> ColumnBatch:
        names = self._output_name_list()
        return ColumnBatch(names, {name: [] for name in names}, 0)

    # -- coordinator entry points --------------------------------------
    def execute_batch(self, state: ExecState) -> ColumnBatch:
        units = self.scan.morsel_units(state)
        results = _run_morsels(state, units, self._process_batch, plan=self)
        payloads = [payload for payload, _, _, _ in results]
        _settle(state, self.scan, results, [p[0].length for p in payloads])
        self._fold_prefilter([p[1] for p in payloads])
        batches = [p[0] for p in payloads]
        if not batches:
            return self._empty_batch()
        if len(batches) == 1:
            return batches[0]
        return _concat_batches(batches)


@dataclass
class MorselAggregateExec(PhysicalPlan):
    """Per-split partial aggregation with an ordered final merge.

    Each worker runs the pipeline stages over its split and builds
    group→accumulator partials; the coordinator merges partials in
    split-index order (:meth:`_Accumulator.merge`), so GROUP BY
    parallelizes without serializing rows at the sink and without
    perturbing float sums or group order.
    """

    pipeline: MorselPipelineExec
    group_keys: list[Expression]
    output: list[Expression]

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.pipeline,)

    def output_names(self) -> set[str]:
        return {e.output_name() for e in self.output}

    def _label(self) -> str:
        keys = ", ".join(e.sql() for e in self.group_keys) or "<global>"
        return f"MorselAggregate keys=[{keys}]"

    def _partials(self, worker: ExecState, unit, aggregates):
        payload, fallback = self.pipeline._process_batch(worker, unit)
        batch, prefilter_counts = payload
        groups: dict[tuple, list[_Accumulator]] = {}
        representatives: dict[tuple, dict] = {}
        compiler = worker.batch_compiler()
        key_columns = [
            compiler.compile(k).evaluate(batch) for k in self.group_keys
        ]
        argument_columns = [
            None
            if agg.argument is None
            else compiler.compile(agg.argument).evaluate(batch)
            for agg in aggregates
        ]
        for i in range(batch.length):
            key = tuple(_hashable(column[i]) for column in key_columns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = [
                    _Accumulator(a.func, a.distinct) for a in aggregates
                ]
                representatives[key] = batch.row(i)
            for agg, argument, acc in zip(
                aggregates, argument_columns, accumulators
            ):
                if argument is None:
                    acc.count += 1  # count(*) counts rows, NULLs included
                else:
                    acc.add(argument[i])
        return (groups, representatives, batch.length, prefilter_counts), fallback

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        aggregates = collect_aggregates(self.output)
        units = self.pipeline.scan.morsel_units(state)
        results = _run_morsels(
            state,
            units,
            lambda worker, unit: self._partials(worker, unit, aggregates),
            plan=self,
        )
        payloads = [payload for payload, _, _, _ in results]
        _settle(state, self.pipeline.scan, results, [p[2] for p in payloads])
        self.pipeline._fold_prefilter([p[3] for p in payloads])

        merged: dict[tuple, list[_Accumulator]] = {}
        representatives: dict[tuple, dict] = {}
        for groups, reps, _, _ in payloads:
            for key, accumulators in groups.items():
                mine = merged.get(key)
                if mine is None:
                    # First occurrence across ordered splits: both group
                    # order and the representative row match what serial
                    # execution over the concatenated table would pick.
                    merged[key] = accumulators
                    representatives[key] = reps[key]
                else:
                    for acc, other in zip(mine, accumulators):
                        acc.merge(other)

        if not merged and not self.group_keys:
            # Global aggregate over zero rows still yields one row.
            merged[()] = [_Accumulator(a.func, a.distinct) for a in aggregates]
            representatives[()] = {}

        context = state.context
        names = [e.output_name() for e in self.output]
        out: list[dict] = []
        for key, accumulators in merged.items():
            results_map = {
                agg: acc.result() for agg, acc in zip(aggregates, accumulators)
            }
            representative = representatives[key]

            def _splice(node: Expression) -> Expression | None:
                if isinstance(node, AggregateCall):
                    return Literal(results_map[node])
                return None

            row_out: dict = {}
            for name, expr in zip(names, self.output):
                spliced = transform(expr, _splice)
                row_out[name] = spliced.evaluate(representative, context)
            out.append(row_out)
        return ColumnBatch.from_rows(
            out, list(dict.fromkeys(names)) if not out else None
        )


def parallelize_plan(plan: PhysicalPlan) -> PhysicalPlan:
    """Rewrite a physical plan onto the morsel execution path.

    Bottom-up absorption: every scan becomes a bare pipeline; a
    Sparser prefilter, a filter and a projection directly above a
    pipeline fold into it (in that stage order); an aggregation over a
    projection-less pipeline becomes a partial-aggregate operator.
    Anything else — sorts, limits, joins, filters over aggregates —
    keeps its serial operator and simply pulls from morselized inputs.
    """

    def visit(node: PhysicalPlan) -> PhysicalPlan | None:
        if isinstance(node, ScanExec):
            return MorselPipelineExec(scan=node)
        if isinstance(node, SparserPrefilterExec):
            child = node.child
            if (
                isinstance(child, MorselPipelineExec)
                and child.prefilter is None
                and child.condition is None
                and child.projections is None
            ):
                # Re-point the absorbed prefilter at the real scan (the
                # bottom-up rewrite made its child the pipeline itself).
                node.child = child.scan
                child.prefilter = node
                return child
            return None
        if isinstance(node, FilterExec):
            child = node.child
            if (
                isinstance(child, MorselPipelineExec)
                and child.condition is None
                and child.projections is None
            ):
                child.condition = node.condition
                return child
            return None
        if isinstance(node, ProjectExec):
            child = node.child
            if (
                isinstance(child, MorselPipelineExec)
                and child.projections is None
            ):
                child.projections = node.expressions
                return child
            return None
        if isinstance(node, AggregateExec):
            child = node.child
            if (
                isinstance(child, MorselPipelineExec)
                and child.projections is None
            ):
                return MorselAggregateExec(
                    pipeline=child,
                    group_keys=node.group_keys,
                    output=node.output,
                )
            return None
        return None

    return plan.transform_nodes(visit)
