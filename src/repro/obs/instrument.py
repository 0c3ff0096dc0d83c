"""Physical-plan instrumentation: wrap operators in tracing decorators.

``instrument_plan`` rewrites a compiled physical plan so every operator
node is wrapped in a :class:`TracedExec` that records a span (wall time
plus *inclusive* counter deltas — read/parse seconds, bytes, documents,
cache hits, row groups) around the node's ``execute_batch``. Because
instrumentation is a plan rewrite performed only when a query carries a
tracer, the untraced path executes the original operator objects with
zero added branches — the "near-zero overhead when disabled" contract is
structural, not measured.

Counter deltas are taken against a combined snapshot of the execution's
:class:`~repro.engine.metrics.QueryMetrics` and the live parser stats of
its :class:`~repro.engine.expressions.EvalContext` (parse time accrues
in the parsers until the session folds it into the metrics at query
end). Deltas are inclusive of children; ``EXPLAIN ANALYZE`` and the
reconciliation tests subtract child spans where they need self-time.
"""

from __future__ import annotations

from ..engine.physical import (
    AggregateExec,
    ExecState,
    FilterExec,
    HashJoinExec,
    LimitExec,
    PhysicalPlan,
    ProjectExec,
    ScanExec,
    SortExec,
)
from .trace import Tracer

__all__ = ["TracedExec", "instrument_plan", "stage_of", "COUNTER_KEYS"]

#: Inclusive per-span counters, in snapshot order.
COUNTER_KEYS = (
    "read_seconds",
    "parse_seconds",
    "parse_documents",
    "parse_bytes",
    "bytes_read",
    "rows_scanned",
    "row_groups_total",
    "row_groups_skipped",
    "cache_hits",
    "cache_misses",
    "shared_parse_hits",
    "duplicate_extractions_eliminated",
)

_STAGE_BY_TYPE = {
    ScanExec: "scan",
    FilterExec: "filter",
    ProjectExec: "project",
    AggregateExec: "aggregate",
    SortExec: "sort",
    LimitExec: "limit",
    HashJoinExec: "join",
}


def stage_of(node: PhysicalPlan) -> str:
    """The span name for an operator (subclass-aware: MaxsonScanExec is
    a scan; unknown operators fall back to their lowercased class name)."""
    for node_type, stage in _STAGE_BY_TYPE.items():
        if isinstance(node, node_type):
            return stage
    return type(node).__name__.replace("Exec", "").lower()


def counter_snapshot(state: ExecState) -> tuple[float, ...]:
    """Current inclusive counter values, parsers folded in live."""
    metrics = state.metrics
    context = state.context
    parse_seconds = metrics.parse_seconds
    parse_documents = metrics.parse_documents
    parse_bytes = metrics.parse_bytes
    for parser in (
        context.parser,
        context.projection_parser,
        context.xml_parser,
    ):
        stats = getattr(parser, "stats", None)
        if stats is not None:
            parse_seconds += stats.seconds
            parse_documents += stats.documents
            parse_bytes += stats.bytes_scanned
    return (
        metrics.read_seconds,
        parse_seconds,
        parse_documents,
        parse_bytes,
        metrics.bytes_read,
        metrics.rows_scanned,
        metrics.row_groups_total,
        metrics.row_groups_skipped,
        metrics.cache_hits,
        metrics.cache_misses,
        metrics.shared_parse_hits + state.context.shared_parse_hits(),
        metrics.duplicate_extractions_eliminated,
    )


class TracedExec(PhysicalPlan):
    """Transparent tracing decorator around one physical operator.

    Delegates plan-shape queries (children, labels, output names) to the
    wrapped node so ``describe`` output and downstream plan inspection
    are unchanged; only ``execute_batch`` differs, recording a span
    around the inner call. Child operators are wrapped too (the
    rewrite is bottom-up), so the inner node's own child calls produce
    correctly nested child spans.
    """

    def __init__(self, inner: PhysicalPlan, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    # -- plan-shape passthrough ----------------------------------------
    def children(self) -> tuple[PhysicalPlan, ...]:
        return self.inner.children()

    def output_names(self) -> set[str]:
        return self.inner.output_names()

    def describe(self, indent: int = 0) -> str:
        return self.inner.describe(indent)

    def _label(self) -> str:
        return self.inner._label()

    # -- traced execution ----------------------------------------------
    def execute_batch(self, state: ExecState):
        span = self.tracer.begin(stage_of(self.inner), label=self.inner._label())
        before = counter_snapshot(state)
        try:
            result = self.inner.execute_batch(state)
        except Exception as exc:
            span.attributes["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            after = counter_snapshot(state)
            for key, b, a in zip(COUNTER_KEYS, before, after):
                delta = a - b
                if delta:
                    span.attributes[key] = delta
            self.tracer.end(span)
        span.attributes["rows_out"] = result.length
        return result


def instrument_plan(plan: PhysicalPlan, tracer: Tracer) -> PhysicalPlan:
    """Wrap every node of ``plan`` (bottom-up) in :class:`TracedExec`.

    Run *after* plan modifiers so cache-aware scan replacements are
    what gets timed. Idempotence guard: an already-wrapped node is
    left alone, so double instrumentation cannot double-count.
    """
    if not tracer.enabled:
        return plan

    def wrap(node: PhysicalPlan) -> PhysicalPlan | None:
        if isinstance(node, TracedExec):
            return None
        return TracedExec(node, tracer)

    return plan.transform_nodes(wrap)


def unwrap_plan(plan: PhysicalPlan) -> PhysicalPlan:
    """The original operator at the top of a possibly-wrapped plan."""
    while isinstance(plan, TracedExec):
        plan = plan.inner
    return plan
