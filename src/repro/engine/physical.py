"""Physical operators.

Operators are pull-at-once: ``execute_batch(ExecState)`` returns one
:class:`~repro.engine.batch.ColumnBatch` holding the operator's whole
output. The engine's data volumes are single-node scale, so
whole-operator materialisation keeps the code straightforward while still
letting us attribute time precisely (scans time their own I/O; JSON parse
time accrues inside the shared :class:`EvalContext`'s parser stats).

``ScanExec`` is deliberately *replaceable*: Maxson's plan rewriter swaps it
for a cache-aware subclass (``MaxsonScanExec`` in
:mod:`repro.core.combiner`) that runs the dual-reader Value Combiner. The
rest of the plan never notices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..storage.readers import split_reader
from ..storage.sargs import Sarg
from .batch import BatchCompiler, ColumnBatch, ExpressionAnalysis
from .catalog import Catalog
from .errors import ExecutionError
from .expressions import (
    AggregateCall,
    EvalContext,
    Expression,
    Literal,
    transform,
    walk,
)
from .logical import SortKey
from .metrics import QueryMetrics

__all__ = [
    "ExecState",
    "PhysicalPlan",
    "ScanExec",
    "FilterExec",
    "ProjectExec",
    "AggregateExec",
    "SortExec",
    "LimitExec",
    "HashJoinExec",
]


@dataclass
class ExecState:
    """Everything shared across the operators of one query execution."""

    catalog: Catalog
    context: EvalContext
    metrics: QueryMetrics = field(default_factory=QueryMetrics)
    compiler: BatchCompiler | None = None
    #: Optional :class:`repro.obs.trace.Tracer` for this execution. None
    #: on the untraced path; operators that emit interior spans (e.g. the
    #: Maxson combiner) must guard on ``state.tracer is not None``.
    tracer: object | None = None
    #: Factory for worker-local :class:`EvalContext`s (morsel execution).
    #: ``None`` falls back to cloning the coordinator context's parser
    #: classes.
    context_factory: object | None = None
    #: Degree of split-level parallelism for morsel scans (1 = inline).
    scan_workers: int = 1
    #: Shared ``ThreadPoolExecutor`` supplied by the session when
    #: ``scan_workers > 1``; ``None`` runs morsels inline.
    scan_pool: object | None = None
    #: Optional :class:`repro.engine.cancel.CancelToken` shared by the
    #: coordinator and every morsel worker. Checked at split/batch
    #: boundaries via :meth:`check_cancelled`.
    cancel_token: object | None = None
    #: Immutable per-expression analysis memo (extraction counts) shared
    #: read-only between the coordinator and every morsel fork. Compiled
    #: expressions themselves stay fork-private — their per-batch result
    #: caches are mutable — but the structural analysis never changes,
    #: so forks skip re-walking each expression tree.
    expression_analysis: ExpressionAnalysis = field(
        default_factory=ExpressionAnalysis
    )

    def check_cancelled(self) -> None:
        """Raise ``QueryCancelledError``/``DeadlineExceededError`` if due."""
        token = self.cancel_token
        if token is not None:
            token.check()

    def fork(self) -> "ExecState":
        """A worker-local state for one morsel.

        Shares the catalog (and through it the file system) but gets a
        private context/metrics/compiler, so parser stats, parse-once
        document sharing and compiled-expression caches stay
        split-local. Forks drop the coordinator's tracer — when a split
        is traced, the morsel runner attaches a worker-local tracer to
        the fork and grafts its subtree back afterwards. Workers never
        re-fork.
        """
        if self.context_factory is not None:
            context = self.context_factory()  # type: ignore[operator]
        else:
            context = EvalContext(parser=type(self.context.parser)())
            if self.context.projection_parser is not None:
                context.projection_parser = type(
                    self.context.projection_parser
                )()
        return ExecState(
            catalog=self.catalog,
            context=context,
            context_factory=self.context_factory,
            cancel_token=self.cancel_token,
            expression_analysis=self.expression_analysis,
        )

    def batch_compiler(self) -> BatchCompiler:
        """The query-wide expression compiler (created lazily).

        One compiler per execution is what makes common-subexpression
        elimination work across operators: identical expression subtrees
        anywhere in the plan compile to the same node.
        """
        if self.compiler is None:
            self.compiler = BatchCompiler(
                self.context, self.metrics, analysis=self.expression_analysis
            )
        return self.compiler


class PhysicalPlan:
    """Base class for physical operators."""

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        """Run this operator (and its inputs) to one column batch.

        Every operator overrides it. Expressions the batch compiler
        cannot vectorize fall back to their scalar ``evaluate`` kernels
        inside the compiled expression (see :mod:`repro.engine.batch`).
        """
        raise NotImplementedError

    def children(self) -> tuple["PhysicalPlan", ...]:
        return ()

    def output_names(self) -> set[str]:
        """Row-environment keys this operator produces."""
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self._label()}"]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__

    def transform_nodes(self, fn) -> "PhysicalPlan":
        """Bottom-up plan rewrite; ``fn`` may return a replacement node."""
        for attr in ("child", "left", "right"):
            child = getattr(self, attr, None)
            if isinstance(child, PhysicalPlan):
                setattr(self, attr, child.transform_nodes(fn))
        replacement = fn(self)
        return replacement if replacement is not None else self


@dataclass
class ScanExec(PhysicalPlan):
    """Table scan with column pruning and optional SARG pushdown.

    Produces row dicts keyed by bare column names and, when the scan is
    aliased, also by ``alias.column`` so join conditions can disambiguate.
    """

    database: str
    table: str
    alias: str | None
    columns: list[str]
    sarg: Sarg | None = None

    def output_names(self) -> set[str]:
        names = set(self.columns)
        if self.alias:
            names |= {f"{self.alias}.{c}" for c in self.columns}
        return names

    def _label(self) -> str:
        sarg = f" sarg={self.sarg!r}" if self.sarg else ""
        return (
            f"Scan {self.database}.{self.table} cols={self.columns}{sarg}"
        )

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        started = time.perf_counter()
        columns: dict[str, list] = {name: [] for name in self.columns}
        for path in state.catalog.table_files(self.database, self.table):
            state.check_cancelled()
            reader = split_reader(
                state.catalog.fs, path, columns=self.columns, sarg=self.sarg
            )
            result = reader.read()
            state.metrics.bytes_read += result.bytes_read
            state.metrics.row_groups_total += result.row_groups_total
            state.metrics.row_groups_skipped += result.row_groups_skipped
            for name in self.columns:
                columns[name].extend(result.columns[name])
        length = len(columns[self.columns[0]]) if self.columns else 0
        names = list(self.columns)
        if self.alias:
            # Qualified names alias the same lists — no copies.
            for name in self.columns:
                qualified = f"{self.alias}.{name}"
                columns[qualified] = columns[name]
                names.append(qualified)
        state.metrics.rows_scanned += length
        state.metrics.read_seconds += time.perf_counter() - started
        return ColumnBatch(names, columns, length)

    # -- morsel API (split-level parallel execution) -------------------
    def morsel_units(self, state: ExecState) -> list:
        """Opaque work units, one per file split, in split-index order.

        Units are interpreted only by the class that produced them
        (:meth:`run_morsel`); subclasses may attach companion files.
        Called on the coordinator thread.
        """
        return list(state.catalog.table_files(self.database, self.table))

    def morsel_output_names(self) -> list[str]:
        """Deterministic column order of a morsel batch (bare names
        first, then alias-qualified)."""
        names = list(self.columns)
        if self.alias:
            names.extend(f"{self.alias}.{name}" for name in self.columns)
        return names

    def run_morsel(self, state: ExecState, unit) -> tuple[ColumnBatch, bool]:
        """Scan one unit into a batch on a (possibly worker) thread.

        Returns ``(batch, used_fallback)``; the flag is always False for
        plain scans — cache-aware subclasses use it to report per-split
        degraded fallback.
        """
        state.check_cancelled()
        started = time.perf_counter()
        reader = split_reader(
            state.catalog.fs, unit, columns=self.columns, sarg=self.sarg
        )
        result = reader.read()
        state.metrics.bytes_read += result.bytes_read
        state.metrics.row_groups_total += result.row_groups_total
        state.metrics.row_groups_skipped += result.row_groups_skipped
        columns = {name: result.columns[name] for name in self.columns}
        length = result.rows_read
        names = list(self.columns)
        if self.alias:
            for name in self.columns:
                qualified = f"{self.alias}.{name}"
                columns[qualified] = columns[name]
                names.append(qualified)
        state.metrics.rows_scanned += length
        state.metrics.read_seconds += time.perf_counter() - started
        return ColumnBatch(names, columns, length), False

    def finish_morsels(self, state: ExecState, fallback_splits: int) -> None:
        """Coordinator hook after all morsels merged (no-op for plain
        scans; cache-aware subclasses settle whole-scan accounting)."""


@dataclass
class FilterExec(PhysicalPlan):
    """Keep rows where the condition evaluates to SQL TRUE."""

    child: PhysicalPlan
    condition: Expression

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def output_names(self) -> set[str]:
        return self.child.output_names()

    def _label(self) -> str:
        return f"Filter {self.condition.sql()}"

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        batch = self.child.execute_batch(state)
        values = state.batch_compiler().compile(self.condition).evaluate(batch)
        indices = [i for i, value in enumerate(values) if value is True]
        if len(indices) == batch.length:
            # Passing the child batch through unchanged lets downstream
            # operators reuse per-batch compiled results (CSE across
            # filter and projection).
            return batch
        return batch.take(indices)


@dataclass
class ProjectExec(PhysicalPlan):
    """Evaluate the SELECT list; output keys are the expressions' names."""

    child: PhysicalPlan
    expressions: list[Expression]

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def output_names(self) -> set[str]:
        return {e.output_name() for e in self.expressions}

    def _label(self) -> str:
        return f"Project [{', '.join(e.sql() for e in self.expressions)}]"

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        batch = self.child.execute_batch(state)
        compiler = state.batch_compiler()
        names: list[str] = []
        columns: dict[str, list] = {}
        for expr in self.expressions:
            name = expr.output_name()
            if name not in columns:
                names.append(name)
            # Duplicate output names keep the last expression's values,
            # as a dict of output names would.
            columns[name] = compiler.compile(expr).evaluate(batch)
        return ColumnBatch(names, columns, batch.length)


def _sort_token(value: object) -> tuple:
    """Total-order key: NULLs first, then by type family, then value."""
    if value is None:
        return (0, "", 0.0)
    if isinstance(value, bool):
        return (1, "", float(value))
    if isinstance(value, (int, float)):
        return (2, "", float(value))
    return (3, str(value), 0.0)


@dataclass
class SortExec(PhysicalPlan):
    """ORDER BY with NULLS FIRST semantics (Hive default for ASC)."""

    child: PhysicalPlan
    keys: list[SortKey]

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def output_names(self) -> set[str]:
        return self.child.output_names()

    def _label(self) -> str:
        keys = ", ".join(
            f"{k.expression.sql()} {'ASC' if k.ascending else 'DESC'}"
            for k in self.keys
        )
        return f"Sort [{keys}]"

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        batch = self.child.execute_batch(state)
        compiler = state.batch_compiler()
        indices = list(range(batch.length))
        # Stable multi-key sort over row indices, keys applied
        # right-to-left; key columns are computed once per key instead
        # of once per comparison row.
        for key in reversed(self.keys):
            values = compiler.compile(key.expression).evaluate(batch)
            indices.sort(
                key=lambda i: _sort_token(values[i]),
                reverse=not key.ascending,
            )
        if indices == list(range(batch.length)):
            return batch
        return batch.take(indices)


@dataclass
class LimitExec(PhysicalPlan):
    """LIMIT n."""

    child: PhysicalPlan
    count: int

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def output_names(self) -> set[str]:
        return self.child.output_names()

    def _label(self) -> str:
        return f"Limit {self.count}"

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        batch = self.child.execute_batch(state)
        if batch.length <= self.count:
            return batch
        return batch.take(range(self.count))


class _Accumulator:
    """Streaming accumulator for one AggregateCall.

    Also serves as the *partial aggregate* of morsel-parallel execution:
    per-split accumulators are combined with :meth:`merge` in split-index
    order, which keeps float sums bit-identical at any worker count.
    """

    __slots__ = ("func", "distinct", "count", "total", "minimum", "maximum", "seen")

    def __init__(self, func: str, distinct: bool) -> None:
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total: float | int = 0
        self.minimum: object = None
        self.maximum: object = None
        # Insertion-ordered so that merging partials replays distinct
        # values deterministically (a set would iterate by hash).
        self.seen: dict | None = {} if distinct else None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen[value] = None
        self.count += 1
        if self.func == "sum" or self.func == "avg":
            number = _to_number(value)
            if number is None:
                raise ExecutionError(
                    f"{self.func}() over non-numeric value {value!r}"
                )
            self.total += number
        elif self.func == "min":
            if self.minimum is None or _sort_token(value) < _sort_token(self.minimum):
                self.minimum = value
        elif self.func == "max":
            if self.maximum is None or _sort_token(value) > _sort_token(self.maximum):
                self.maximum = value

    def merge(self, other: "_Accumulator") -> None:
        """Fold another split's partial into this one.

        Distinct partials replay the other side's values through
        :meth:`add` (dedup against this side's ``seen``); plain partials
        combine counters directly. Merge order is the caller's contract —
        the morsel scheduler always merges in split-index order so sums
        stay deterministic.
        """
        if self.seen is not None:
            for value in other.seen:  # type: ignore[union-attr]
                self.add(value)
            return
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None
            or _sort_token(other.minimum) < _sort_token(self.minimum)
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None
            or _sort_token(other.maximum) > _sort_token(self.maximum)
        ):
            self.maximum = other.maximum

    def result(self) -> object:
        if self.func == "count":
            return self.count
        if self.count == 0:
            return None
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return self.total / self.count
        if self.func == "min":
            return self.minimum
        return self.maximum


def _to_number(value: object) -> int | float | None:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return None
    return None


def collect_aggregates(output: list[Expression]) -> list[AggregateCall]:
    """The distinct AggregateCalls inside ``output``, in walk order.

    Shared by serial aggregation and the morsel partial-aggregate path so
    both index accumulators identically.
    """
    aggregates: list[AggregateCall] = []
    for expr in output:
        for node in walk(expr):
            if isinstance(node, AggregateCall) and node not in aggregates:
                aggregates.append(node)
    return aggregates


@dataclass
class AggregateExec(PhysicalPlan):
    """Hash aggregation over the group keys.

    Output expressions may mix group keys, aggregates and arithmetic over
    both; aggregates inside each output expression are computed first and
    spliced in as literals before the outer expression evaluates.
    """

    child: PhysicalPlan
    group_keys: list[Expression]
    output: list[Expression]

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def output_names(self) -> set[str]:
        return {e.output_name() for e in self.output}

    def _label(self) -> str:
        keys = ", ".join(e.sql() for e in self.group_keys) or "<global>"
        return f"Aggregate keys=[{keys}]"

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        batch = self.child.execute_batch(state)
        context = state.context
        compiler = state.batch_compiler()
        aggregates = collect_aggregates(self.output)

        # Group keys and aggregate arguments evaluate as whole columns —
        # this is where repeated extractions share parses — then rows
        # stream through the per-group accumulators.
        key_columns = [
            compiler.compile(k).evaluate(batch) for k in self.group_keys
        ]
        argument_columns = [
            None
            if agg.argument is None
            else compiler.compile(agg.argument).evaluate(batch)
            for agg in aggregates
        ]

        groups: dict[tuple, list[_Accumulator]] = {}
        sample_index: dict[tuple, int | None] = {}
        for i in range(batch.length):
            key = tuple(_hashable(column[i]) for column in key_columns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = [
                    _Accumulator(a.func, a.distinct) for a in aggregates
                ]
                sample_index[key] = i
            for agg, argument, acc in zip(
                aggregates, argument_columns, accumulators
            ):
                if argument is None:
                    acc.count += 1  # count(*) counts rows, NULLs included
                else:
                    acc.add(argument[i])

        if not groups and not self.group_keys:
            # Global aggregate over zero rows still yields one row.
            groups[()] = [_Accumulator(a.func, a.distinct) for a in aggregates]
            sample_index[()] = None

        out: list[dict] = []
        names = [e.output_name() for e in self.output]
        for key, accumulators in groups.items():
            results = {
                agg: acc.result() for agg, acc in zip(aggregates, accumulators)
            }
            index = sample_index[key]
            representative = {} if index is None else batch.row(index)

            def _splice(node: Expression) -> Expression | None:
                if isinstance(node, AggregateCall):
                    return Literal(results[node])
                return None

            row_out: dict = {}
            for name, expr in zip(names, self.output):
                spliced = transform(expr, _splice)
                row_out[name] = spliced.evaluate(representative, context)
            out.append(row_out)
        return ColumnBatch.from_rows(
            out, list(dict.fromkeys(names)) if not out else None
        )


def _hashable(value: object) -> object:
    if isinstance(value, (list, dict)):
        from ..jsonlib.jackson import dumps

        return dumps(value)
    return value


@dataclass
class HashJoinExec(PhysicalPlan):
    """Inner equi-join: hash build on the right, probe from the left.

    ``left_keys``/``right_keys`` are the equi-join key expressions; any
    residual (non-equi) conjuncts are evaluated on the merged row.
    """

    left: PhysicalPlan
    right: PhysicalPlan
    left_keys: list[Expression]
    right_keys: list[Expression]
    residual: Expression | None = None

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def output_names(self) -> set[str]:
        return self.left.output_names() | self.right.output_names()

    def _label(self) -> str:
        pairs = ", ".join(
            f"{l.sql()}={r.sql()}" for l, r in zip(self.left_keys, self.right_keys)
        )
        residual = f" residual={self.residual.sql()}" if self.residual else ""
        return f"HashJoin [{pairs}]{residual}"

    def execute_batch(self, state: ExecState) -> ColumnBatch:
        left_batch = self.left.execute_batch(state)
        right_batch = self.right.execute_batch(state)
        compiler = state.batch_compiler()
        right_columns = [
            compiler.compile(k).evaluate(right_batch) for k in self.right_keys
        ]
        table: dict[tuple, list[int]] = {}
        for i in range(right_batch.length):
            key = tuple(_hashable(column[i]) for column in right_columns)
            if any(part is None for part in key):
                continue  # NULL keys never join
            table.setdefault(key, []).append(i)
        left_columns = [
            compiler.compile(k).evaluate(left_batch) for k in self.left_keys
        ]
        # Probe to index pairs first, then gather whole columns — the
        # joined batch is never materialised as per-row dicts.
        left_index: list[int] = []
        right_index: list[int] = []
        for i in range(left_batch.length):
            key = tuple(_hashable(column[i]) for column in left_columns)
            if any(part is None for part in key):
                continue
            matches = table.get(key)
            if not matches:
                continue
            for j in matches:
                left_index.append(i)
                right_index.append(j)
        left_taken = left_batch.take(left_index)
        right_taken = right_batch.take(right_index)
        # A joined row is {**right_row, **left_row}:
        # every left column, plus right columns not shadowed by a left name.
        names = list(left_taken.names)
        columns = dict(left_taken.columns)
        for name in right_taken.names:
            if name not in columns:
                names.append(name)
                columns[name] = right_taken.columns[name]
        joined = ColumnBatch(names, columns, len(left_index))
        if self.residual is not None and joined.length:
            values = compiler.compile(self.residual).evaluate(joined)
            keep = [i for i, value in enumerate(values) if value is True]
            if len(keep) != joined.length:
                joined = joined.take(keep)
        return joined
