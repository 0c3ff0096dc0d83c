"""A small row-at-a-time reference evaluator for differential tests.

:func:`reference_rows` answers a query by interpreting the planner's own
physical plan (``session.compile(sql).physical``: before plan modifiers
and before morsel parallelization, so no Maxson, Sparser or morsel
nodes) over lists of row dicts with the scalar ``Expression.evaluate``
kernels. It shares nothing with the engine's execution machinery —
column batches, the batch compiler, CSE, the Value Combiner, morsels or
shared-memory frames — so the engine's answers can be checked against it.

Scans read each split *without* the scan's SARG: an engine answer that
lost a qualifying row to row-group skipping differs from this one.
"""

from __future__ import annotations

import json

from repro.engine.expressions import (
    AggregateCall,
    EvalContext,
    Literal,
    transform,
    walk,
)
from repro.engine.physical import (
    AggregateExec,
    FilterExec,
    HashJoinExec,
    LimitExec,
    ProjectExec,
    ScanExec,
    SortExec,
)
from repro.storage.readers import split_reader


def reference_rows(session, sql: str) -> list[dict]:
    """The rows of ``sql`` over ``session``'s catalog, in output order."""
    plan = session.compile(sql).physical
    return _run(plan, session.catalog, EvalContext())


def _run(node, catalog, context) -> list[dict]:
    if type(node) is ScanExec:
        rows = []
        for path in catalog.table_files(node.database, node.table):
            result = split_reader(catalog.fs, path, columns=node.columns).read()
            for values in zip(*(result.columns[c] for c in node.columns)):
                row = dict(zip(node.columns, values))
                if node.alias:
                    for column, value in zip(node.columns, values):
                        row[f"{node.alias}.{column}"] = value
                rows.append(row)
        return rows
    if type(node) is FilterExec:
        rows = _run(node.child, catalog, context)
        return [r for r in rows if node.condition.evaluate(r, context) is True]
    if type(node) is ProjectExec:
        rows = _run(node.child, catalog, context)
        return [
            {e.output_name(): e.evaluate(row, context) for e in node.expressions}
            for row in rows
        ]
    if type(node) is SortExec:
        rows = _run(node.child, catalog, context)
        for key in reversed(node.keys):  # stable sorts, last key first
            rows.sort(
                key=lambda row: _order(key.expression.evaluate(row, context)),
                reverse=not key.ascending,
            )
        return rows
    if type(node) is LimitExec:
        return _run(node.child, catalog, context)[: node.count]
    if type(node) is AggregateExec:
        return _aggregate(node, _run(node.child, catalog, context), context)
    if type(node) is HashJoinExec:
        def keyed(rows, keys):
            return [([_key(k.evaluate(r, context)) for k in keys], r) for r in rows]

        right = keyed(_run(node.right, catalog, context), node.right_keys)
        out = []
        for lkey, lrow in keyed(_run(node.left, catalog, context), node.left_keys):
            for rkey, rrow in right:
                if None in lkey or lkey != rkey:  # NULL keys never join
                    continue
                merged = {**rrow, **lrow}
                residual = node.residual
                if residual is None or residual.evaluate(merged, context) is True:
                    out.append(merged)
        return out
    raise TypeError(f"reference evaluator cannot run {type(node).__name__}")


def _aggregate(node, rows: list[dict], context) -> list[dict]:
    calls = []
    for expr in node.output:
        for n in walk(expr):
            if isinstance(n, AggregateCall) and n not in calls:
                calls.append(n)
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(_key(k.evaluate(row, context)) for k in node.group_keys)
        groups.setdefault(key, []).append(row)
    if not groups and not node.group_keys:
        groups[()] = []  # a global aggregate over no rows is one row
    out = []
    for members in groups.values():
        results = {call: _fold(call, members, context) for call in calls}

        def splice(n, results=results):
            return Literal(results[n]) if isinstance(n, AggregateCall) else None

        first = members[0] if members else {}
        out.append(
            {
                e.output_name(): transform(e, splice).evaluate(first, context)
                for e in node.output
            }
        )
    return out


def _fold(call, rows: list[dict], context) -> object:
    if call.argument is None:  # count(*)
        return len(rows)
    values = [call.argument.evaluate(row, context) for row in rows]
    values = [v for v in values if v is not None]
    if call.distinct:
        values = list(dict.fromkeys(values))
    if call.func == "count":
        return len(values)
    if not values:
        return None
    if call.func in ("sum", "avg"):
        total = 0
        for value in values:  # left to right, like a running sum
            total += _number(value)
        return total if call.func == "sum" else total / len(values)
    pick = min if call.func == "min" else max
    return pick(values, key=_order)  # first of equals, like a running min/max


def _number(value: object) -> int | float:
    if isinstance(value, (bool, int, float)):
        return int(value) if isinstance(value, bool) else value
    try:
        return int(value)
    except ValueError:
        return float(value)


def _order(value: object) -> tuple:
    """NULLs first, then booleans, numbers and strings."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, (bool, int, float)):
        return (1 if isinstance(value, bool) else 2, float(value), "")
    return (3, 0.0, str(value))


def _key(value: object) -> object:
    """A hashable, comparable stand-in for a grouping or join key."""
    return json.dumps(value) if isinstance(value, (list, dict)) else value
