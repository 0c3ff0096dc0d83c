"""Unit tests for physical-operator internals (sort order, accumulators,
hashable grouping keys)."""

import pytest

from repro.engine import (
    Column,
    EvalContext,
    ExecutionError,
    Literal,
    SortKey,
)
from repro.engine.batch import ColumnBatch
from repro.engine.physical import (
    ExecState,
    LimitExec,
    PhysicalPlan,
    SortExec,
    _Accumulator,
    _hashable,
    _sort_token,
)


class _Rows(PhysicalPlan):
    """Leaf operator feeding fixed rows into an operator under test."""

    def __init__(self, rows):
        self.rows = rows

    def execute_batch(self, state):
        return ColumnBatch.from_rows(self.rows)

    def output_names(self):
        return set(self.rows[0]) if self.rows else set()


def _state():
    return ExecState(catalog=None, context=EvalContext())


class TestSortToken:
    def test_nulls_sort_first(self):
        values = [3, None, 1]
        ordered = sorted(values, key=_sort_token)
        assert ordered == [None, 1, 3]

    def test_mixed_numbers(self):
        assert sorted([2, 1.5, 3], key=_sort_token) == [1.5, 2, 3]

    def test_strings_after_numbers(self):
        ordered = sorted(["b", 10, "a", 2], key=_sort_token)
        assert ordered == [2, 10, "a", "b"]

    def test_bools_before_numbers(self):
        ordered = sorted([1, True, False, 0], key=_sort_token)
        assert ordered[:2] == [True, False] or ordered[:2] == [False, True]


class TestSortExec:
    def test_stable_multi_key(self):
        rows = [
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 1, "b": "x"},
        ]
        sort = SortExec(
            _Rows(rows),
            [SortKey(Column("a")), SortKey(Column("b"), ascending=False)],
        )
        out = sort.execute_batch(_state()).to_rows()
        assert out == [
            {"a": 1, "b": "y"},
            {"a": 1, "b": "x"},
            {"a": 2, "b": "x"},
        ]

    def test_descending(self):
        rows = [{"a": i} for i in (2, 3, 1)]
        sort = SortExec(_Rows(rows), [SortKey(Column("a"), ascending=False)])
        assert [r["a"] for r in sort.execute_batch(_state()).to_rows()] == [3, 2, 1]

    def test_nulls_first_ascending(self):
        rows = [{"a": 2}, {"a": None}, {"a": 1}]
        sort = SortExec(_Rows(rows), [SortKey(Column("a"))])
        assert [r["a"] for r in sort.execute_batch(_state()).to_rows()] == [None, 1, 2]


class TestLimitExec:
    def test_truncates(self):
        rows = [{"a": i} for i in range(10)]
        assert len(LimitExec(_Rows(rows), 3).execute_batch(_state()).to_rows()) == 3

    def test_larger_than_input(self):
        rows = [{"a": 1}]
        assert len(LimitExec(_Rows(rows), 99).execute_batch(_state()).to_rows()) == 1


class TestAccumulator:
    def test_count_ignores_nulls(self):
        acc = _Accumulator("count", distinct=False)
        for v in (1, None, 2):
            acc.add(v)
        assert acc.result() == 2

    def test_sum_and_avg(self):
        acc = _Accumulator("sum", distinct=False)
        for v in (1, 2, 3):
            acc.add(v)
        assert acc.result() == 6
        avg = _Accumulator("avg", distinct=False)
        for v in (1, 2, "3"):
            avg.add(v)  # numeric strings coerce
        assert avg.result() == 2.0

    def test_empty_aggregates_null_except_count(self):
        assert _Accumulator("count", False).result() == 0
        for func in ("sum", "avg", "min", "max"):
            assert _Accumulator(func, False).result() is None

    def test_min_max_mixed_with_nulls(self):
        lo = _Accumulator("min", False)
        hi = _Accumulator("max", False)
        for v in (5, None, 2, 9):
            lo.add(v)
            hi.add(v)
        assert lo.result() == 2
        assert hi.result() == 9

    def test_distinct(self):
        acc = _Accumulator("count", distinct=True)
        for v in (1, 1, 2, 2, 2):
            acc.add(v)
        assert acc.result() == 2

    def test_sum_non_numeric_raises(self):
        acc = _Accumulator("sum", False)
        with pytest.raises(ExecutionError):
            acc.add("not-a-number")


class TestHashable:
    def test_scalars_pass_through(self):
        assert _hashable(5) == 5
        assert _hashable("x") == "x"
        assert _hashable(None) is None

    def test_containers_serialised(self):
        key = _hashable({"a": [1, 2]})
        assert isinstance(key, str)
        {key: 1}  # usable as a dict key

    def test_equal_containers_same_key(self):
        assert _hashable([1, {"a": 2}]) == _hashable([1, {"a": 2}])
