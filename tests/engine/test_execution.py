"""Integration tests: SQL execution end-to-end on the sale-logs table."""

import pytest

from repro.engine import ExecutionError, PlanError, Session
from repro.storage import DataType, Schema


class TestProjectionAndFilter:
    def test_simple_select(self, sales_session):
        result = sales_session.sql("select mall_id, date from mydb.T limit 3")
        assert len(result.rows) == 3
        assert set(result.rows[0]) == {"mall_id", "date"}

    def test_star(self, sales_session):
        result = sales_session.sql("select * from mydb.T limit 1")
        assert set(result.rows[0]) == {"mall_id", "date", "sale_logs"}

    def test_where_on_scalar_column(self, sales_session):
        result = sales_session.sql(
            "select date from mydb.T where date = '20190102'"
        )
        assert len(result.rows) == 40
        assert all(r["date"] == "20190102" for r in result.rows)

    def test_where_between(self, sales_session):
        result = sales_session.sql(
            "select date from mydb.T where date between '20190101' and '20190102'"
        )
        assert len(result.rows) == 80

    def test_json_extraction(self, sales_session):
        result = sales_session.sql(
            "select get_json_object(sale_logs, '$.item_name') as name "
            "from mydb.T where date = '20190101' limit 5"
        )
        assert all(r["name"].startswith("item") for r in result.rows)

    def test_json_predicate(self, sales_session):
        result = sales_session.sql(
            "select get_json_object(sale_logs, '$.turnover') as t "
            "from mydb.T where get_json_object(sale_logs, '$.turnover') > 900"
        )
        assert result.rows
        assert all(r["t"] > 900 for r in result.rows)

    def test_missing_json_path_is_null_filtered(self, sales_session):
        result = sales_session.sql(
            "select mall_id from mydb.T where get_json_object(sale_logs, '$.ghost') = 1"
        )
        assert result.rows == []

    def test_unknown_table(self, sales_session):
        with pytest.raises(Exception):
            sales_session.sql("select a from mydb.nope")

    def test_unknown_column(self, sales_session):
        with pytest.raises(ExecutionError):
            sales_session.sql("select ghost_column from mydb.T")


class TestAggregation:
    def test_count_star(self, sales_session):
        result = sales_session.sql("select count(*) as n from mydb.T")
        assert result.rows == [{"n": 200}]

    def test_group_by_scalar(self, sales_session):
        result = sales_session.sql(
            "select date, count(*) as n from mydb.T group by date"
        )
        assert len(result.rows) == 5
        assert all(r["n"] == 40 for r in result.rows)

    def test_group_by_json_value(self, sales_session):
        result = sales_session.sql(
            "select get_json_object(sale_logs, '$.item_id') as item, "
            "count(*) as n from mydb.T group by "
            "get_json_object(sale_logs, '$.item_id')"
        )
        assert len(result.rows) == 17
        assert sum(r["n"] for r in result.rows) == 200

    def test_sum_avg_min_max(self, sales_session):
        result = sales_session.sql(
            "select sum(get_json_object(sale_logs, '$.price')) as s, "
            "avg(get_json_object(sale_logs, '$.price')) as a, "
            "min(get_json_object(sale_logs, '$.price')) as lo, "
            "max(get_json_object(sale_logs, '$.price')) as hi "
            "from mydb.T"
        )
        row = result.rows[0]
        assert row["lo"] >= 1 and row["hi"] <= 50
        assert abs(row["a"] - row["s"] / 200) < 1e-9

    def test_count_distinct(self, sales_session):
        result = sales_session.sql(
            "select count(distinct get_json_object(sale_logs, '$.item_id')) as n "
            "from mydb.T"
        )
        assert result.rows == [{"n": 17}]

    def test_count_column_skips_nulls(self, sales_session):
        result = sales_session.sql(
            "select count(get_json_object(sale_logs, '$.ghost')) as n from mydb.T"
        )
        assert result.rows == [{"n": 0}]

    def test_global_aggregate_on_empty_input(self, sales_session):
        result = sales_session.sql(
            "select count(*) as n from mydb.T where date = '29990101'"
        )
        assert result.rows == [{"n": 0}]

    def test_having(self, sales_session):
        result = sales_session.sql(
            "select get_json_object(sale_logs, '$.item_id') as item, count(*) as n "
            "from mydb.T group by get_json_object(sale_logs, '$.item_id') "
            "having count(*) > 11"
        )
        assert all(r["n"] > 11 for r in result.rows)

    def test_arithmetic_over_aggregates(self, sales_session):
        result = sales_session.sql(
            "select sum(get_json_object(sale_logs, '$.price')) / count(*) as mean "
            "from mydb.T"
        )
        assert result.rows[0]["mean"] > 0


class TestSortLimit:
    def test_order_by_projected_alias(self, sales_session):
        result = sales_session.sql(
            "select get_json_object(sale_logs, '$.turnover') as t "
            "from mydb.T order by t desc limit 3"
        )
        values = [r["t"] for r in result.rows]
        assert values == sorted(values, reverse=True)

    def test_order_by_unprojected_expression(self, sales_session):
        # The paper's Fig 1 pattern: ORDER BY an expression over a column
        # that the projection dropped.
        result = sales_session.sql(
            "select mall_id, get_json_object(sale_logs, '$.item_id') as item "
            "from mydb.T where date = '20190101' "
            "order by get_json_object(sale_logs, '$.turnover') limit 1"
        )
        assert len(result.rows) == 1

    def test_order_by_aggregate(self, sales_session):
        result = sales_session.sql(
            "select date, count(*) as n from mydb.T group by date "
            "order by count(*) desc limit 2"
        )
        assert len(result.rows) == 2

    def test_multi_key_sort(self, sales_session):
        result = sales_session.sql(
            "select date, get_json_object(sale_logs, '$.price') as p "
            "from mydb.T order by date desc, p asc limit 50"
        )
        dates = [r["date"] for r in result.rows]
        assert dates == sorted(dates, reverse=True)

    def test_limit_zero(self, sales_session):
        assert sales_session.sql("select mall_id from mydb.T limit 0").rows == []


class TestJoin:
    def test_self_join(self, sales_session):
        result = sales_session.sql(
            "select count(*) as n from mydb.T a join mydb.T b "
            "on get_json_object(a.sale_logs, '$.item_id') = "
            "get_json_object(b.sale_logs, '$.item_id') "
            "where a.date = '20190101' and b.date = '20190102'"
        )
        # 40 rows/day over 17 item ids -> deterministic match count > 0
        assert result.rows[0]["n"] > 0

    def test_join_on_scalar(self, session):
        schema_a = Schema.of(("k", DataType.INT64), ("v", DataType.STRING))
        schema_b = Schema.of(("k", DataType.INT64), ("w", DataType.STRING))
        session.catalog.create_table("db", "a", schema_a)
        session.catalog.create_table("db", "b", schema_b)
        session.catalog.append_rows("db", "a", [(1, "x"), (2, "y"), (3, "z")])
        session.catalog.append_rows("db", "b", [(2, "B2"), (3, "B3"), (4, "B4")])
        result = session.sql(
            "select a.v, b.w from db.a a join db.b b on a.k = b.k order by a.v"
        )
        assert result.rows == [{"v": "y", "w": "B2"}, {"v": "z", "w": "B3"}]

    def test_join_null_keys_never_match(self, session):
        schema = Schema.of(("k", DataType.INT64), ("v", DataType.STRING))
        session.catalog.create_table("db", "n1", schema)
        session.catalog.create_table("db", "n2", schema)
        session.catalog.append_rows("db", "n1", [(None, "x"), (1, "y")])
        session.catalog.append_rows("db", "n2", [(None, "a"), (1, "b")])
        result = session.sql(
            "select count(*) as n from db.n1 a join db.n2 b on a.k = b.k"
        )
        assert result.rows == [{"n": 1}]

    def test_join_requires_equi_condition(self, session):
        schema = Schema.of(("k", DataType.INT64),)
        session.catalog.create_table("db", "j1", schema)
        session.catalog.create_table("db", "j2", schema)
        with pytest.raises(PlanError):
            session.sql("select a.k from db.j1 a join db.j2 b on a.k > b.k")

    def test_join_residual_condition(self, session):
        schema = Schema.of(("k", DataType.INT64), ("v", DataType.INT64))
        session.catalog.create_table("db", "r1", schema)
        session.catalog.create_table("db", "r2", schema)
        session.catalog.append_rows("db", "r1", [(1, 10), (1, 20)])
        session.catalog.append_rows("db", "r2", [(1, 15)])
        result = session.sql(
            "select a.v from db.r1 a join db.r2 b on a.k = b.k and a.v > b.v"
        )
        assert result.rows == [{"v": 20}]


class TestMetrics:
    THREE_PATH_QUERY = (
        "select get_json_object(sale_logs, '$.item_id') as a, "
        "get_json_object(sale_logs, '$.turnover') as b, "
        "get_json_object(sale_logs, '$.price') as c from mydb.T"
    )

    def test_parse_dominates_json_queries(self, sales_session):
        result = sales_session.sql(self.THREE_PATH_QUERY)
        # the paper's headline (>= ~80%) is asserted at realistic scale in
        # benchmarks/test_fig3_parse_cost.py; at this tiny table size just
        # require that parsing is a major component and counted exactly.
        assert result.metrics.parse_fraction > 0.3
        assert result.metrics.parse_documents == 200  # one parse per row

    def test_batch_path_shares_parses_across_expressions(self, sales_session):
        result = sales_session.sql(self.THREE_PATH_QUERY)
        # Parse-once sharing: 200 documents parsed once each; the other
        # two extraction calls per row are served from the shared cache
        # and must NOT be re-charged to the parser stats.
        assert result.metrics.parse_documents == 200
        assert result.metrics.shared_parse_hits == 400  # 2 extra calls x 200

    def test_column_pruning_reduces_bytes(self, sales_session):
        wide = sales_session.sql("select * from mydb.T")
        narrow = sales_session.sql("select date from mydb.T")
        assert narrow.metrics.bytes_read < wide.metrics.bytes_read

    def test_sarg_pushdown_on_scalar_column(self, sales_session):
        full = sales_session.sql("select date from mydb.T")
        filtered = sales_session.sql(
            "select date from mydb.T where date = '20190101'"
        )
        assert filtered.metrics.row_groups_skipped > 0
        assert filtered.metrics.bytes_read < full.metrics.bytes_read

    def test_session_metrics_accumulate(self, sales_session):
        sales_session.reset_session_metrics()
        sales_session.sql("select date from mydb.T limit 1")
        sales_session.sql("select date from mydb.T limit 1")
        assert sales_session.session_metrics.rows_output == 2

    def test_explain_produces_plan_text(self, sales_session):
        text = sales_session.explain(
            "select date from mydb.T where date = '20190101'"
        )
        assert "Scan" in text and "Filter" in text
