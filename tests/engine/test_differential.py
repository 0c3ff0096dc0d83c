"""Differential tests: the batch engine must answer like the reference.

Every query family the engine supports runs through the engine and
through :func:`reference.reference_rows` — a small row-at-a-time
interpreter of the planner's plan that shares no execution code with the
engine — and must produce exactly the same rows in the same order. The
same property is then asserted on the Maxson-modified plan (Value
Combiner stitching cached columns) and under fault profiles, where scans
must fall back split by split and degrade rather than diverge; there the
reference must also agree with the plain engine (``baseline_sql``).
"""

import pytest
from reference import reference_rows

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.engine.parallel import parallelize_plan
from repro.engine.physical import ScanExec
from repro.faults import FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, ComparisonSarg, DataType, Schema, SargOp
from repro.workload import PathKey

#: The parity matrix: one query per engine feature family.
QUERIES = [
    "select mall_id, date from mydb.T",
    "select * from mydb.T limit 7",
    "select date from mydb.T where date = '20190102'",
    "select date from mydb.T where date between '20190101' and '20190102'",
    "select mall_id from mydb.T where date in ('20190101', '20190103')",
    "select get_json_object(sale_logs, '$.item_name') as name from mydb.T",
    "select get_json_object(sale_logs, '$.turnover') as t from mydb.T "
    "where get_json_object(sale_logs, '$.turnover') > 900",
    "select mall_id from mydb.T "
    "where get_json_object(sale_logs, '$.ghost') = 1",
    "select get_json_object(sale_logs, '$.price') * 2 + 1 as p from mydb.T "
    "where not (get_json_object(sale_logs, '$.price') < 10)",
    "select cast(get_json_object(sale_logs, '$.item_id') as string) as s "
    "from mydb.T limit 9",
    "select get_json_object(sale_logs, '$.price') as p from mydb.T "
    "where get_json_object(sale_logs, '$.price') > 10 "
    "and get_json_object(sale_logs, '$.turnover') > 100 "
    "or get_json_object(sale_logs, '$.item_id') = 3",
    "select count(*) as n from mydb.T",
    "select date, count(*) as n from mydb.T group by date",
    "select get_json_object(sale_logs, '$.item_id') as item, "
    "sum(get_json_object(sale_logs, '$.price')) as s, "
    "avg(get_json_object(sale_logs, '$.turnover')) as a "
    "from mydb.T group by get_json_object(sale_logs, '$.item_id') "
    "having count(*) > 11",
    "select count(distinct get_json_object(sale_logs, '$.item_id')) as n "
    "from mydb.T",
    "select count(*) as n from mydb.T where date = '29990101'",
    "select get_json_object(sale_logs, '$.item_id') as item, "
    "get_json_object(sale_logs, '$.price') as p from mydb.T "
    "order by get_json_object(sale_logs, '$.price') desc, "
    "get_json_object(sale_logs, '$.item_id') limit 12",
    "select count(*) as n from mydb.T a join mydb.T b "
    "on get_json_object(a.sale_logs, '$.item_id') = "
    "get_json_object(b.sale_logs, '$.item_id') "
    "where a.date = '20190101' and b.date = '20190102'",
]


class TestRowBatchParity:
    """The batch engine against the row-at-a-time reference."""

    @pytest.mark.parametrize("sql", QUERIES)
    def test_batch_rows_identical_to_row_interpreter(self, sales_session, sql):
        assert sales_session.sql(sql).rows == reference_rows(sales_session, sql)

    def test_join_and_null_keys_parity(self, session):
        schema = Schema.of(("k", DataType.INT64), ("v", DataType.STRING))
        session.catalog.create_table("db", "n1", schema)
        session.catalog.create_table("db", "n2", schema)
        session.catalog.append_rows("db", "n1", [(None, "x"), (1, "y"), (2, "z")])
        session.catalog.append_rows("db", "n2", [(None, "a"), (1, "b"), (3, "c")])
        sql = (
            "select a.v, b.v from db.n1 a join db.n2 b on a.k = b.k "
            "order by a.v"
        )
        rows = session.sql(sql).rows
        assert rows == reference_rows(session, sql)
        assert len(rows) == 1  # only k = 1 joins; NULL keys never match


def _compile_with(session, monkeypatch, rewrite):
    """Make ``session.compile`` hand out plans passed through ``rewrite``."""
    compile_sql = session.compile

    def compile_rewritten(sql):
        planned = compile_sql(sql)
        planned.physical = rewrite(planned.physical)
        return planned

    monkeypatch.setattr(session, "compile", compile_rewritten)


class TestReferenceEvaluator:
    def test_rejects_nodes_it_does_not_know(self, sales_session, monkeypatch):
        _compile_with(sales_session, monkeypatch, parallelize_plan)
        with pytest.raises(TypeError, match="MorselPipelineExec"):
            reference_rows(sales_session, "select date from mydb.T")

    def test_scans_ignore_sargs(self, sales_session, monkeypatch):
        sql = "select date from mydb.T where date = '20190101'"

        def prune_everything(plan):
            scan = plan
            while not isinstance(scan, ScanExec):
                (scan,) = scan.children()
            # A wrong SARG: no row group can hold date = '29990101'.
            scan.sarg = ComparisonSarg("date", SargOp.EQ, "29990101")
            return plan

        _compile_with(sales_session, monkeypatch, prune_everything)
        assert sales_session.sql(sql).rows == []  # the engine trusts it
        assert len(reference_rows(sales_session, sql)) == 40


def build_cached_system(fs=None) -> tuple[MaxsonSystem, list[str]]:
    """A system with a Fig-1-style table and both JSONPaths pre-cached."""
    session = Session(fs=fs or BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    rows = [
        (i, dumps({"hot": i % 5, "warm": f"w{i % 3}", "cold": i * 7}))
        for i in range(60)
    ]
    session.catalog.append_rows("db", "t", rows, row_group_size=10)
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
    )
    system.cache_paths_directly(
        [
            PathKey("db", "t", "payload", "$.hot"),
            PathKey("db", "t", "payload", "$.warm"),
        ],
        budget_bytes=1 << 40,
    )
    queries = [
        # pure cached projection (cache-only read path)
        "select get_json_object(payload, '$.hot') as h from db.t",
        # cached + uncached path on the same column (stitch + raw parse)
        "select get_json_object(payload, '$.hot') as h, "
        "get_json_object(payload, '$.cold') as c from db.t",
        # cached path in a predicate, scalar column projected
        "select id from db.t where get_json_object(payload, '$.warm') = 'w1'",
        # aggregation over a cached path
        "select get_json_object(payload, '$.warm') as w, count(*) as n "
        "from db.t group by get_json_object(payload, '$.warm')",
    ]
    return system, queries


class TestMaxsonParity:
    def test_value_combiner_identical_across_paths(self):
        system, queries = build_cached_system()
        for sql in queries:
            baseline = system.baseline_sql(sql)
            cached = system.sql(sql)
            reference = reference_rows(system.session, sql)
            assert cached.rows == reference == baseline.rows, sql
            assert cached.metrics.cache_hits > 0

    def test_batch_cached_query_parses_nothing(self):
        system, queries = build_cached_system()
        result = system.sql(queries[0])
        assert result.metrics.parse_documents == 0
        assert result.metrics.cache_hits > 0


class TestFaultDifferential:
    """Cached scans under fault profiles: degraded, never divergent."""

    def test_corrupt_cache_falls_back_per_split_in_batch_mode(self):
        faulty = FaultyFileSystem()
        system, queries = build_cached_system(fs=faulty)
        baselines = [system.baseline_sql(sql).rows for sql in queries]
        # Every cache read corrupt from here on; raw files stay intact.
        faulty.policy = FaultPolicy(corrupt_rate=1.0, seed=3)
        for sql, expected in zip(queries, baselines):
            reference = reference_rows(system.session, sql)
            assert system.sql(sql).rows == reference == expected, sql
        assert system.resilience.snapshot()["fallback_splits"] > 0
        assert system.resilience.snapshot()["corruption_events"] > 0

    def test_flaky_cache_reads_still_row_identical(self):
        faulty = FaultyFileSystem()
        system, queries = build_cached_system(fs=faulty)
        baselines = [system.baseline_sql(sql).rows for sql in queries]
        from repro.faults import CACHE_PATH_PREFIX

        faulty.policy = FaultPolicy(
            read_error_rate=0.5, seed=11, error_path_prefix=CACHE_PATH_PREFIX
        )
        for sql, expected in zip(queries, baselines):
            reference = reference_rows(system.session, sql)
            assert system.sql(sql).rows == reference == expected, sql
