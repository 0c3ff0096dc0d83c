"""Serial vs parallel differentials: morsel workers must change nothing.

``scan_workers=1`` runs the exact morsel code inline, so a 4-worker run
differs only in which thread executes each split. These tests assert
the strong form of that claim: identical rows (including order) and
identical count-valued metrics for every query family, with the Value
Combiner stitching cached columns, and under deterministic fault
injection (where per-split fallback decisions must stay split-local
regardless of which worker hits them). Both sides must also equal the
row-at-a-time reference evaluator's answer.
"""

import pytest
from reference import reference_rows

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.faults import CACHE_PATH_PREFIX, FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

#: Metrics that must be bit-identical serial vs parallel (timing fields
#: are excluded — wall/read seconds legitimately differ).
COUNT_METRICS = (
    "rows_scanned",
    "rows_output",
    "bytes_read",
    "row_groups_total",
    "row_groups_skipped",
    "parse_documents",
    "parse_bytes",
    "cache_hits",
    "cache_misses",
    "shared_parse_hits",
    "duplicate_extractions_eliminated",
    "doc_cache_evictions",
)

QUERIES = [
    "select mall_id, date from mydb.T",
    "select * from mydb.T limit 7",
    "select date from mydb.T where date = '20190102'",
    "select get_json_object(sale_logs, '$.item_name') as name from mydb.T",
    "select get_json_object(sale_logs, '$.turnover') as t from mydb.T "
    "where get_json_object(sale_logs, '$.turnover') > 900",
    "select count(*) as n from mydb.T",
    "select date, count(*) as n from mydb.T group by date",
    "select get_json_object(sale_logs, '$.item_id') as item, "
    "sum(get_json_object(sale_logs, '$.price')) as s, "
    "avg(get_json_object(sale_logs, '$.turnover')) as a "
    "from mydb.T group by get_json_object(sale_logs, '$.item_id') "
    "having count(*) > 11",
    "select count(distinct get_json_object(sale_logs, '$.item_id')) as n "
    "from mydb.T",
    "select min(get_json_object(sale_logs, '$.price')) as lo, "
    "max(get_json_object(sale_logs, '$.price')) as hi from mydb.T",
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


def assert_metric_parity(serial, parallel, sql):
    s, p = serial.metrics, parallel.metrics
    for name in COUNT_METRICS:
        assert getattr(s, name) == getattr(p, name), (sql, name)


class TestSerialParallelParity:
    """Same session, same query, 1 vs 4 workers: rows and counters."""

    @pytest.mark.parametrize("sql", QUERIES)
    def test_rows_and_metrics_identical(self, sales_session, sql):
        sales_session.scan_workers = 1
        serial = sales_session.sql(sql)
        sales_session.scan_workers = 4
        parallel = sales_session.sql(sql)
        assert serial.rows == parallel.rows  # including order
        assert serial.rows == reference_rows(sales_session, sql)
        assert_metric_parity(serial, parallel, sql)


def build_system(fs=None, scan_workers: int = 1, worker_backend: str = "thread"):
    """One cached Maxson system over a 6-split table."""
    session = Session(fs=fs or BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("payload", DataType.STRING))
    session.catalog.create_table("db", "t", schema)
    for day in range(6):
        rows = [
            (
                day * 20 + i,
                dumps(
                    {
                        "hot": (day * 20 + i) % 5,
                        "warm": f"w{(day * 20 + i) % 3}",
                        "cold": (day * 20 + i) * 7,
                    }
                ),
            )
            for i in range(20)
        ]
        session.catalog.append_rows("db", "t", rows, row_group_size=10)
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(
            predictor=PredictorConfig(model="oracle"),
            scan_workers=scan_workers,
            worker_backend=worker_backend,
        ),
    )
    system.cache_paths_directly(
        [
            PathKey("db", "t", "payload", "$.hot"),
            PathKey("db", "t", "payload", "$.warm"),
        ],
        budget_bytes=1 << 40,
    )
    return system


MAXSON_QUERIES = [
    "select get_json_object(payload, '$.hot') as h from db.t",
    "select get_json_object(payload, '$.hot') as h, "
    "get_json_object(payload, '$.cold') as c from db.t",
    "select id from db.t where get_json_object(payload, '$.warm') = 'w1'",
    "select get_json_object(payload, '$.warm') as w, count(*) as n "
    "from db.t group by get_json_object(payload, '$.warm')",
]

#: cache_summary keys that legitimately differ between two systems
#: (timings and the knob under test itself).
SUMMARY_EXCLUDE = {
    "build_seconds",
    "scan_workers",
    "worker_backend",
    "plan_cache",
}


def summary_view(system):
    return {
        k: v
        for k, v in system.cache_summary().items()
        if k not in SUMMARY_EXCLUDE
    }


class TestMaxsonParallelParity:
    def test_combiner_stitching_identical(self):
        system = build_system()
        for sql in MAXSON_QUERIES:
            system.session.scan_workers = 1
            serial = system.sql(sql)
            system.session.scan_workers = 4
            parallel = system.sql(sql)
            assert serial.rows == parallel.rows, sql
            assert serial.rows == reference_rows(system.session, sql), sql
            assert_metric_parity(serial, parallel, sql)
            assert parallel.metrics.cache_hits > 0

    def test_cache_summary_identical_across_worker_counts(self):
        """Two independently built systems, identical query sequence,
        differing only in worker count: the whole efficacy/resilience
        accounting must agree."""
        serial = build_system(scan_workers=1)
        parallel = build_system(scan_workers=4)
        for sql in MAXSON_QUERIES:
            assert serial.sql(sql).rows == parallel.sql(sql).rows, sql
        assert summary_view(serial) == summary_view(parallel)
        assert (
            serial.resilience.snapshot() == parallel.resilience.snapshot()
        )


class TestFaultParallelParity:
    """Deterministic fault profiles: degraded identically, never divergent."""

    def run_pair(self, policy: FaultPolicy):
        results = {}
        for workers in (1, 4):
            faulty = FaultyFileSystem()
            system = build_system(fs=faulty, scan_workers=workers)
            faulty.policy = policy
            rows = [system.sql(sql).rows for sql in MAXSON_QUERIES]
            results[workers] = (rows, system)
        (serial_rows, serial), (parallel_rows, parallel) = (
            results[1],
            results[4],
        )
        assert serial_rows == parallel_rows
        assert summary_view(serial) == summary_view(parallel)
        assert (
            serial.resilience.snapshot() == parallel.resilience.snapshot()
        )
        assert serial_rows == [
            reference_rows(serial.session, sql) for sql in MAXSON_QUERIES
        ]
        return serial

    def test_all_cache_reads_corrupt(self):
        system = self.run_pair(FaultPolicy(corrupt_rate=1.0, seed=3))
        assert system.resilience.snapshot()["fallback_splits"] > 0

    def test_cache_prefix_read_errors(self):
        system = self.run_pair(
            FaultPolicy(
                read_error_rate=1.0, seed=7, error_path_prefix=CACHE_PATH_PREFIX
            )
        )
        assert system.resilience.snapshot()["fallback_queries"] > 0
