"""Result-cache-on vs -off differentials: caching must change nothing.

The strongest correctness statement for the result cache is that it is
invisible in the answers: an identical query stream against identical
data returns bit-identical rows (values *and* order) whether results
are served from cache or re-executed — across morsel parallelism,
Maxson's cached scans and deterministic fault profiles (where degraded
answers are never admitted, so the cached stream can never go
stale-by-fault either). Both streams must also equal the row-at-a-time
reference evaluator's answers.
"""

import pytest
from reference import reference_rows

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.faults import CACHE_PATH_PREFIX, FaultPolicy, FaultyFileSystem
from repro.jsonlib import dumps
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

#: A recurring trace: every statement runs twice, several statements are
#: semantic recurrences of earlier ones (recased, realiased, reordered
#: predicates, ORDER BY over a cached prefix).
TRACE = [
    "select mall_id, date from mydb.T",
    "SELECT  mall_id , date FROM mydb.T",
    "select mall_id as m, date as d from mydb.T",
    "select * from mydb.T limit 7",
    "select date from mydb.T where date = '20190102'",
    "select date from mydb.T where '20190102' = date",
    "select get_json_object(sale_logs, '$.item_name') as name from mydb.T",
    "select get_json_object(sale_logs, '$.turnover') as t from mydb.T "
    "where get_json_object(sale_logs, '$.turnover') > 900",
    "select count(*) as n from mydb.T",
    "select date, count(*) as n from mydb.T group by date",
    "select mall_id, date from mydb.T order by date desc limit 5",
    "select count(*) as n from mydb.T where date = '29990101'",
]


def run_trace(session: Session) -> list:
    out = []
    for _ in range(2):  # the second pass recurs entirely
        for sql in TRACE:
            out.append(session.sql(sql).rows)
    return out


class TestSessionDifferential:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_on_off_rows_identical(self, sales_session, workers):
        sales_session.scan_workers = workers
        baseline = run_trace(sales_session)
        assert baseline == 2 * [reference_rows(sales_session, s) for s in TRACE]
        cached = Session(
            fs=sales_session.fs,
            catalog=sales_session.catalog,
            result_cache_enabled=True,
        )
        cached.scan_workers = workers
        served = run_trace(cached)
        assert served == baseline  # values and order, every statement
        stats = cached.result_cache_stats()
        assert stats["hits"] > 0  # the cache actually served recurrences


def build_system(fs=None, result_cache=False, scan_workers=1):
    session = Session(
        fs=fs or BlockFileSystem(), result_cache_enabled=result_cache
    )
    session.scan_workers = scan_workers
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
                    }
                ),
            )
            for i in range(20)
        ]
        session.catalog.append_rows("db", "t", rows, row_group_size=10)
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
    )
    system.cache_paths_directly(
        [PathKey("db", "t", "payload", "$.hot")], budget_bytes=1 << 40
    )
    return system


MAXSON_TRACE = [
    "select get_json_object(payload, '$.hot') as h from db.t",
    "SELECT get_json_object(payload, '$.hot') AS hh FROM db.t",
    "select id from db.t where get_json_object(payload, '$.warm') = 'w1'",
    "select get_json_object(payload, '$.warm') as w, count(*) as n "
    "from db.t group by get_json_object(payload, '$.warm')",
    "select id, get_json_object(payload, '$.hot') as h from db.t "
    "order by id desc limit 9",
]


class TestMaxsonDifferential:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_on_off_identical_through_cached_scans(self, workers):
        baseline = build_system(result_cache=False, scan_workers=workers)
        cached = build_system(result_cache=True, scan_workers=workers)
        expected = [reference_rows(baseline.session, s) for s in MAXSON_TRACE]
        for _ in range(2):
            for sql, want in zip(MAXSON_TRACE, expected):
                got = cached.sql(sql).rows
                assert got == baseline.sql(sql).rows == want, sql
        stats = cached.session.result_cache_stats()
        assert stats["hits"] > 0

    @pytest.mark.parametrize(
        "policy",
        [
            FaultPolicy(corrupt_rate=1.0, seed=3),
            FaultPolicy(
                read_error_rate=1.0, seed=7, error_path_prefix=CACHE_PATH_PREFIX
            ),
        ],
        ids=["corrupt-cache-reads", "cache-read-errors"],
    )
    def test_on_off_identical_under_faults(self, policy):
        results = {}
        for result_cache in (False, True):
            faulty = FaultyFileSystem()
            system = build_system(fs=faulty, result_cache=result_cache)
            faulty.policy = policy
            rows = []
            for _ in range(2):
                rows.extend(system.sql(sql).rows for sql in MAXSON_TRACE)
            results[result_cache] = (rows, system)
        (baseline_rows, _), (cached_rows, cached) = results[False], results[True]
        assert cached_rows == baseline_rows
        expected = [reference_rows(cached.session, s) for s in MAXSON_TRACE]
        assert cached_rows == 2 * expected
        # degraded executions were excluded from admission...
        assert cached.resilience.snapshot()["fallback_splits"] > 0
        stats = cached.session.result_cache_stats()
        degraded = [
            sql
            for sql in MAXSON_TRACE
            if "get_json_object(payload, '$.hot')" in sql
        ]
        assert degraded  # the profile really targets cached reads
        # ...so anything served from the cache came from a clean run
        assert stats["admissions"] + stats["rejections"] <= 2 * len(MAXSON_TRACE)
