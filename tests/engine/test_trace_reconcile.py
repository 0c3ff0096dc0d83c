"""Differential tests: trace spans must reconcile with QueryMetrics.

The span tree and :class:`~repro.engine.metrics.QueryMetrics` measure the
same execution through two independent channels — per-operator counter
deltas vs. the query-end fold. If they drift apart, one of them is lying;
these tests pin them together on a plain and a degraded (cache-fallback)
execution.
"""

import pytest
from reference import reference_rows

from repro.core import MaxsonSystem, cache_table_name
from repro.engine import Session
from repro.jsonlib import dumps
from repro.obs import Tracer
from repro.obs.explain import operator_root
from repro.storage import BlockFileSystem, DataType, Schema
from repro.workload import PathKey

SQL = (
    "SELECT get_json_object(sale_logs, '$.item_name') AS item, "
    "get_json_object(sale_logs, '$.turnover') AS turnover "
    "FROM mydb.T WHERE date < '20190103'"
)

SECONDS = pytest.approx


def top_operator(trace):
    top = operator_root(trace)
    assert top is not None
    return top


def assert_reconciles(result):
    """The outermost operator span's inclusive deltas == final metrics."""
    metrics = result.metrics
    top = top_operator(result.trace)
    attrs = top.attributes

    def counter(name):
        return attrs.get(name, 0)

    # Exact integer counters.
    assert counter("parse_documents") == metrics.parse_documents
    assert counter("parse_bytes") == metrics.parse_bytes
    assert counter("bytes_read") == metrics.bytes_read
    assert counter("rows_scanned") == metrics.rows_scanned
    assert counter("cache_hits") == metrics.cache_hits
    assert counter("cache_misses") == metrics.cache_misses
    assert counter("row_groups_total") == metrics.row_groups_total
    assert counter("row_groups_skipped") == metrics.row_groups_skipped
    # Wall-clock counters: same accumulators, so near-exact.
    assert counter("read_seconds") == SECONDS(
        metrics.read_seconds, rel=0.05, abs=1e-4
    )
    assert counter("parse_seconds") == SECONDS(
        metrics.parse_seconds, rel=0.05, abs=1e-4
    )
    # The query root carries the folded totals verbatim.
    root = result.trace
    assert root.attributes["parse_documents"] == metrics.parse_documents
    assert root.attributes["read_seconds"] == metrics.read_seconds
    assert root.attributes["rows_out"] == len(result.rows)


class TestEngineReconciliation:
    def test_batch_path(self, sales_session):
        result = sales_session.sql(SQL, tracer=Tracer())
        assert result.rows == reference_rows(sales_session, SQL)
        assert len(result.rows) == 80
        assert_reconciles(result)
        top = top_operator(result.trace)
        assert top.attributes.get("shared_parse_hits", 0) == (
            result.metrics.shared_parse_hits
        )
        # Parse-once sharing actually fired (two paths, one document).
        assert result.metrics.shared_parse_hits > 0

    def test_scan_span_owns_the_read_time(self, sales_session):
        result = sales_session.sql(SQL, tracer=Tracer())
        scans = result.trace.find_all("scan")
        scanned_read = sum(s.attributes.get("read_seconds", 0) for s in scans)
        assert scanned_read == SECONDS(
            result.metrics.read_seconds, rel=0.05, abs=1e-4
        )


class TestDegradedReconciliation:
    KEYS = [PathKey("db", "t", "payload", "$.m")]
    SQL = "select id, get_json_object(payload, '$.m') as m from db.t"

    def build_system(self, rows=30) -> MaxsonSystem:
        session = Session(fs=BlockFileSystem())
        schema = Schema.of(
            ("id", DataType.INT64), ("payload", DataType.STRING)
        )
        session.catalog.create_table("db", "t", schema)
        session.catalog.append_rows(
            "db",
            "t",
            [(i, dumps({"m": i})) for i in range(rows)],
            row_group_size=10,
        )
        return MaxsonSystem(session=session)

    def corrupt_first_cache_file(self, system: MaxsonSystem) -> None:
        from repro.core.cacher import CACHE_DATABASE

        cache_table = cache_table_name("db", "t")
        path = system.catalog.table_files(CACHE_DATABASE, cache_table)[0]
        blob = bytearray(system.session.fs.read(path))
        blob[len(blob) // 2] ^= 0xFF
        system.session.fs.delete(path)
        system.session.fs.create(path, bytes(blob))

    def test_fallback_spans_tagged_degraded_and_reconcile(self):
        system = self.build_system()
        system.cacher.populate(self.KEYS)
        self.corrupt_first_cache_file(system)
        tracer = Tracer()
        result = system.sql(self.SQL, tracer=tracer)
        assert system.resilience.get("fallback_queries") == 1
        assert [r["m"] for r in result.rows] == list(range(30))
        # The combine span records the degradation...
        combine = result.trace.find("combine")
        assert combine is not None
        assert combine.attributes["degraded"] is True
        assert combine.attributes["fallback_splits"] >= 1
        # ...and the raw re-parse is a tagged child parse span.
        parse = combine.find("parse")
        assert parse is not None
        assert parse.attributes["degraded"] is True
        assert parse.attributes["parse_documents"] > 0
        # Even through the fallback path the channels agree.
        assert_reconciles(result)

    def test_healthy_cached_query_reconciles_with_zero_parses(self):
        system = self.build_system()
        system.cacher.populate(self.KEYS)
        result = system.sql(self.SQL, tracer=Tracer())
        assert result.metrics.parse_documents == 0
        assert result.metrics.cache_hits > 0
        combine = result.trace.find("combine")
        assert combine is not None
        assert combine.attributes.get("degraded", False) is False
        assert_reconciles(result)
