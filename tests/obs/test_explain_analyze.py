"""EXPLAIN ANALYZE: annotated plans from traced executions."""

from reference import reference_rows

from repro.obs import Tracer, render_explain_analyze

SQL = (
    "SELECT get_json_object(sale_logs, '$.item_name') AS item, "
    "get_json_object(sale_logs, '$.sale_count') AS sold "
    "FROM mydb.T WHERE date = '20190101'"
)


class TestSessionApi:
    def test_report_header_and_stages(self, sales_session):
        report = sales_session.explain_analyze(SQL)
        assert report.splitlines()[0] == "EXPLAIN ANALYZE"
        assert "query: SELECT" in report
        for stage in ("total:", "plan:", "rewrite:", "execute:"):
            assert stage in report

    def test_operator_annotations_present(self, sales_session):
        report = sales_session.explain_analyze(SQL)
        scan_line = next(
            line for line in report.splitlines() if "scan" in line.lower()
        )
        assert "rows=" in scan_line
        assert "docs=" in scan_line or "docs=" in report
        assert "metrics: read=" in report
        assert "parse_fraction=" in report

    def test_results_unchanged_by_tracing(self, sales_session):
        plain = sales_session.sql(SQL)
        traced = sales_session.sql(SQL, tracer=Tracer())
        assert traced.rows == plain.rows == reference_rows(sales_session, SQL)
        assert plain.trace is None
        assert traced.trace is not None

    def test_trace_spans_cover_the_stage_tree(self, sales_session):
        result = sales_session.sql(SQL, tracer=Tracer())
        root = result.trace
        assert root.name == "query"
        for stage in ("plan", "rewrite", "execute", "scan", "project"):
            assert root.find(stage) is not None, stage
        scan = root.find("scan")
        assert scan.attributes.get("rows_out") == 40


class TestRenderer:
    def test_renders_bare_operator_subtree(self):
        tracer = Tracer()
        with tracer.span("scan", label="scan: mydb.T") as span:
            span.attributes.update(rows_out=40, parse_documents=40)
        report = render_explain_analyze(tracer.root)
        assert "scan: mydb.T" in report
        assert "rows=40" in report
        assert "docs=40" in report

    def test_empty_trace_degrades_gracefully(self):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        report = render_explain_analyze(tracer.root, sql="SELECT 1")
        assert "(no operator spans recorded)" in report
        assert "query: SELECT 1" in report
