"""Tests for spans, tracers and the JSONL trace sink."""

import json

from repro.obs.trace import Span, Tracer, TraceSink


def make_clock(step=1.0):
    state = {"now": 0.0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(clock=make_clock())
        root = tracer.begin("query")
        child = tracer.begin("scan")
        tracer.end(child)
        sibling = tracer.begin("project")
        tracer.end(sibling)
        tracer.end(root)
        assert tracer.root is root
        assert [s.name for s in root.children] == ["scan", "project"]
        assert child.parent_id == root.span_id
        assert root.parent_id is None

    def test_wall_seconds_from_clock(self):
        tracer = Tracer(clock=make_clock(step=1.0))
        with tracer.span("query") as span:
            pass
        assert span.wall_seconds == 1.0

    def test_context_manager_closes_on_exception(self):
        tracer = Tracer(clock=make_clock())
        try:
            with tracer.span("query"):
                with tracer.span("scan"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        for span in tracer.spans():
            assert span.ended_seconds >= span.started_seconds > 0

    def test_end_closes_dangling_children(self):
        tracer = Tracer(clock=make_clock())
        root = tracer.begin("query")
        tracer.begin("scan")  # never explicitly ended
        tracer.end(root)
        assert tracer.current is None
        assert all(s.ended_seconds > 0 for s in tracer.spans())

    def test_annotate_targets_innermost(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("query"):
            with tracer.span("scan") as scan:
                tracer.annotate(rows=7)
        assert scan.attributes["rows"] == 7
        assert "rows" not in tracer.root.attributes

    def test_find_and_find_all(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("query"):
            with tracer.span("scan"):
                pass
            with tracer.span("scan"):
                pass
        assert tracer.root.find("scan") is tracer.root.children[0]
        assert len(tracer.root.find_all("scan")) == 2
        assert tracer.root.find("missing") is None

    def test_total_sums_attribute_over_subtree(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("query"):
            with tracer.span("scan", parse_documents=3):
                pass
            with tracer.span("scan", parse_documents=4):
                pass
        assert tracer.root.total("parse_documents") == 7.0

    def test_second_root_attaches_to_first(self):
        tracer = Tracer(clock=make_clock())
        first = tracer.begin("query")
        tracer.end(first)
        second = tracer.begin("query")
        tracer.end(second)
        assert tracer.root is first
        assert second in first.children


class TestTraceSink:
    def test_writes_one_line_per_span_with_metadata(self, tmp_path):
        sink = TraceSink(tmp_path)
        tracer = Tracer(trace_id="q-1", clock=make_clock())
        with tracer.span("query"):
            with tracer.span("scan"):
                pass
        written = sink.write(tracer, query_id="q-1", tenant="t0")
        assert written == 2
        lines = [json.loads(l) for l in sink.path.read_text().splitlines()]
        assert len(lines) == 2
        assert {l["name"] for l in lines} == {"query", "scan"}
        assert all(l["trace_id"] == "q-1" for l in lines)
        assert all(l["tenant"] == "t0" for l in lines)
        parents = {l["span_id"]: l["parent_id"] for l in lines}
        root_id = next(s for s, p in parents.items() if p is None)
        assert all(p == root_id for s, p in parents.items() if p is not None)

    def test_bounded_by_max_spans(self, tmp_path):
        sink = TraceSink(tmp_path, max_spans=3)
        for i in range(3):
            tracer = Tracer(clock=make_clock())
            with tracer.span("query"):
                with tracer.span("scan"):
                    pass
            sink.write(tracer)
        snap = sink.snapshot()
        assert snap["spans_written"] == 3
        assert snap["spans_dropped"] == 3
        assert len(sink.path.read_text().splitlines()) == 3

    def test_empty_tracer_writes_nothing(self, tmp_path):
        sink = TraceSink(tmp_path)
        assert sink.write(Tracer(clock=make_clock())) == 0
        assert not sink.path.exists()


class TestSpanSerialisation:
    def test_to_dict_is_json_safe(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("query", tenant="t1") as span:
            pass
        payload = json.loads(json.dumps(span.to_dict()))
        assert payload["name"] == "query"
        assert payload["attributes"]["tenant"] == "t1"
        assert payload["wall_seconds"] > 0
