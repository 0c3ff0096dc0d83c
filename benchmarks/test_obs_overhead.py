"""Observability overhead: tracing off must cost (near) nothing.

The obs design makes the disabled path *structurally* identical to the
pre-observability engine: instrumentation is a plan rewrite applied only
when a query carries a tracer, so an untraced query executes the exact
operator objects PR 3 shipped. This bench pins that contract three ways:

1. structurally — an untraced plan contains no ``TracedExec`` wrapper
   and the result carries no trace;
2. by measurement — two interleaved best-of-N runs of the same untraced
   workload agree within the 3% budget the acceptance criterion allows
   (the untraced path *is* the baseline, so any gap is pure noise);
3. by regression — the parse-once property still holds with the obs
   code present: exactly one parse per row, with the other extractions
   served from the shared document.

It also measures (and records, without gating) what tracing costs when
it is *on*.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import Session
from repro.jsonlib import dumps
from repro.obs import Tracer
from repro.obs.instrument import TracedExec
from repro.storage import BlockFileSystem, DataType, Schema

from .conftest import once, save_result

N_ROWS = 2000
PATHS = ("$.item_id", "$.item_name", "$.sale_count", "$.turnover", "$.price")
SQL = (
    "select "
    + ", ".join(
        f"get_json_object(logs, '{path}') as c{i}"
        for i, path in enumerate(PATHS)
    )
    + " from db.events"
)
REPEATS = 7
OVERHEAD_BUDGET = 1.03  # the acceptance criterion's < 3%


def build_session() -> Session:
    session = Session(fs=BlockFileSystem())
    schema = Schema.of(("id", DataType.INT64), ("logs", DataType.STRING))
    session.catalog.create_table("db", "events", schema)
    rows = [
        (
            i,
            dumps(
                {
                    "item_id": i % 97,
                    "item_name": f"item-{i}",
                    "sale_count": (i * 3) % 100,
                    "turnover": (i * 7) % 10_000,
                    "price": (i % 50) + 1,
                    "detail": {"k": i, "pad": "x" * 80},
                }
            ),
        )
        for i in range(N_ROWS)
    ]
    session.catalog.append_rows("db", "events", rows, row_group_size=200)
    return session


def best_of(session: Session, repeats: int = REPEATS, tracer_factory=None):
    """Best wall seconds over ``repeats`` runs of the bench query."""
    best = float("inf")
    for _ in range(repeats):
        tracer = tracer_factory() if tracer_factory is not None else None
        started = time.perf_counter()
        result = session.sql(SQL, tracer=tracer)
        best = min(best, time.perf_counter() - started)
        assert len(result.rows) == N_ROWS
    return best


def interleaved_aa(session: Session, repeats: int = REPEATS):
    """Best-of-N for two *interleaved* A/A series, so clock drift and
    cache warming hit both sides equally instead of biasing one."""
    best = [float("inf"), float("inf")]
    for i in range(2 * repeats):
        started = time.perf_counter()
        result = session.sql(SQL)
        best[i % 2] = min(best[i % 2], time.perf_counter() - started)
        assert len(result.rows) == N_ROWS
    return best


def test_tracing_off_is_structurally_free():
    session = build_session()
    planned, _state, _mode = session._prepare(SQL)
    nodes = [planned.physical]
    seen = []
    while nodes:
        node = nodes.pop()
        seen.append(node)
        nodes.extend(node.children())
    assert not any(isinstance(node, TracedExec) for node in seen)
    assert session.sql(SQL).trace is None


def test_tracing_off_overhead(benchmark):
    session = build_session()
    best_of(session, repeats=2)  # warm the page cache / code paths

    first, second = once(benchmark, lambda: interleaved_aa(session))
    traced = best_of(session, tracer_factory=Tracer)

    aa_ratio = max(first, second) / min(first, second)
    traced_ratio = traced / min(first, second)
    payload = {
        "untraced_best_seconds_a": first,
        "untraced_best_seconds_b": second,
        "aa_noise_ratio": aa_ratio,
        "traced_best_seconds": traced,
        "tracing_on_overhead_ratio": traced_ratio,
        "overhead_budget": OVERHEAD_BUDGET,
        "contract": (
            "untraced plans contain no instrumentation nodes, so the "
            "disabled path is the PR 3 execution path; the A/A ratio "
            "bounds measurement noise inside the 3% budget"
        ),
    }
    save_result("obs_overhead_summary", payload)
    assert aa_ratio <= OVERHEAD_BUDGET, payload
    # Tracing *on* is allowed to cost something, but a blowup here means
    # the per-operator snapshots regressed badly.
    assert traced_ratio <= 2.0, payload


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_system_tables_overhead(benchmark, backend):
    """The telemetry store enabled (traced off) must cost < 3% per query.

    One server, system tables on, same untraced workload — interleaved
    A/B where B detaches the store between iterations, so every query
    pays identical admission/caching/scan costs and the only delta is
    the per-outcome NDJSON append. The result cache is disabled so the
    repeat queries do real work; a cached hit would shrink the
    denominator to microseconds and gate on noise.
    """
    from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
    from repro.server import MaxsonServer, ServerConfig

    session = build_session()
    session.scan_workers = 2
    session.worker_backend = backend
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="always")),
    )
    config = ServerConfig(
        max_workers=2, system_tables=True, result_cache=False
    )
    server = MaxsonServer(system, config)
    try:
        store = server.telemetry
        assert store is not None
        for _ in range(3):  # warm both pools and the page cache
            assert len(server.execute(SQL).rows) == N_ROWS

        def series():
            # ABBA blocks (on, off, off, on): within a block the clock
            # drift and GC phase hit both sides symmetrically, so the
            # paired per-block difference cancels order bias. Scheduler
            # jitter dominates single iterations, so the gate takes the
            # smaller of two estimators — best-of and paired-median —
            # which noise rarely inflates together.
            import statistics

            pattern = (store, None, None, store)
            best = {True: float("inf"), False: float("inf")}
            diffs, off_samples = [], []
            for _block in range(REPEATS):
                t = []
                for active in pattern:
                    server.telemetry = active
                    started = time.perf_counter()
                    result = server.execute(SQL)
                    t.append(time.perf_counter() - started)
                    assert len(result.rows) == N_ROWS
                best[True] = min(best[True], t[0], t[3])
                best[False] = min(best[False], t[1], t[2])
                diffs.append(((t[0] + t[3]) - (t[1] + t[2])) / 2)
                off_samples.extend((t[1], t[2]))
            server.telemetry = store
            paired = 1 + statistics.median(diffs) / statistics.median(
                off_samples
            )
            return best[True], best[False], paired

        with_store, without_store, paired_ratio = once(benchmark, series)
        best_ratio = with_store / without_store
        ratio = min(best_ratio, paired_ratio)
        payload = {
            "backend": backend,
            "with_store_best_seconds": with_store,
            "without_store_best_seconds": without_store,
            "best_of_overhead_ratio": best_ratio,
            "paired_median_overhead_ratio": paired_ratio,
            "overhead_ratio": ratio,
            "overhead_budget": OVERHEAD_BUDGET,
            "queries_recorded": store.snapshot()["events"]["queries"],
        }
        save_result(f"systables_overhead_{backend}", payload)
        assert ratio <= OVERHEAD_BUDGET, payload
    finally:
        server.shutdown()


def test_parse_once_retained_with_obs_present():
    """Five extractions per row still cost exactly one parse per row."""
    session = build_session()
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        result = session.sql(SQL)
        best = min(best, time.perf_counter() - started)
    payload = {
        "batch_seconds": best,
        "batch_parse_documents": result.metrics.parse_documents,
        "shared_parse_hits": result.metrics.shared_parse_hits,
    }
    save_result("obs_pr3_regression", payload)
    assert payload["batch_parse_documents"] == N_ROWS, payload
    assert payload["shared_parse_hits"] == N_ROWS * (len(PATHS) - 1), payload
