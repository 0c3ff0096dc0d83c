"""Server throughput: queries/sec and latency percentiles vs concurrency.

Drives the concurrent :class:`~repro.server.MaxsonServer` with the ten
Table II queries at client concurrency 1, 4 and 8 over a warmed cache
(the steady state between midnight cycles) and records queries/sec plus
p50/p95 latency per level. The paper's deployment serves "hundreds of
machines"; this regenerates the single-process shape of that curve —
throughput should rise with concurrency until the engine saturates.
"""

from __future__ import annotations

import time

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.server import MaxsonServer, ServerConfig
from repro.server.status import percentile
from repro.storage import BlockFileSystem
from repro.workload import build_queries, load_tables
from repro.workload.tables import TABLE_SPECS

from .conftest import once, save_result

CONCURRENCY_LEVELS = (1, 4, 8)
REQUESTS_PER_LEVEL = 48


def _run_level(env, concurrency: int) -> dict[str, float]:
    server = MaxsonServer(
        env.system,
        ServerConfig(
            max_workers=concurrency,
            per_tenant_limit=concurrency,
            queue_capacity=4 * REQUESTS_PER_LEVEL,
            admission_timeout_seconds=120.0,
        ),
    )
    queries = list(env.queries.values())
    started = time.perf_counter()
    futures = [
        server.submit(
            queries[i % len(queries)].sql, tenant=f"tenant-{i % 4}"
        )
        for i in range(REQUESTS_PER_LEVEL)
    ]
    latencies = []
    parse_documents = 0
    for future in futures:
        result = future.result()
        latencies.append(result.metrics.total_seconds)
        parse_documents += result.metrics.parse_documents
    wall = time.perf_counter() - started
    server.shutdown()
    latencies.sort()
    return {
        "concurrency": concurrency,
        "requests": REQUESTS_PER_LEVEL,
        "wall_seconds": wall,
        "qps": REQUESTS_PER_LEVEL / wall,
        "p50_seconds": percentile(latencies, 0.50),
        "p95_seconds": percentile(latencies, 0.95),
        "max_seconds": latencies[-1],
        "parse_documents": parse_documents,
    }


def test_server_throughput(benchmark, env):
    env.cache_with_budget(env.total_candidate_bytes(), "score")

    def run_all_levels():
        return [_run_level(env, c) for c in CONCURRENCY_LEVELS]

    levels = once(benchmark, run_all_levels)
    payload = {
        "levels": levels,
        "paper_claim": "Maxson serves concurrent clients from shared "
        "cache tables; throughput scales with client concurrency until "
        "the engine saturates",
    }
    save_result("server_throughput", payload)
    for level in levels:
        assert level["qps"] > 0
        assert level["p95_seconds"] >= level["p50_seconds"]
    # concurrency must help at least somewhat over serial dispatch
    serial = levels[0]["qps"]
    best = max(level["qps"] for level in levels[1:])
    assert best > serial * 0.8


# ---------------------------------------------------------------------------
# Backend x concurrency sweep: the thread pool vs the process pool.
#
# The shared ``env`` workload is CPU-bound JSON parsing, which a single
# CPU cannot scale no matter the backend; what the process backend buys
# is overlap of *stall time* (I/O waits) across splits while the
# coordinator keeps planning and merging. A ``BlockFileSystem`` read
# latency models that stall: each of the query's two daily splits
# sleeps on its reads inside a worker, so queries pipeline through the
# pool and throughput keeps climbing from concurrency 1 to 8.

SWEEP_BACKENDS = ("thread", "process")
SWEEP_LEVELS = (1, 4, 8)
SWEEP_REQUESTS = 24
SWEEP_POOL_WORKERS = 12
SWEEP_READ_LATENCY = 0.03
SWEEP_DAYS = 2


def _build_sweep_system(backend: str):
    """A one-table Q2 system over a latency-armed filesystem."""
    session = Session(
        fs=BlockFileSystem(read_latency_seconds=SWEEP_READ_LATENCY)
    )
    spec = next(s for s in TABLE_SPECS if s.query_id == "Q2")
    factories = load_tables(
        session.catalog,
        rows_per_table=64,
        days=SWEEP_DAYS,
        row_group_size=32,
        specs=[spec],
    )
    queries = build_queries(factories)
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(
            predictor=PredictorConfig(model="oracle"),
            scan_workers=SWEEP_POOL_WORKERS,
            worker_backend=backend,
        ),
    )
    return system, queries["Q2"].sql


def _sweep_backend(backend: str) -> dict[str, dict]:
    system, sql = _build_sweep_system(backend)
    # Warm outside the timed region: spawning SWEEP_POOL_WORKERS
    # processes and shipping each its catalog snapshot is a one-time
    # cost; one query per worker rotates the whole pool warm.
    for _ in range(SWEEP_POOL_WORKERS):
        system.session.sql(sql)
    levels: dict[str, dict] = {}
    servers = []
    try:
        for concurrency in SWEEP_LEVELS:
            server = MaxsonServer(
                system,
                ServerConfig(
                    max_workers=concurrency,
                    per_tenant_limit=concurrency,
                    queue_capacity=4 * SWEEP_REQUESTS,
                    admission_timeout_seconds=120.0,
                ),
            )
            # Shutdown is deferred to the end of the sweep: it closes
            # the session's worker pools, and paying a pool respawn
            # inside the next level's timed region would be unfair.
            servers.append(server)
            started = time.perf_counter()
            futures = [
                server.submit(sql, tenant=f"tenant-{i % 4}")
                for i in range(SWEEP_REQUESTS)
            ]
            latencies = sorted(
                f.result().metrics.total_seconds for f in futures
            )
            wall = time.perf_counter() - started
            levels[str(concurrency)] = {
                "qps": SWEEP_REQUESTS / wall,
                "p50_seconds": percentile(latencies, 0.50),
                "p95_seconds": percentile(latencies, 0.95),
            }
    finally:
        for server in servers:
            server.shutdown()
    return levels


def test_backend_concurrency_sweep(benchmark):
    def run_sweep():
        return {backend: _sweep_backend(backend) for backend in SWEEP_BACKENDS}

    sweep = once(benchmark, run_sweep)
    proc = sweep["process"]
    payload = {
        "read_latency_seconds": SWEEP_READ_LATENCY,
        "pool_workers": SWEEP_POOL_WORKERS,
        "splits_per_query": SWEEP_DAYS,
        "requests_per_level": SWEEP_REQUESTS,
        "qps": {
            backend: {c: round(lv["qps"], 2) for c, lv in levels.items()}
            for backend, levels in sweep.items()
        },
        "levels": sweep,
        "process_scaling_8_vs_1": proc["8"]["qps"] / proc["1"]["qps"],
        "process_scaling_8_vs_4": proc["8"]["qps"] / proc["4"]["qps"],
        "paper_claim": "the serving tier scales with client concurrency; "
        "the process backend must keep that property without the GIL's "
        "help on CPU-bound coordinators",
    }
    save_result("backend_concurrency_sweep", payload)
    # The PR gate: the process backend keeps scaling up to concurrency 8.
    assert proc["8"]["qps"] >= 1.5 * proc["1"]["qps"]
    assert proc["8"]["qps"] > proc["4"]["qps"]
