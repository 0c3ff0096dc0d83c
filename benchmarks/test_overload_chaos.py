"""Overload chaos bench: 2× sustainable QPS with deadlines armed.

Calibrates the server's sustainable throughput on a slow-split (latency
spike) fault profile, then offers the same workload at twice that rate
with a per-request deadline. The acceptance gates — also enforced by the
CI chaos job — are:

* **shed-rate < 50%**: deadline-aware admission sheds the excess load,
  not the majority of it;
* **zero wrong or partial answers**: every completed result matches the
  fault-free baseline bit-for-bit; shed and timed-out requests raise and
  return nothing;
* **p99 of completed queries ≤ deadline + slack**: the deadline actually
  bounds served latency instead of merely annotating it.

The series rolls into the bench roll-up (``BENCH_rollup.json``).
"""

from __future__ import annotations

import time

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import DeadlineExceededError, QueryCancelledError, Session
from repro.faults import FaultPolicy, FaultyFileSystem
from repro.server import AdmissionError, MaxsonServer, ServerConfig
from repro.server.status import percentile
from repro.workload import build_queries, load_tables

from .conftest import once, save_result

DEADLINE_SECONDS = 0.3
#: Unwind allowance on top of the deadline: one injected latency spike
#: (the largest atomic step between cooperative checks) plus scheduler
#: noise on a loaded CI box.
SLACK_SECONDS = 0.5
CALIBRATION_REQUESTS = 32
OVERLOAD_REQUESTS = 64


def build_stack():
    faulty = FaultyFileSystem()
    session = Session(fs=faulty)
    system = MaxsonSystem(
        session=session,
        config=MaxsonConfig(predictor=PredictorConfig(model="always")),
    )
    factories = load_tables(system.catalog, rows_per_table=60, days=2)
    queries = build_queries(factories)
    # Tail-latency chaos: a quarter of reads stall 10ms.
    faulty.policy = FaultPolicy(
        seed=17, latency_spike_rate=0.25, latency_spike_seconds=0.01
    )
    return system, queries


def server_config() -> ServerConfig:
    # Pool wider than the tenant slots so overload actually queues at
    # admission (where deadline-aware shedding lives) instead of hiding
    # in the executor's unbounded backlog.
    return ServerConfig(
        max_workers=16,
        per_tenant_limit=1,
        queue_capacity=6,
        admission_timeout_seconds=1.0,
        retry_backoff_seconds=0.0,
        max_query_retries=8,
    )


def _workload(queries, n):
    ranked = list(queries.values())
    return [ranked[i % len(ranked)] for i in range(n)]


def test_overload_chaos(benchmark):
    system, queries = build_stack()

    def run():
        with MaxsonServer(system, server_config()) as server:
            # ---- calibration: sustainable QPS, no deadlines ----------
            # Sustainable QPS: end-to-end completion rate of a closed
            # burst through the same config. The measurement includes
            # the burst's own queueing, so it reads *conservative* —
            # which is the right bias here: at exactly 2× true capacity
            # the theoretical shed floor is 50%, and the <50% gate
            # would be unfalsifiably on the boundary.
            calibration = _workload(queries, CALIBRATION_REQUESTS)
            started = time.perf_counter()
            futures = [
                server.submit(q.sql, tenant=f"t-{i % 2}")
                for i, q in enumerate(calibration)
            ]
            calibrated = 0
            for future in futures:
                try:
                    future.result()
                    calibrated += 1
                except AdmissionError:
                    pass  # the calibration burst overflowed the queue
            sustainable_qps = max(calibrated, 1) / (
                time.perf_counter() - started
            )

            # ---- overload: 2× sustainable offered rate, deadlines on -
            offered_qps = 2.0 * sustainable_qps
            interarrival = 1.0 / offered_qps
            overload = _workload(queries, OVERLOAD_REQUESTS)
            outcomes = {"completed": 0, "shed": 0, "deadline": 0, "other": 0}
            latencies: list[float] = []
            results: list[tuple[str, object]] = []
            pending = []
            for i, query in enumerate(overload):
                pending.append(
                    (
                        query.sql,
                        server.submit(
                            query.sql,
                            tenant=f"t-{i % 2}",
                            deadline_ms=DEADLINE_SECONDS * 1000,
                        ),
                    )
                )
                time.sleep(interarrival)
            for sql, future in pending:
                try:
                    result = future.result()
                except AdmissionError:
                    outcomes["shed"] += 1
                except DeadlineExceededError:
                    outcomes["deadline"] += 1
                except QueryCancelledError:
                    outcomes["other"] += 1
                else:
                    outcomes["completed"] += 1
                    latencies.append(result.metrics.total_seconds)
                    results.append((sql, result))

            # ---- verification: completed answers are exactly right ---
            baselines: dict[str, list[str]] = {}
            mismatched = 0
            for sql, result in results:
                if sql not in baselines:
                    baselines[sql] = sorted(
                        map(str, server.system.baseline_sql(sql).rows)
                    )
                if sorted(map(str, result.rows)) != baselines[sql]:
                    mismatched += 1
            status = server.status()
        return sustainable_qps, offered_qps, outcomes, latencies, mismatched, status

    sustainable_qps, offered_qps, outcomes, latencies, mismatched, status = (
        once(benchmark, run)
    )

    latencies.sort()
    shed_rate = (outcomes["shed"] + outcomes["deadline"]) / OVERLOAD_REQUESTS
    p99 = percentile(latencies, 0.99)
    payload = {
        "sustainable_qps": sustainable_qps,
        "offered_qps": offered_qps,
        "deadline_seconds": DEADLINE_SECONDS,
        "slack_seconds": SLACK_SECONDS,
        "requests": OVERLOAD_REQUESTS,
        "outcomes": outcomes,
        "shed_rate": shed_rate,
        "completed_p50_seconds": percentile(latencies, 0.50),
        "completed_p99_seconds": p99,
        "mismatched": mismatched,
        "shed_breakdown": dict(status.shed_breakdown),
        "latency_spikes_injected": int(
            system.session.fs.policy.counters.latency_spikes
        ),
        "gates": {
            "shed_rate_lt_50pct": shed_rate < 0.5,
            "zero_wrong_answers": mismatched == 0,
            "p99_within_deadline_plus_slack": p99
            <= DEADLINE_SECONDS + SLACK_SECONDS,
        },
    }
    save_result("overload_chaos", payload)

    # The gates themselves.
    assert mismatched == 0, "an overloaded query returned wrong rows"
    assert shed_rate < 0.5, f"shed rate {shed_rate:.1%} exceeds 50%"
    assert p99 <= DEADLINE_SECONDS + SLACK_SECONDS
    assert outcomes["completed"] > 0
    assert (
        outcomes["completed"]
        + outcomes["shed"]
        + outcomes["deadline"]
        + outcomes["other"]
        == OVERLOAD_REQUESTS
    )
