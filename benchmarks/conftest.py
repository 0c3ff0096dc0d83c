"""Shared environment for the paper-reproduction benchmarks.

Every bench regenerates one table or figure of the paper's evaluation
(§II motivation + §V). Because the substrate is a single-process simulator
rather than a 22-node cluster, absolute numbers differ from the paper;
the *shape* of each result (who wins, by roughly what factor, where the
crossovers fall) is the reproduction target. Each bench writes its series
to ``benchmarks/results/<name>.json`` so EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import MaxsonConfig, MaxsonSystem, PredictorConfig
from repro.engine import Session
from repro.storage import BlockFileSystem
from repro.workload import (
    SyntheticTrace,
    TraceConfig,
    build_queries,
    load_tables,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: The bench roll-up: every series saved through :func:`save_result` is
#: merged here as one section. The older ``BENCH_pr*.json`` files at the
#: repo root are a frozen history and are never rewritten.
ROLLUP_PATH = Path(__file__).parent.parent / "BENCH_rollup.json"

#: Scale knobs: the paper uses 20M rows/table on 22 nodes; the simulator
#: uses this many rows per Table II table (split over 3 daily files).
ROWS_PER_TABLE = 900
ROW_GROUP_SIZE = 100
METRIC_THRESHOLD = 9000  # Q2/Q9 predicate selectivity (~top decile)


def save_result(name: str, payload: dict) -> Path:
    """Persist one bench's series for EXPERIMENTS.md.

    Writes ``benchmarks/results/<name>.json`` and merges the series into
    the roll-up as section ``name`` (read-modify-write, so benches
    contribute independently of run order and of which subset ran).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    rollup: dict = {}
    if ROLLUP_PATH.exists():
        try:
            rollup = json.loads(ROLLUP_PATH.read_text())
        except json.JSONDecodeError:
            rollup = {}
    rollup[name] = payload
    ROLLUP_PATH.write_text(json.dumps(rollup, indent=2, sort_keys=True) + "\n")
    return path


class BenchEnv:
    """Table II tables + the ten representative queries + a Maxson system."""

    def __init__(self) -> None:
        self.session = Session(fs=BlockFileSystem())
        self.factories = load_tables(
            self.session.catalog,
            rows_per_table=ROWS_PER_TABLE,
            days=3,
            row_group_size=ROW_GROUP_SIZE,
        )
        self.queries = build_queries(
            self.factories, metric_threshold=METRIC_THRESHOLD
        )
        self.system = MaxsonSystem(
            session=self.session,
            config=MaxsonConfig(predictor=PredictorConfig(model="oracle")),
        )
        self._record_history()
        self.candidates = self.system.collector.universe
        self.records = self.system.collector.queries_between(0, 2)

    def _record_history(self) -> None:
        """Three days of history: each query fires twice per day (the
        spatial correlation that makes every queried path an MPJP)."""
        for query in self.queries.values():
            planned = self.session.compile(query.sql)
            for day in range(3):
                for _ in range(2):
                    self.system.collector.record_planned(
                        day, planned.referenced_json_paths
                    )
        self.system.current_day = 2

    # ------------------------------------------------------------------
    def total_candidate_bytes(self) -> int:
        """Bytes needed to cache every candidate MPJP (the '400GB' point)."""
        return sum(
            self.system.scoring.measure(key).estimated_total_bytes
            for key in self.candidates
        )

    def cache_with_budget(self, budget_bytes: int, strategy: str = "score"):
        """(Re)populate the cache under a byte budget."""
        return self.system.cache_paths_directly(
            self.candidates,
            budget_bytes=budget_bytes,
            strategy=strategy,
            records=self.records,
        )

    def drop_cache(self) -> None:
        self.system.cacher.drop_all()

    def run_all(self, use_maxson: bool) -> dict[str, object]:
        """Execute the ten queries; returns per-query metrics."""
        out: dict[str, object] = {}
        for query_id, query in self.queries.items():
            if use_maxson:
                result = self.system.sql(query.sql)
            else:
                result = self.system.baseline_sql(query.sql)
            out[query_id] = result
        return out


@pytest.fixture(scope="session")
def env() -> BenchEnv:
    return BenchEnv()


@pytest.fixture(scope="session")
def trace() -> SyntheticTrace:
    """The synthetic five-month-style trace used by the workload and
    predictor benches (scaled to stay minutes-fast)."""
    return SyntheticTrace(
        TraceConfig(days=42, users=24, tables=14, seed=11, burst_fraction=0.5)
    )


def once(benchmark, fn):
    """Run an expensive scenario exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
