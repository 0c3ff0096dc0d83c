"""Metric computation from one run.

``BENCHMARK.json`` declares each metric's unit and direction; ``MOVES``
adds what that file has no key for: for each per-layer metric, the
end-to-end metric and workload it should move (the run checks that both
name the same metrics).

Per-query figures are means over the traced queries; per-midnight
figures are means over the midnight cycles behind ``midnight_s`` and use
inclusive time, since a build's parsing and writing is its cost.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import hostspeed

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: Units and directions live in BENCHMARK.json.
MOVES = {
    "jsonlib.parse_ms": "query_p95_ms on daily-serve (cache misses parse); 0 on warm-cache",
    "jsonlib.docs_parsed": "query_p95_ms on daily-serve (cache misses parse); 0 on warm-cache",
    "jsonlib.shared_parse_frac": "query_p95_ms on daily-serve",
    "storage.read_ms": "queries_per_s/query_p50_ms on warm-cache, less on daily-serve",
    "storage.decode_ms": "queries_per_s/query_p50_ms on warm-cache, less on daily-serve",
    "storage.crc_ms": "queries_per_s/query_p50_ms on warm-cache, less on daily-serve",
    "storage.reader_opens": "queries_per_s/query_p50_ms on warm-cache, less on daily-serve",
    "storage.bytes_read": "queries_per_s/query_p50_ms on warm-cache, less on daily-serve",
    "storage.row_groups_skipped_frac": "queries_per_s/query_p50_ms on warm-cache",
    "storage.append_ms": "queries_per_s on daily-serve (per append call)",
    "engine.plan_ms": "queries_per_s on warm-cache",
    "engine.batch_compile_ms": "queries_per_s on warm-cache",
    "engine.kernel_ms": "queries_per_s on warm-cache",
    "engine.compare_calls": "queries_per_s on warm-cache",
    "engine.morsel_ms": "queries_per_s on warm-cache",
    "engine.plan_cache_hit_frac": "query_p50_ms on daily-serve",
    "core.rewrite_ms": "query_p50_ms on warm-cache and daily-serve",
    "core.combine_ms": "queries_per_s on warm-cache",
    "core.cache_hit_frac": "query_p50_ms/query_p95_ms on daily-serve",
    "core.collect_ms": "query_p50_ms on daily-serve",
    "core.predict_ms": "midnight_s on daily-serve (per midnight)",
    "core.score_ms": "midnight_s on daily-serve (per midnight)",
    "core.build_ms": "midnight_s on daily-serve; setup_s on warm-cache (per midnight)",
    "core.build_bytes_written": "midnight_s on daily-serve (per midnight)",
    "core.mpjp_precision": "cache_bytes_per_raw_byte/query_p95_ms on daily-serve",
    "core.mpjp_recall": "cache_bytes_per_raw_byte/query_p95_ms on daily-serve",
    "ml.fit_ms": "setup_s on daily-serve (per fit)",
    "server.admit_ms": "query_p95_ms on daily-serve",
    "server.overhead_ms": "query_p50_ms on daily-serve",
    "server.shed": "completed_frac on daily-serve (whole run)",
    "layer.jsonlib_ms": "per-query self time of repro.jsonlib",
    "layer.storage_ms": "per-query self time of repro.storage",
    "layer.engine_ms": "per-query self time of repro.engine",
    "layer.core_ms": "per-query self time of repro.core",
    "layer.server_ms": "per-query self time of repro.server",
    "layer.unattributed_ms": "per-query time in no wrapped function",
    "trace.wall_ms": "mean traced query wall time",
    "trace.reconcile_error_ms": "largest |sum of self times - wall| of one query; must be ~0",
    "trace.overhead_p50_ms": "traced minus untraced query_p50_ms in the same run",
    "trace.overhead_mean_ms": "traced minus untraced mean query time in the same run",
    "qm.read_ms": "program's QueryMetrics read_seconds",
    "qm.parse_ms": "program's QueryMetrics parse_seconds",
    "qm.compute_ms": "program's QueryMetrics compute_seconds (clamped at 0)",
    "qm.read_gap_ms": "qm.read_ms minus traced storage self time",
    "qm.parse_gap_ms": "qm.parse_ms minus traced jsonlib parse self time",
    "qm.compute_gap_ms": "qm.compute_ms minus traced time in neither storage nor parsing",
    "workload.repeat_frac": "share of statements already run earlier in the run",
    "workload.traced_queries": "queries behind the per-query means",
}

END_TO_END = (
    "setup_s",
    "queries_per_s",
    "query_p50_ms",
    "query_p95_ms",
    "midnight_s",
    "cache_bytes_per_raw_byte",
    "peak_rss_mb",
    "completed_frac",
)

LAYERS = ("jsonlib", "storage", "engine", "core", "server", "unattributed")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def repeat_frac(samples) -> float:
    return 1.0 - _ratio(len({s.sql for s in samples}), len(samples))


def cache_hit_frac(metrics_list) -> float:
    hits = sum(m.cache_hits for m in metrics_list)
    return _ratio(hits, hits + sum(m.cache_misses for m in metrics_list))


def end_to_end(data, adjusted: bool = True) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metrics of untraced queries, with sample counts.

    Times are host-adjusted (see hostspeed.py) unless ``adjusted`` is
    false, which gives the raw wall times."""
    scale = hostspeed.factor(data.probes) if adjusted else 1.0
    done = [s for s in data.samples if s.error is None and not s.traced]
    latencies = [s.seconds * scale * 1000.0 for s in done]
    attempted = len(data.samples)
    values = {
        "setup_s": statistics.median(data.setup_seconds) * scale,
        "queries_per_s": _ratio(
            sum(s.error is None for s in data.samples), data.query_seconds * scale
        ),
        "query_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "query_p95_ms": percentile(latencies, 95) if latencies else 0.0,
        # The mean, not the median: a daily run's midnights grow with the
        # data and differ in what they rebuild (0.5-1.9 s within one run),
        # so the median of eight jumps between the two middle days.
        "midnight_s": statistics.fmean(data.midnight_seconds) * scale,
        "cache_bytes_per_raw_byte": statistics.median(data.cache_ratios),
        "peak_rss_mb": data.peak_rss_mb,
        "completed_frac": _ratio(attempted - sum(s.error is not None for s in data.samples), attempted),
    }
    p95 = values["query_p95_ms"]
    samples = {
        "setup_s": len(data.setup_seconds),
        "queries_per_s": len([s for s in data.samples if s.error is None]),
        "query_p50_ms": len(latencies),
        "query_p95_ms": len(latencies),
        "query_p95_beyond": sum(1 for v in latencies if v > p95),
        "midnight_s": len(data.midnight_seconds),
        "cache_bytes_per_raw_byte": len(data.cache_ratios),
        "peak_rss_mb": 1,
        "completed_frac": attempted,
    }
    return values, samples


def per_layer(data, recorder) -> dict[str, float]:
    """Per-layer metrics from the traced units of one run."""
    units = recorder.units()
    by_kind: dict[str, list] = defaultdict(list)
    for unit in units.values():
        by_kind[unit.kind].append(unit)
    queries = by_kind["query"]
    traced = [s for s in data.samples if s.traced and s.error is None]
    untraced = [s for s in data.samples if not s.traced and s.error is None]
    n = len(queries)

    def per_query_self(name: str) -> float:
        return _ratio(sum(u.self_seconds.get(name, 0.0) for u in queries), n) * 1000.0

    def per_query_calls(name: str) -> float:
        return _ratio(sum(u.calls.get(name, 0) for u in queries), n)

    # The midnights midnight_s times: the ones that end a served day, or
    # on warm-cache the set-up ones.
    midnights = by_kind["midnight"] or [
        u for u in by_kind["setup"] if "core.build" in u.inclusive_seconds
    ]

    def per_midnight(name: str) -> float:
        return _ratio(
            sum(u.inclusive_seconds.get(name, 0.0) for u in midnights), len(midnights)
        ) * 1000.0

    def per_call(units_, name: str) -> float:
        calls = sum(u.calls.get(name, 0) for u in units_)
        total = sum(u.inclusive_seconds.get(name, 0.0) for u in units_)
        return _ratio(total, calls) * 1000.0

    qms = [s.metrics for s in traced]
    layers = defaultdict(float)
    for unit in queries:
        for layer, seconds in unit.layer_seconds().items():
            layers[layer] += seconds
    out = {
        "jsonlib.parse_ms": per_query_self("jsonlib.parse"),
        "jsonlib.docs_parsed": per_query_calls("jsonlib.parse"),
        "jsonlib.shared_parse_frac": _ratio(
            sum(m.shared_parse_hits for m in qms),
            sum(m.shared_parse_hits + m.parse_documents for m in qms),
        ),
        "storage.read_ms": per_query_self("storage.read"),
        "storage.decode_ms": per_query_self("storage.decode"),
        "storage.crc_ms": per_query_self("storage.crc"),
        "storage.reader_opens": per_query_calls("storage.open"),
        "storage.bytes_read": _ratio(sum(m.bytes_read for m in qms), len(qms)),
        "storage.row_groups_skipped_frac": _ratio(
            sum(m.row_groups_skipped for m in qms), sum(m.row_groups_total for m in qms)
        ),
        "storage.append_ms": per_call(by_kind["append"], "storage.append"),
        "engine.plan_ms": per_query_self("engine.plan"),
        "engine.batch_compile_ms": per_query_self("engine.batch_compile"),
        "engine.kernel_ms": per_query_self("engine.kernel"),
        "engine.compare_calls": _ratio(
            sum(u.counts.get("engine.compare", 0) for u in queries), n
        ),
        "engine.morsel_ms": per_query_self("engine.morsel"),
        "engine.plan_cache_hit_frac": _ratio(
            sum(m.extra.get("plan_cache_hits", 0) for m in qms),
            sum(
                m.extra.get("plan_cache_hits", 0) + m.extra.get("plan_cache_misses", 0)
                for m in qms
            ),
        ),
        "core.rewrite_ms": per_query_self("core.rewrite"),
        "core.combine_ms": per_query_self("core.combine"),
        "core.cache_hit_frac": cache_hit_frac(qms),
        "core.collect_ms": per_query_self("core.collect"),
        "core.predict_ms": per_midnight("core.predict"),
        "core.score_ms": per_midnight("core.score"),
        "core.build_ms": per_midnight("core.build"),
        "core.build_bytes_written": _ratio(sum(data.build_bytes), len(data.build_bytes)),
        "core.mpjp_precision": float(data.efficacy.get("mean_precision", 0.0)),
        "core.mpjp_recall": float(data.efficacy.get("mean_recall", 0.0)),
        "ml.fit_ms": per_call(by_kind["setup"], "ml.fit"),
        "server.admit_ms": per_query_self("server.admit"),
        "server.overhead_ms": _ratio(
            sum(
                u.inclusive_seconds.get("server.execute", 0.0)
                - u.inclusive_seconds.get("engine.session", 0.0)
                for u in queries
                if "server.execute" in u.inclusive_seconds
            ),
            n,
        ) * 1000.0,
        "server.shed": float(sum(1 for s in data.samples if s.shed)),
        "trace.wall_ms": _ratio(sum(u.wall for u in queries), n) * 1000.0,
        "trace.reconcile_error_ms": max(
            (u.reconcile_error() for u in units.values()), default=0.0
        ) * 1000.0,
        "workload.repeat_frac": repeat_frac(data.samples),
        "workload.traced_queries": float(n),
    }
    for layer in LAYERS:
        out[f"layer.{layer}_ms"] = _ratio(layers[layer], n) * 1000.0
    if traced and untraced:
        t_ms = [s.seconds * 1000.0 for s in traced]
        u_ms = [s.seconds * 1000.0 for s in untraced]
        out["trace.overhead_p50_ms"] = percentile(t_ms, 50) - percentile(u_ms, 50)
        out["trace.overhead_mean_ms"] = statistics.fmean(t_ms) - statistics.fmean(u_ms)
    else:
        out["trace.overhead_p50_ms"] = out["trace.overhead_mean_ms"] = 0.0
    # The program's own read/parse/compute split beside the measured one.
    qm_read = _ratio(sum(m.read_seconds for m in qms), len(qms)) * 1000.0
    qm_parse = _ratio(sum(m.parse_seconds for m in qms), len(qms)) * 1000.0
    qm_compute = _ratio(sum(m.compute_seconds for m in qms), len(qms)) * 1000.0
    out["qm.read_ms"] = qm_read
    out["qm.parse_ms"] = qm_parse
    out["qm.compute_ms"] = qm_compute
    out["qm.read_gap_ms"] = qm_read - out["layer.storage_ms"]
    out["qm.parse_gap_ms"] = qm_parse - out["jsonlib.parse_ms"]
    out["qm.compute_gap_ms"] = qm_compute - (
        out["trace.wall_ms"] - out["layer.storage_ms"] - out["jsonlib.parse_ms"]
    )
    return out
