"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm-cache --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``, with
every time host-adjusted (see ``hostspeed.py``; the raw wall times are
in the run record);
``--trace 1`` wraps the program's layer functions (see ``tracing.py``)
and reports the per-layer metrics instead, from the traced queries of a
run that interleaves traced and untraced queries.

Every metric is printed by name with its unit, then one JSON line with
the run record (machine, commit, seed, sample counts, guards, the
program's own read/parse/compute split next to the traced one), then the
result line ``{"correct", "attempted", "failed", "metrics"}`` last.

Exit codes: 0 a valid run; 1 an answer differed from the plain engine's;
2 the program or the benchmark files are missing; 3 a workload guard
failed, so the run measures something other than its workload and is
invalid; 4 the generated inputs differ from ``pinned_inputs.json``.

``--pin-inputs FIRST-LAST`` regenerates the pinned input digests of every
workload for that seed range and rewrites ``pinned_inputs.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned_inputs.json"
FAMILY = {"warm-cache": "loop", "daily-serve": "daily"}


def _machine() -> dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
    }


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _declared_units(metrics) -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics in BENCHMARK.json,
    after checking that it names the metrics this benchmark computes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(e2e) != set(metrics.END_TO_END) or set(layer) != set(metrics.MOVES):
        raise ValueError("its metrics disagree with perfbench/metrics.py")
    return e2e, layer


def _guards(name: str, data, metrics) -> dict[str, bool]:
    """Properties each workload was chosen for; any False voids the run."""
    done = [s.metrics for s in data.samples if s.error is None]
    hit = metrics.cache_hit_frac(done)
    repeat = metrics.repeat_frac(data.samples)
    if name == "warm-cache":
        return {
            "no_json_parsed": sum(m.parse_documents for m in done) == 0,
            "cache_hit_frac_is_1": hit == 1.0,
            "no_repeated_statements": repeat == 0.0,
        }
    return {
        "scorer_selects_subset": all(s < c for s, c in data.selection),
        "cache_hit_frac_between_0_and_1": 0.0 < hit < 1.0,
        "repeat_frac_about_0.8": 0.7 <= repeat <= 0.9,
    }


def _pin(first: int, last: int) -> int:
    import inputs

    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for seed in range(first, last + 1):
        for family, generate in inputs.GENERATORS.items():
            pin = generate(seed).pin()
            for workload in (w for w, f in FAMILY.items() if f == family):
                pinned.setdefault(workload, {})[str(seed)] = pin
        print(f"pinned seed {seed}", flush=True)
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(FAMILY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-inputs", metavar="FIRST-LAST")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: program source src/repro not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.pin_inputs:
        first, _, last = args.pin_inputs.partition("-")
        return _pin(int(first), int(last or first))
    if args.workload is None:
        parser.error("--workload is required")

    import hostspeed
    import inputs
    import metrics
    import tracing
    import workloads

    try:
        e2e_units, layer_units = _declared_units(metrics)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    run_started = time.perf_counter()
    generated = inputs.GENERATORS[FAMILY[args.workload]](args.seed)
    generate_seconds = time.perf_counter() - run_started
    pin = generated.pin()
    expected = json.loads(PINNED.read_text()).get(args.workload, {}).get(str(args.seed))
    if expected is not None and expected != pin:
        print(
            f"error: inputs for {args.workload} seed {args.seed} differ from "
            f"pinned_inputs.json: {pin} != {expected}",
            file=sys.stderr,
        )
        return 4

    recorder = tracing.Recorder() if args.trace else None
    try:
        data = workloads.run(args.workload, generated, args.seconds, recorder)
    except workloads.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    e2e, samples = metrics.end_to_end(data)
    raw_e2e, _ = metrics.end_to_end(data, adjusted=False)
    guards = _guards(args.workload, data, metrics)
    if recorder is not None:
        layer = metrics.per_layer(data, recorder)
        guards["trace_reconciles"] = layer["trace.reconcile_error_ms"] < 1e-3
        if args.workload == "warm-cache":
            guards["traced_no_json_parsed"] = layer["jsonlib.docs_parsed"] == 0
            guards["traced_cache_hit_frac_is_1"] = layer["core.cache_hit_frac"] == 1.0
        recorder.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        reported = {k: (v, layer_units[k]) for k, v in layer.items()}
    else:
        reported = {k: (v, e2e_units[k]) for k, v in e2e.items()}

    failed = sum(1 for s in data.samples if s.error is not None)
    correct = not data.mismatches
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **_machine(),
        "commit": _commit(),
        "inputs": {**pin, "pinned": expected is not None, "generate_s": generate_seconds},
        "run_s": time.perf_counter() - run_started,
        "phase_s": data.phase_seconds,
        "measured_s": data.query_seconds,
        "samples": samples,
        "p95_valid": samples["query_p95_beyond"] >= 10,
        "end_to_end": e2e,
        "repeat_frac": metrics.repeat_frac(data.samples),
        "raw_end_to_end": raw_e2e,
        "host_factor": hostspeed.factor(data.probes),
        "raw_setup_s": data.setup_seconds,
        "raw_midnight_s": data.midnight_seconds,
        "probe_ms": [min(data.probes) * 1e3, max(data.probes) * 1e3],
        "guards": guards,
        "answers_checked": data.answers_checked,
        "mismatches": data.mismatches[:5],
        "errors": sorted({s.error for s in data.samples if s.error})[:5],
    }
    for name, (value, unit) in reported.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        if name in metrics.MOVES:
            note = f"  moves: {metrics.MOVES[name]}"
        print(f"{name:34s} {value:16.6f} {unit:6s}{note}")
    print(json.dumps(record, sort_keys=True, default=str))
    if not all(guards.values()):
        failed_guards = [k for k, ok in guards.items() if not ok]
        print(f"error: workload guard failed: {failed_guards}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": correct,
        "attempted": len(data.samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
