"""Benchmark-side spans around the public functions of each layer.

The program has no tracing of its own on this path, so the traced run
wraps functions from the outside: :func:`install` replaces class and
module attributes of ``repro.jsonlib``, ``repro.storage``,
``repro.engine``, ``repro.core`` and ``repro.server`` with wrappers that
record a span (id, parent, name, start, end, unit) while the calling
thread is inside a traced *unit* — one query, midnight, append or
set-up opened with :meth:`Recorder.unit`. Outside a unit a wrapper calls
straight through, so untraced queries in the same run pay one attribute
lookup per call.

Module functions are replaced where the calling module looks them up
(``repro.storage.orc.decode_column``, not ``repro.storage.codec``), since
``from x import f`` binds a second name.

Spans stay in memory until :meth:`Recorder.write` saves them at the end
of the run. A span's *self time* is its duration minus the part of it
that its children cover. Within one unit every call runs on one thread,
so children nest inside their parent without overlapping, and the self
times of a unit add up to its root span; a span that escaped its parent
or overlapped a sibling would break that sum, which the run checks.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT = "unit"


def _targets():
    """(owner, attribute, span name) for every wrapped function."""
    import repro.engine.batch as batch
    import repro.engine.expressions as expressions
    import repro.engine.parallel as parallel
    import repro.storage.orc as orc
    from repro.core.cacher import JsonPathCacher
    from repro.core.collector import JsonPathCollector
    from repro.core.combiner import MaxsonScanExec
    from repro.core.maxson_parser import MaxsonPlanModifier
    from repro.core.predictor import JsonPathPredictor
    from repro.core.scoring import ScoringFunction
    from repro.engine import physical
    from repro.engine.batch import BatchCompiler
    from repro.engine.catalog import Catalog
    from repro.engine.session import Session
    from repro.jsonlib.jackson import JacksonParser
    from repro.jsonlib.mison import MisonParser
    from repro.server.admission import AdmissionController
    from repro.server.service import MaxsonServer
    from repro.storage.fs import BlockFileSystem

    targets = [
        (JacksonParser, "parse", "jsonlib.parse"),
        (MisonParser, "parse", "jsonlib.parse"),
        (MisonParser, "project", "jsonlib.parse"),
        (BlockFileSystem, "read", "storage.fs_read"),
        (orc.OrcFileReader, "__init__", "storage.open"),
        (orc.OrcFileReader, "read_columns", "storage.read"),
        (orc, "decode_column", "storage.decode"),
        (orc, "checksum_of", "storage.crc"),
        (Catalog, "append_rows", "storage.append"),
        (Session, "sql", "engine.session"),
        (Session, "compile", "engine.plan"),
        (BatchCompiler, "compile", "engine.batch_compile"),
        (parallel, "_run_morsels", "engine.morsel"),
        (parallel.MorselPipelineExec, "execute_batch", "engine.kernel"),
        (parallel.MorselPipelineExec, "_process_batch", "engine.kernel"),
        (parallel.MorselAggregateExec, "execute_batch", "engine.kernel"),
        (parallel.MorselAggregateExec, "_partials", "engine.kernel"),
        (MaxsonPlanModifier, "modify", "core.rewrite"),
        (MaxsonScanExec, "run_morsel", "core.combine"),
        (MaxsonScanExec, "execute_batch", "core.combine"),
        (JsonPathCollector, "record_planned", "core.collect"),
        (JsonPathPredictor, "predict", "core.predict"),
        (JsonPathPredictor, "fit", "ml.fit"),
        (ScoringFunction, "score", "core.score"),
        (ScoringFunction, "select_within_budget", "core.score"),
        (JsonPathCacher, "populate", "core.build"),
        (AdmissionController, "acquire", "server.admit"),
        (MaxsonServer, "execute", "server.execute"),
    ]
    for cls in (
        physical.ScanExec,
        physical.FilterExec,
        physical.ProjectExec,
        physical.SortExec,
        physical.LimitExec,
        physical.AggregateExec,
        physical.HashJoinExec,
    ):
        for attribute in ("execute_batch", "run_morsel"):
            if attribute in vars(cls):
                targets.append((cls, attribute, "engine.kernel"))
    counted = [
        (batch, "_null_safe_compare", "engine.compare"),
        (expressions, "_null_safe_compare", "engine.compare"),
    ]
    return targets, counted


class Recorder:
    """In-memory span store plus per-unit call counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = {}
        self.unit_kinds: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        targets, counted = _targets()
        for owner, attribute, name in targets:
            setattr(owner, attribute, self._span_wrapper(name, getattr(owner, attribute)))
        for owner, attribute, name in counted:
            setattr(owner, attribute, self._count_wrapper(name, getattr(owner, attribute)))

    def _span_wrapper(self, name: str, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, local.unit))

        return wrapper

    def _count_wrapper(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "stack", None):
                local.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- units ------------------------------------------------------------
    @contextmanager
    def unit(self, kind: str, unit_id: str):
        """Trace everything this thread calls inside the block as one unit."""
        local = self._local
        root = next(self._ids)
        local.stack = [root]
        local.unit = unit_id
        local.counts = Counter()
        self.unit_kinds[unit_id] = kind
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            local.stack = None
            self.counts[unit_id] = local.counts
            self.spans.append((root, 0, ROOT, start, end, unit_id))

    # -- analysis ---------------------------------------------------------
    def units(self) -> dict[str, "UnitProfile"]:
        grouped: dict[str, list[tuple]] = defaultdict(list)
        for span in self.spans:
            grouped[span[5]].append(span)
        return {
            unit_id: UnitProfile(
                unit_id, self.unit_kinds[unit_id], spans, self.counts.get(unit_id, Counter())
            )
            for unit_id, spans in grouped.items()
        }

    def write(self, path) -> None:
        """Save every span as one JSON line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span_id, parent, name, start, end, unit_id in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "unit": unit_id,
                    "kind": self.unit_kinds[unit_id],
                }) + "\n")


class UnitProfile:
    """Self time and inclusive time per span name within one unit."""

    def __init__(self, unit_id: str, kind: str, spans: list[tuple], counts: Counter):
        self.unit_id = unit_id
        self.kind = kind
        self.counts = counts
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, parent, name, start, end, _ in spans:
            if parent:
                children[parent].append((start, end))
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.inclusive_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.wall = 0.0
        names = {span[0]: span[2] for span in spans}
        for span_id, parent, name, start, end, _ in spans:
            duration = end - start
            self.self_seconds[name] += duration - _covered(start, end, children[span_id])
            self.calls[name] += 1
            if name == ROOT:
                self.wall = duration
            elif names.get(parent) != name:
                # Count a recursive call's time once, at its outermost span.
                self.inclusive_seconds[name] += duration

    def layer_seconds(self) -> dict[str, float]:
        """Self time summed per layer; the root's own is 'unattributed'."""
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_seconds.items():
            layer = "unattributed" if name == ROOT else name.split(".", 1)[0]
            layers[layer] += seconds
        return layers

    def reconcile_error(self) -> float:
        """|sum of self times - wall|: 0 up to rounding when every span
        lies inside its parent and siblings do not overlap."""
        return abs(sum(self.self_seconds.values()) - self.wall)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered
