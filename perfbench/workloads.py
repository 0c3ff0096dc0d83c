"""The benchmark workloads, driven through the program's public APIs.

* ``warm-cache`` — one client, closed loop over the ten Table II shapes
  in turn (Q1, Q2, ..., Q10, Q1, ...) after set-up has cached every
  candidate path (Fig 11 at 100% budget): no JSON parsing is left,
  storage decode, combiner stitching and engine kernels do the work.
  Statements never repeat, so the plan cache cannot hide that work.
* ``daily-serve`` — :data:`~inputs.TENANTS` tenant threads, each a
  closed loop against :class:`repro.server.MaxsonServer` over
  :data:`~inputs.SERVE_DAYS` virtual days. Statements recur as in the
  trace model; mid-day every table receives its next day's rows, which
  invalidates its cache until the next midnight; each midnight runs
  predict -> score -> build -> swap with the LSTM+CRF predictor under a
  budget of about half the candidate bytes.

The file system is the in-memory ``BlockFileSystem`` with no read
latency, so the figures are this machine's CPU time, not a device's.
Every program setting keeps its default except the daily cache budget.

The measured process holds the inputs and the system under test and
nothing else heavy: the answer check and the extra set-ups behind the
``setup_s`` median run in :class:`Helper` processes forked before the
system under test exists, so neither their memory nor their garbage
reaches the measured process. The measured process waits while the
helpers work, so they never compete with it for the CPU.

The host's speed swings by up to 2x in phases of seconds to minutes, so
the run probes it (:mod:`hostspeed`) before and after every timed piece
of work (a slice of queries, a set-up, a midnight) and reports its times
adjusted by the median probe. A run also does not measure in one block:
it splits the measured queries into slices and lets the helpers work
between them, which spreads every metric's samples over the whole run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import random
import resource
import threading
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core import MaxsonConfig, MaxsonSystem
from repro.engine import Session
from repro.server import AdmissionError, MaxsonServer
from repro.storage import BlockFileSystem
from repro.workload import PathKey
from repro.workload.tables import table_schema

import hostspeed
import inputs as inputs_mod

#: Set-ups per run; setup_s is their median. On warm-cache each set-up
#: ends with the cache build that midnight_s times.
SETUPS = {"warm-cache": 7, "daily-serve": 3}
#: Slices the warm-cache queries are measured in.
SLICES = 10
#: History days the daily predictor trains on (each has a full window).
TRAIN_DAYS = list(range(inputs_mod.HISTORY_DAYS - 3, inputs_mod.HISTORY_DAYS))


class BenchmarkError(Exception):
    """The run cannot produce a valid result (exit without a result)."""


@dataclass
class Sample:
    """One attempted query."""

    sql: str
    epoch: int
    seconds: float
    traced: bool
    metrics: object = None
    answer: str | None = None
    rows: list | None = None
    error: str | None = None
    shed: bool = False


@dataclass
class RunData:
    """What a workload hands back for metrics and checks."""

    samples: list[Sample] = field(default_factory=list)
    #: Wall seconds the queries were measured for.
    query_seconds: float = 0.0
    setup_seconds: list[float] = field(default_factory=list)
    midnight_seconds: list[float] = field(default_factory=list)
    #: Host-speed probes taken around the timed work (see hostspeed).
    probes: list[float] = field(default_factory=list)
    cache_ratios: list[float] = field(default_factory=list)
    build_bytes: list[int] = field(default_factory=list)
    selection: list[tuple[int, int]] = field(default_factory=list)
    #: Growth of the measured process's peak RSS over the run.
    peak_rss_mb: float = 0.0
    efficacy: dict = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    answers_checked: int = 0
    #: Wall seconds per phase of the run (set-up, queries, midnights, ...).
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def add_phase(self, name: str, started: float) -> None:
        self.phase_seconds[name] = (
            self.phase_seconds.get(name, 0.0) + time.perf_counter() - started
        )

    def add_setup(self, other: "RunData") -> None:
        """Take in the figures of a set-up run elsewhere."""
        self.setup_seconds += other.setup_seconds
        self.midnight_seconds += other.midnight_seconds
        self.probes += other.probes
        self.cache_ratios += other.cache_ratios
        self.build_bytes += other.build_bytes
        self.selection += other.selection


def answer_digest(sql: str, rows: list[dict]) -> str:
    """Order-insensitive digest of a result, unless the SQL orders it."""
    lines = [json.dumps(row, sort_keys=True, default=repr) for row in rows]
    if " order by " not in sql:
        lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _keys(inputs, shape: str) -> list[PathKey]:
    database, table, column, paths = inputs.shapes[shape]
    return [PathKey(database, table, column, path) for path in paths]


def _ingest(session: Session, inputs, days: int) -> None:
    catalog = session.catalog
    for shape, per_day in inputs.days.items():
        database, table, _, _ = inputs.shapes[shape]
        catalog.create_table(database, table, table_schema())
        for rows in per_day[:days]:
            catalog.append_rows(database, table, rows)


def _append_day(session: Session, inputs, day: int) -> None:
    for shape, per_day in inputs.days.items():
        database, table, _, _ = inputs.shapes[shape]
        session.catalog.append_rows(database, table, per_day[day])


class Reference:
    """The plain engine over the same rows, for the answer check."""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.session = Session(fs=BlockFileSystem())
        _ingest(self.session, inputs, inputs_mod.INITIAL_DAYS)
        self.system = MaxsonSystem(session=self.session)
        self.epoch = 0
        self.answers: dict[str, str] = {}

    def daily_budget(self) -> int:
        """About half the bytes of every candidate path."""
        candidates = [key for shape in self.inputs.shapes for key in _keys(self.inputs, shape)]
        return sum(
            self.system.scoring.measure(key).estimated_total_bytes for key in candidates
        ) // 2

    def append_next_day(self) -> None:
        _append_day(self.session, self.inputs, inputs_mod.INITIAL_DAYS + self.epoch)
        self.epoch += 1
        self.answers.clear()

    def check(self, epoch: int, answers: list[tuple[str, str]]) -> list[str]:
        """The statements whose answer digest differs from the plain
        engine's; ``epoch`` is the number of days appended since set-up."""
        if epoch != self.epoch:
            raise BenchmarkError(f"answers of epoch {epoch} checked at epoch {self.epoch}")
        wrong = []
        for sql, answer in answers:
            if sql not in self.answers:
                self.answers[sql] = answer_digest(sql, self.system.baseline_sql(sql).rows)
            if answer != self.answers[sql]:
                wrong.append(sql)
        return wrong


def _helper_main(conn, name: str, inputs, inherited: list) -> None:
    """A helper process: serves check / append / setup requests.

    ``inherited`` are the measured process's ends of the helpers' pipes,
    copied by the fork; closing them lets every helper see the end of its
    pipe, and exit, if the measured process dies.
    """
    for other in inherited:
        other.close()
    try:
        reference = Reference(inputs)
        budget = reference.daily_budget() if name == "daily-serve" else 0
    except Exception as exc:  # noqa: BLE001 - reported to the measured process
        conn.send(("error", f"reference: {type(exc).__name__}: {exc}"))
        return
    conn.send(("ok", budget))
    while True:
        request, *args = conn.recv()
        if request == "stop":
            return
        try:
            if request == "check":
                value = reference.check(*args)
            elif request == "append":
                value = reference.append_next_day()
            else:
                gc.collect()
                value = RunData()
                if name == "daily-serve":
                    _daily_setup(inputs, budget, value).shutdown()
                else:
                    _loop_setup(inputs, value)
        except Exception as exc:  # noqa: BLE001 - reported to the measured process
            conn.send(("error", f"{request}: {type(exc).__name__}: {exc}"))
        else:
            conn.send(("ok", value))


class Helper:
    """The reference system and the extra set-ups, in forked processes.

    One helper process per core, each with its own reference system, so
    the answer check, which runs plain-engine queries that cost several
    times more than the cached ones it checks, uses every core while the
    measured process waits. Set-ups run on the first helper alone. The
    helpers are forked before the system under test and before any
    tracing wrapper exists; every call blocks until they have answered.
    """

    def __init__(self, name: str, inputs) -> None:
        context = multiprocessing.get_context("fork")
        self._processes = []
        self._conns = []
        try:
            for index in range(len(os.sched_getaffinity(0))):
                conn, child = context.Pipe()
                process = context.Process(
                    target=_helper_main,
                    args=(child, name, inputs, [*self._conns, conn]),
                    name=f"bench-helper-{index}",
                    daemon=True,
                )
                process.start()
                child.close()
                self._processes.append(process)
                self._conns.append(conn)
            #: The daily-serve cache budget (0 on warm-cache).
            self.budget = [self._receive(conn) for conn in self._conns][0]
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _receive(conn):
        try:
            status, value = conn.recv()
        except EOFError:
            raise BenchmarkError("helper process ended") from None
        if status != "ok":
            raise BenchmarkError(f"helper: {value}")
        return value

    def setup(self) -> RunData:
        """One more set-up, on the first helper."""
        self._conns[0].send(("setup",))
        return self._receive(self._conns[0])

    def append_day(self) -> None:
        for conn in self._conns:
            conn.send(("append",))
        for conn in self._conns:
            self._receive(conn)

    def check(self, epoch: int, samples: list[Sample], data: RunData) -> None:
        """Check every completed sample against the plain engine. Each
        statement goes to one helper, chosen by its text, so a recurring
        statement is answered once per epoch."""
        shares: list[list[tuple[str, str]]] = [[] for _ in self._conns]
        for sample in samples:
            if sample.error is not None:
                continue
            if sample.answer is None:
                sample.answer = answer_digest(sample.sql, sample.rows)
                sample.rows = None
            share = zlib.crc32(sample.sql.encode()) % len(shares)
            shares[share].append((sample.sql, sample.answer))
        for conn, answers in zip(self._conns, shares):
            conn.send(("check", epoch, answers))
        for conn, answers in zip(self._conns, shares):
            data.mismatches += self._receive(conn)
            data.answers_checked += len(answers)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=30)
            if process.is_alive():
                process.terminate()
                process.join()
        for conn in self._conns:
            conn.close()


def _spread(count: int, slots: int) -> list[int]:
    """How many of ``count`` jobs to run after each of ``slots`` slices,
    placed evenly."""
    placed = [0] * slots
    for index in range(count):
        placed[min(slots - 1, (index + 1) * slots // (count + 1))] += 1
    return placed


def _unit(recorder, kind: str, unit_id: str):
    return recorder.unit(kind, unit_id) if recorder is not None else nullcontext()


# ----------------------------------------------------------------------
# warm-cache
# ----------------------------------------------------------------------
def _loop_setup(inputs, data: RunData) -> MaxsonSystem:
    data.probes.append(hostspeed.probe())
    started = time.perf_counter()
    session = Session(fs=BlockFileSystem())
    _ingest(session, inputs, inputs_mod.INITIAL_DAYS)
    system = MaxsonSystem(session=session)
    _first_midnight(system, inputs, data)
    data.setup_seconds.append(time.perf_counter() - started)
    data.probes.append(hostspeed.probe())
    return system


def _first_midnight(system: MaxsonSystem, inputs, data: RunData) -> None:
    """Cache every path the ten shapes parse (Fig 11 at 100% budget).

    The statistics are a day on which every shape ran twice, so every
    path is a candidate MPJP; the default budget holds them all.
    """
    for shape in inputs.shapes:
        for _ in range(2):
            system.collector.record_query(0, _keys(inputs, shape))
    started = time.perf_counter()
    report = system.cache_paths_directly(system.collector.universe)
    data.midnight_seconds.append(time.perf_counter() - started)
    data.build_bytes.append(report.build.bytes_written)
    data.cache_ratios.append(system.registry.total_bytes() / inputs.raw_json_bytes())


def run_loop(inputs, seconds: float, recorder, helper: Helper) -> RunData:
    data = RunData()
    rss_before = _peak_rss_mb()
    phase = time.perf_counter()
    with _unit(recorder, "setup", "setup-0"):
        system = _loop_setup(inputs, data)
    data.add_phase("setup", phase)
    spares = _spread(SETUPS["warm-cache"] - 1, SLICES)
    shapes = len(inputs.shapes)
    statements = iter(inputs.loop)
    count = 0
    checked = 0
    for index in range(SLICES):
        data.probes.append(hostspeed.probe())
        phase = time.perf_counter()
        # Whole rounds of the ten shapes, so every slice has the same mix.
        while data.query_seconds < seconds * (index + 1) / SLICES or count % shapes:
            sql = next(statements, None)
            if sql is None:
                break
            # The traced run traces every other round, so traced and
            # untraced queries share the mix and the time.
            traced = recorder is not None and (count // shapes) % 2 == 1
            count += 1
            sample = Sample(sql, 0, 0.0, traced)
            started = time.perf_counter()
            try:
                with _unit(recorder if traced else None, "query", f"q{count}"):
                    result = system.sql(sql)
            except Exception as exc:  # noqa: BLE001 - counted as a failed query
                sample.seconds = time.perf_counter() - started
                sample.error = f"{type(exc).__name__}: {exc}"
            else:
                sample.seconds = time.perf_counter() - started
                sample.metrics = result.metrics
                sample.answer = answer_digest(sql, result.rows)
            data.query_seconds += sample.seconds
            data.samples.append(sample)
        data.add_phase("queries", phase)
        data.probes.append(hostspeed.probe())
        phase = time.perf_counter()
        helper.check(0, data.samples[checked:], data)
        checked = len(data.samples)
        data.add_phase("check", phase)
        phase = time.perf_counter()
        for _ in range(spares[index]):
            data.add_setup(helper.setup())
        data.add_phase("extra", phase)
    data.peak_rss_mb = _peak_rss_mb() - rss_before
    data.efficacy = system.efficacy.summary()
    return data


# ----------------------------------------------------------------------
# daily-serve
# ----------------------------------------------------------------------
class _Gate:
    """Lets tenant threads run between resume() and pause()."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._open = False
        self._stopped = False
        self._active = 0

    def enter(self) -> bool:
        with self._cond:
            while not self._open and not self._stopped:
                self._cond.wait()
            if self._stopped:
                return False
            self._active += 1
            return True

    def leave(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def resume(self) -> None:
        with self._cond:
            self._open = True
            self._cond.notify_all()

    def pause(self) -> None:
        with self._cond:
            self._open = False
            while self._active:
                self._cond.wait()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()


def _daily_setup(inputs, budget: int, data: RunData) -> MaxsonServer:
    data.probes.append(hostspeed.probe(inputs_mod.TENANTS))
    started = time.perf_counter()
    session = Session(fs=BlockFileSystem())
    _ingest(session, inputs, inputs_mod.INITIAL_DAYS)
    system = MaxsonSystem(
        session=session, config=MaxsonConfig(cache_budget_bytes=budget)
    )
    for day, shapes in enumerate(inputs.history):
        for shape in shapes:
            system.collector.record_query(day, _keys(inputs, shape))
    system.train_predictor(TRAIN_DAYS)
    server = MaxsonServer(system)
    report = server.run_midnight_cycle(day=inputs_mod.HISTORY_DAYS)
    data.selection.append((len(report.selected), report.candidates_scored))
    data.setup_seconds.append(time.perf_counter() - started)
    data.probes.append(hostspeed.probe(inputs_mod.TENANTS))
    return server


def run_daily(inputs, seconds: float, recorder, helper: Helper) -> RunData:
    data = RunData()
    rss_before = _peak_rss_mb()
    phase = time.perf_counter()
    with _unit(recorder, "setup", "setup-0"):
        server = _daily_setup(inputs, helper.budget, data)
    system = server.system
    data.add_phase("setup", phase)
    # The other set-ups run between half-days, away from the clock.
    spares = _spread(SETUPS["daily-serve"] - 1, 2 * inputs_mod.SERVE_DAYS)

    gate = _Gate()
    state = {"day": inputs_mod.HISTORY_DAYS, "epoch": 0}
    per_tenant: list[list[Sample]] = [[] for _ in inputs.streams]
    errors: list[BaseException] = []

    def tenant(index: int) -> None:
        stream = iter(inputs.streams[index])
        coin = random.Random(f"trace-{inputs.seed}-{index}")
        name = f"tenant-{index}"
        try:
            while gate.enter():
                try:
                    sql = next(stream)
                    traced = recorder is not None and coin.random() < 0.5
                    sample = Sample(sql, state["epoch"], 0.0, traced)
                    started = time.perf_counter()
                    try:
                        with _unit(recorder if traced else None, "query",
                                   f"t{index}-{len(per_tenant[index])}"):
                            result = server.execute(sql, tenant=name, day=state["day"])
                    except AdmissionError as exc:
                        sample.error = f"{type(exc).__name__}: {exc}"
                        sample.shed = True
                    except Exception as exc:  # noqa: BLE001 - a failed query
                        sample.error = f"{type(exc).__name__}: {exc}"
                    else:
                        sample.metrics = result.metrics
                        sample.rows = result.rows
                    sample.seconds = time.perf_counter() - started
                    per_tenant[index].append(sample)
                finally:
                    gate.leave()
        except StopIteration:
            errors.append(BenchmarkError(f"tenant {index} stream exhausted"))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the driver
            errors.append(exc)

    threads = [
        threading.Thread(target=tenant, args=(i,), name=f"bench-tenant-{i}")
        for i in range(len(inputs.streams))
    ]
    for thread in threads:
        thread.start()
    checked = [0] * len(per_tenant)
    served = [0]

    def serve(duration: float, extra_seconds: float = 0.0) -> None:
        started = time.perf_counter()
        gate.resume()
        time.sleep(duration)
        gate.pause()
        data.query_seconds += time.perf_counter() - started + extra_seconds
        data.add_phase("queries", started)
        data.probes.append(hostspeed.probe(inputs_mod.TENANTS))
        # Check this epoch's answers with the clock stopped.
        started = time.perf_counter()
        for index, samples in enumerate(per_tenant):
            helper.check(state["epoch"], samples[checked[index]:], data)
            checked[index] = len(samples)
        data.add_phase("check", started)
        started = time.perf_counter()
        for _ in range(spares[served[0]]):
            data.add_setup(helper.setup())
        served[0] += 1
        data.add_phase("extra", started)

    half_day = seconds / (2 * inputs_mod.SERVE_DAYS)
    try:
        for offset in range(inputs_mod.SERVE_DAYS):
            day = inputs_mod.HISTORY_DAYS + offset
            state["day"] = day
            data.probes.append(hostspeed.probe(inputs_mod.TENANTS))
            serve(half_day)
            if errors:
                break
            data.probes.append(hostspeed.probe(inputs_mod.TENANTS))
            # The append runs with the tenants paused; its time counts in
            # the afternoon's slice, as the tenants wait for it.
            with _unit(recorder, "append", f"append-{offset}"):
                started = time.perf_counter()
                _append_day(system.session, inputs, inputs_mod.INITIAL_DAYS + offset)
                append_seconds = time.perf_counter() - started
            data.add_phase("queries", started)
            helper.append_day()
            state["epoch"] += 1
            serve(half_day, append_seconds)
            if errors:
                break
            data.probes.append(hostspeed.probe(inputs_mod.TENANTS))
            with _unit(recorder, "midnight", f"midnight-{offset}"):
                started = time.perf_counter()
                report = server.run_midnight_cycle(day=day + 1)
                data.midnight_seconds.append(time.perf_counter() - started)
            data.add_phase("midnight", started)
            data.probes.append(hostspeed.probe(inputs_mod.TENANTS))
            data.selection.append((len(report.selected), report.candidates_scored))
            data.build_bytes.append(report.build.bytes_written)
            data.cache_ratios.append(
                system.registry.total_bytes()
                / inputs.raw_json_bytes(inputs_mod.INITIAL_DAYS + offset + 1)
            )
        data.peak_rss_mb = _peak_rss_mb() - rss_before
    finally:
        gate.stop()
        for thread in threads:
            thread.join(timeout=60)
        server.shutdown()
    if any(thread.is_alive() for thread in threads):
        raise BenchmarkError("tenant thread did not stop")
    if errors:
        raise errors[0]
    data.samples = sorted(
        (s for samples in per_tenant for s in samples), key=lambda s: s.epoch
    )
    data.efficacy = system.efficacy.summary()
    return data


RUNNERS = {"warm-cache": run_loop, "daily-serve": run_daily}


def run(name: str, inputs, seconds: float, recorder) -> RunData:
    """Run workload ``name``; ``recorder`` (or None) is installed once the
    helpers have been forked, so only the measured process is traced."""
    if name not in RUNNERS:
        raise BenchmarkError(f"unknown workload {name!r}")
    # Inputs stay alive for the whole run; frozen, they no longer lengthen
    # the interpreter's full collections during the measured queries.
    gc.collect()
    gc.freeze()
    helper = Helper(name, inputs)
    try:
        if recorder is not None:
            recorder.install()
        return RUNNERS[name](inputs, seconds, recorder, helper)
    finally:
        helper.close()
