"""Host speed, from a fixed pure-Python kernel timed beside the measured work.

The benchmark's machine shares its cores and caches with other machines'
work, and its speed swings by up to 2x in phases of seconds to minutes:
the kernel below, timed every few seconds, runs at 1.0x to 1.9x its best
time, and the program's queries slow down with it. Run-to-run spread of
raw wall times therefore measures the neighbours more than the program.

So every time the benchmark reports is *host-adjusted*: multiplied by
``REFERENCE_S`` over the median of the kernel's times probed before and
after each piece of timed work of the run, raised to ``SENSITIVITY``. A
slow host stretches the work and the probes alike and mostly cancels; a
change to the program moves the work and not the kernel, so it shows in
full. One factor per run, from some twenty to forty probes, follows the
slow drift that moves whole runs; a single probe of a few milliseconds is
too noisy to correct one slice.

The program does not always slow down as much as the kernel: over four
sets of ten runs (two per workload, on a 2-core Xeon sandbox), the
run-to-run spread of the adjusted times was lowest for exponents between
0.5 and 1 depending on the metric and the set, and 0.75 kept the largest
spread lowest.

The probe runs the kernel in as many threads as the workload has
clients, since several clients slow down more than one on a busy host
(the interpreter lock passes between them). Adjusted figures compare
between runs and commits of one workload; they read as wall time on a
host where one kernel run takes ``REFERENCE_S``, about its best time on a
2-core Xeon sandbox. The raw wall times stay in the run record.

The kernel uses only the standard library and never changes, so two
commits of the program are measured against the same yardstick.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import threading
import time

#: Seconds the kernel takes on the reference machine at its fastest.
REFERENCE_S = 0.0025
#: Exponent of the kernel's speed-up that a time is multiplied by.
SENSITIVITY = 0.75
#: Timed rounds per probe; the probe is their median.
PROBE_ROUNDS = 3
#: Kernel runs per thread in one round.
RUNS_PER_THREAD = 3

_DOCUMENT = {
    f"k{index}": [random.Random(index).random(), "v" * (index % 17), {"x": index}]
    for index in range(60)
}


def kernel() -> int:
    """Interpreter work like the program's: JSON, dicts, sorting, strings."""
    total = 0
    for _ in range(12):
        document = json.loads(json.dumps(_DOCUMENT))
        items = sorted(document.items(), key=lambda item: item[1][1])
        groups: dict[str, int] = {}
        for key, value in items:
            groups[key[:2]] = groups.get(key[:2], 0) + len(value[1]) + value[2]["x"]
        total += sum(groups.values()) + len("".join(key for key, _ in items))
    return total


def probe(threads: int = 1) -> float:
    """The kernel's current time in seconds, run by ``threads`` threads
    at once as the workload's clients run: with more than one, the probe
    also pays for the interpreter lock passing between them, which slows
    down with the host as the clients' queries do.

    One untimed run first warms the caches the measured work left cold.
    The garbage collector is off meanwhile, so the probe never pays for a
    collection of the program's objects (the kernel makes no cycles).
    """

    def runs() -> None:
        for _ in range(RUNS_PER_THREAD):
            kernel()

    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        rounds = []
        for _ in range(PROBE_ROUNDS):
            workers = [threading.Thread(target=runs) for _ in range(threads - 1)]
            started = time.perf_counter()
            for worker in workers:
                worker.start()
            runs()
            for worker in workers:
                worker.join()
            rounds.append((time.perf_counter() - started) / (threads * RUNS_PER_THREAD))
    finally:
        if enabled:
            gc.enable()
    return statistics.median(rounds)


def factor(probes: list[float]) -> float:
    """What to multiply a run's wall times by, given its probes."""
    return (REFERENCE_S / statistics.median(probes)) ** SENSITIVITY
