"""Time two fixed tasks that touch no program code; print the medians.

    python3 perfbench/hostspeed.py

Prints one JSON object: the median milliseconds of a pure-Python loop
and of a NumPy pass over 16 MiB, each repeated for half a second.  On a
shared VM both drift by tens of percent over minutes, and the
workloads' medians drift with them.  ``run.py`` runs this in a child
process before and after each workload, so the probe's memory never
shows in the workload's peak RSS, and records the result in the
``env`` line; when two sets of runs disagree, it tells a change of the
host from a change of the code.
"""

from __future__ import annotations

import json
import statistics
import time

SECONDS = 0.5


def python_task() -> None:
    total = 0
    for i in range(100_000):
        total += i * i % 7


def median_ms(task) -> float:
    times = []
    deadline = time.perf_counter() + SECONDS
    while time.perf_counter() < deadline:
        started = time.perf_counter()
        task()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def main() -> None:
    speeds = {"python": median_ms(python_task)}
    try:
        import numpy
    except ImportError:
        numpy = None
    if numpy is not None:
        block = numpy.arange(2_000_000, dtype=numpy.float64)
        speeds["numpy"] = median_ms(lambda: (block * 1.5).sum())
    print(json.dumps(speeds))


if __name__ == "__main__":
    main()
