"""Shared pieces of the benchmark: inputs, statistics, oracle, output.

Every workload's relation comes from :func:`repro.datagen.generator.generate`
with 2 numeric and 3 nominal attributes of cardinality 10 under the
paper's order-1 frequent-value template.  The relation is fixed per
workload (``DATA_SEED``), like the paper's one synthetic relation per
experiment; ``--seed`` draws everything the workload sends it: the
preference stream, the rows written and deleted, and the answers
checked against the oracle.  (With the relation drawn from ``--seed``
too, the template skyline - the search space of every index route -
ranged from 327 to 476 members over seven seeds at n=20,000, and the
query medians followed it further apart than the benchmark's bounds.)
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from layers import UNITS

from repro.core.dataset import Dataset
from repro.core.preferences import Preference
from repro.core.skyline import skyline
from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.serve.driver import percentile

NUMERIC = 2
NOMINAL = 3
CARDINALITY = 10
DATA_SEED = 0
#: Service constructions timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Answers per run compared with the brute-force-equivalent oracle.
ORACLE_SAMPLES = 5


def make_config(points: int, seed: int) -> SyntheticConfig:
    return SyntheticConfig(
        num_points=points,
        num_numeric=NUMERIC,
        num_nominal=NOMINAL,
        cardinality=CARDINALITY,
        seed=seed,
    )


def make_data(points: int) -> Tuple[Dataset, Preference]:
    """The workload relation and its order-1 frequent-value template."""
    dataset = generate(make_config(points, DATA_SEED))
    return dataset, frequent_value_template(dataset, 1)


def fresh_copy(dataset: Dataset) -> Dataset:
    """An equal dataset sharing no lazily built state with ``dataset``.

    It shares the immutable row tuples, so a copy costs next to nothing
    and a timed construction starts from the same state every time.
    """
    return Dataset.from_encoded(
        dataset.schema, dataset.raw_rows, dataset.canonical_rows
    )


def oracle_ids(
    schema, rows: Dict[int, tuple], preference, template
) -> Tuple[int, ...]:
    """The skyline of the live ``{id: row}`` map, by the pure-Python SFS.

    The Python backend shares no kernel with the NumPy, bitset or
    structure routes the service answers from.
    """
    ids = sorted(rows)
    data = Dataset(schema, [rows[i] for i in ids])
    local = skyline(data, preference, template=template, backend="python").ids
    return tuple(sorted(ids[i] for i in local))


class Reservoir:
    """A seeded uniform sample of ``k`` items from a stream."""

    def __init__(self, k: int, seed: int) -> None:
        self.k = k
        self.items: List[object] = []
        self.seen = 0
        self._rng = random.Random(seed)

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.k:
            self.items.append(item)
        else:
            slot = self._rng.randrange(self.seen)
            if slot < self.k:
                self.items[slot] = item


def setup_times(prepare, build, repeats: int = SETUP_REPEATS):
    """Time ``build(prepare())`` ``repeats`` times; (seconds each, last built).

    Only ``build`` is timed.  Each earlier result is closed and
    collected before the next build, so the run's peak memory stays
    that of one service.
    """
    durations = []
    built = None
    for _ in range(repeats):
        if built is not None:
            built.close()
        built = None
        gc.collect()
        args = prepare()
        started = time.perf_counter()
        built = build(args)
        durations.append(time.perf_counter() - started)
    return durations, built


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def filesystem_type(path: str) -> str:
    """The type of the filesystem holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) >= 3 and (
                    path == parts[1] or path.startswith(parts[1].rstrip("/") + "/")
                ) and len(parts[1]) >= len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def environment(seed: int, **extra) -> Dict[str, object]:
    """What the numbers depend on besides the code."""
    from repro.engine import resolve_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "bitset_tier": resolve_backend("bitset").availability_detail(),
        "seed": seed,
        "data_seed": DATA_SEED,
        **extra,
    }


@dataclass
class Result:
    """What one run reports: counts, correctness and named metrics."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    env: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = (float(value), UNITS[name])

    def check(self, what: str, got, expected) -> None:
        if tuple(got) != tuple(expected):
            self.mismatches.append(
                f"{what}: service answered {len(got)} ids, oracle "
                f"{len(expected)}; first differences "
                f"{sorted(set(got) ^ set(expected))[:5]}"
            )


def latency_metrics(result: Result, prefix: str, seconds: Sequence[float]) -> None:
    """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` from durations in s."""
    result.put(f"{prefix}_p50_ms", percentile(seconds, 50) * 1e3)
    result.put(f"{prefix}_p99_ms", percentile(seconds, 99) * 1e3)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
