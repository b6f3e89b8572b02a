"""The in-process workloads: ``paper-mixed``, ``churn-durable``, ``scan-100k``.

One caller drives :class:`~repro.serve.service.SkylineService` in a
closed loop.  An untraced run measures for the whole ``seconds``; a
traced run measures its first half untraced and its second half with
the tracer installed, so the difference of the two query medians is
the tracing overhead and every per-layer number covers the traced half.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import (
    ORACLE_SAMPLES,
    SETUP_REPEATS,
    Reservoir,
    Result,
    environment,
    filesystem_type,
    latency_metrics,
    log,
    make_config,
    make_data,
    fresh_copy,
    oracle_ids,
    peak_rss_mb,
    setup_times,
)
from layers import counter_metrics, recovery_metrics, counter_delta, span_metrics
from tracer import Tracer

from repro.datagen.generator import generate
from repro.datagen.queries import generate_preference
from repro.serve.driver import percentile
from repro.serve.service import SkylineService

#: Untimed queries before the timed phase, so the cache has filled.
WARMUP_SECONDS = 0.5
#: Preferences pre-drawn per run; the stream cycles through them.
#: paper-mixed answers up to ~19,000 queries in a 25 s run, so its pool is
#: large enough never to repeat; the slower workloads need fewer.
POOL_SIZE = 3_000
PAPER_POOL_SIZE = 20_000
#: churn-durable: share of steps that write, and of writes that insert.
WRITE_SHARE = 0.3
INSERT_SHARE = 0.6
WRITE_ROWS = 4
CHECKPOINT_EVERY = 50
#: WAL records the recovery at the end of churn-durable replays.
TAIL_WRITES = 20


@dataclass
class Phase:
    """What one timed window observed."""

    queries: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    wal_bytes: List[int] = field(default_factory=list)
    failed: int = 0
    elapsed: float = 0.0


def preference_pool(dataset, template, orders, seed: int, size: int = POOL_SIZE) -> list:
    """``size`` fresh preferences, the ``orders`` in equal shares, shuffled."""
    rng = random.Random(seed)
    shares = [orders[i % len(orders)] for i in range(size)]
    rng.shuffle(shares)
    return [
        generate_preference(dataset, order, template=template, rng=rng)
        for order in shares
    ]


def _failure(phase: Phase, what: str) -> None:
    if not phase.failed:
        log(f"first failed {what}:\n{traceback.format_exc()}")
    phase.failed += 1


class Driver:
    """One closed-loop caller over a service and a preference pool."""

    def __init__(self, service, pool, seed: int, writer=None) -> None:
        self.service = service
        self.pool = pool
        self.next = 0
        self.samples = Reservoir(ORACLE_SAMPLES, seed)
        self.writer = writer
        self.rng = random.Random(seed + 17)

    def query(self, phase: Optional[Phase]) -> None:
        pref = self.pool[self.next % len(self.pool)]
        self.next += 1
        started = time.perf_counter()
        try:
            answer = self.service.query(pref)
        except Exception:  # noqa: BLE001 - counted, the run continues
            if phase is not None:
                _failure(phase, "query")
            return
        if phase is not None:
            phase.queries.append(time.perf_counter() - started)
            self.samples.offer((pref, answer.ids, answer.version))

    def run(self, seconds: float, measure: bool = True) -> Phase:
        phase = Phase()
        record = phase if measure else None
        writer = self.writer
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            if writer is not None and self.rng.random() < WRITE_SHARE:
                writer.step(record)
            else:
                self.query(record)
        phase.elapsed = time.perf_counter() - started
        return phase


class Writer:
    """churn-durable's writes: fresh-row inserts and deletes of live ids."""

    def __init__(self, service, dataset, seed: int, scale_rows: int) -> None:
        self.service = service
        self.rows: Dict[int, tuple] = {i: dataset.row(i) for i in dataset.ids}
        self.live: List[int] = list(dataset.ids)
        fresh = generate(make_config(scale_rows, seed + 7919))
        self.fresh = [fresh.row(i) for i in fresh.ids]
        self.fresh_next = 0
        self.rng = random.Random(seed + 31)
        #: (version, inserted ids, deleted ids) per acknowledged write.
        self.history: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []

    def step(self, phase: Optional[Phase]) -> None:
        rng = self.rng
        storage = self.service.storage
        wal_before = storage.wal_size_bytes
        ops_before = storage.ops_since_checkpoint
        if rng.random() < INSERT_SHARE:
            batch = [
                self.fresh[(self.fresh_next + k) % len(self.fresh)]
                for k in range(WRITE_ROWS)
            ]
            self.fresh_next += WRITE_ROWS
            started = time.perf_counter()
            try:
                report = self.service.insert_rows(batch)
            except Exception:  # noqa: BLE001 - counted, the run continues
                if phase is not None:
                    _failure(phase, "insert")
                return
            elapsed = time.perf_counter() - started
            for point_id, row in zip(report.point_ids, batch):
                self.rows[point_id] = row
                self.live.append(point_id)
            self.history.append((report.version, report.point_ids, ()))
        else:
            victims = []
            for _ in range(WRITE_ROWS):
                slot = rng.randrange(len(self.live))
                self.live[slot], self.live[-1] = self.live[-1], self.live[slot]
                victims.append(self.live.pop())
            started = time.perf_counter()
            try:
                report = self.service.delete_rows(victims)
            except Exception:  # noqa: BLE001 - counted, the run continues
                self.live.extend(victims)
                if phase is not None:
                    _failure(phase, "delete")
                return
            elapsed = time.perf_counter() - started
            self.history.append((report.version, (), tuple(victims)))
        if phase is not None:
            phase.writes.append(elapsed)
            if storage.ops_since_checkpoint == ops_before + 1:
                phase.wal_bytes.append(storage.wal_size_bytes - wal_before)

    def rows_at(self, version: int, base_ids) -> Dict[int, tuple]:
        """The live ``{id: row}`` map at data ``version``."""
        live = set(base_ids)
        for stamp, inserted, deleted in self.history:
            if stamp > version:
                break
            live.update(inserted)
            live.difference_update(deleted)
        return {i: self.rows[i] for i in live}


def directory_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def check_answers(result: Result, driver: Driver, schema, template, rows_at) -> None:
    """Compare the sampled answers with the oracle (outside timing)."""
    for index, (pref, ids, version) in enumerate(driver.samples.items):
        expected = oracle_ids(schema, rows_at(version), pref, template)
        result.check(f"sampled answer {index} at version {version}", ids, expected)


def measure(
    result: Result,
    driver: Driver,
    seconds: float,
    trace: bool,
    tracer: Optional[Tracer],
) -> Tuple[Phase, Optional[Phase]]:
    """The timed phase: (untraced phase, traced phase or None)."""
    service = driver.service
    driver.run(WARMUP_SECONDS, measure=False)
    if not trace:
        return driver.run(seconds), None
    plain = driver.run(seconds / 2)
    before = service.stats()
    tracer.install(backends=(service.backend, service.bitset))
    try:
        traced = driver.run(seconds / 2)
    finally:
        tracer.uninstall()
    after = service.stats()
    counter_metrics(
        result.put,
        counter_delta(before.route_counts, after.route_counts),
        after.cache.delta(before.cache).as_dict(),
    )
    return plain, traced


def report_phases(result: Result, plain: Phase, traced: Optional[Phase]) -> None:
    """Counts over both halves; latencies and rates of the untraced one."""
    phases = [plain] if traced is None else [plain, traced]
    for phase in phases:
        result.failed += phase.failed
        result.attempted += len(phase.queries) + len(phase.writes) + phase.failed
    latency_metrics(result, "query", plain.queries)
    result.put("query_qps", len(plain.queries) / plain.elapsed)
    if plain.writes:
        latency_metrics(result, "write", plain.writes)
    if traced is not None:
        result.put(
            "trace.overhead_ms",
            (percentile(traced.queries, 50) - percentile(plain.queries, 50)) * 1e3,
        )
        if traced.wal_bytes:
            result.put("storage.wal_bytes_per_write",
                       sum(traced.wal_bytes) / len(traced.wal_bytes))
    result.env["samples"] = {"queries": len(plain.queries), "writes": len(plain.writes)}


def run_read_only(
    name: str,
    points: int,
    service_kwargs: dict,
    orders: Tuple[int, ...],
    pool_size: int,
    setup_repeats: int,
    seed: int,
    seconds: float,
    trace: bool,
    service_cls=SkylineService,
) -> Tuple[Result, Optional[Tracer]]:
    """paper-mixed and scan-100k: queries only, no storage."""
    result = Result()
    dataset, template = make_data(points)
    pool = preference_pool(dataset, template, orders, seed + 1, pool_size)
    repeats = 1 if trace else setup_repeats

    def builds():
        return setup_times(
            lambda: fresh_copy(dataset),
            lambda data: service_cls(data, template, **service_kwargs),
            repeats,
        )

    durations, service = builds()
    driver = Driver(service, pool, seed + 2)
    tracer = Tracer() if trace else None
    try:
        plain, traced = measure(result, driver, seconds, trace, tracer)
        result.put("peak_rss_mb", peak_rss_mb())
    finally:
        service.close()
    if not trace:
        # The host switches between a fast and a slow mode that last
        # seconds (scan-100k's 50 ms construction read ~30 or ~50 ms),
        # so a second batch of builds after the timed phase makes
        # setup_s a median over two moments of the run, not one.
        more, last = builds()
        last.close()
        durations += more
    result.put("setup_s", statistics.median(durations))
    report_phases(result, plain, traced)
    if tracer is not None:
        span_metrics(result.put, tracer.spans)
    rows = {i: dataset.row(i) for i in dataset.ids}
    check_answers(result, driver, dataset.schema, template, lambda _v: rows)
    result.env.update(environment(seed, workload=name, points=points))
    return result, tracer


def paper_mixed(seed, seconds, trace, scale=1.0, service_cls=SkylineService):
    """IPO Tree-2, Adaptive SFS, MDC and the cache; orders 1-3 mixed."""
    return run_read_only(
        "paper-mixed", max(200, int(50_000 * scale)),
        dict(ipo_k=2, cache_capacity=256), (1, 2, 3), PAPER_POOL_SIZE,
        SETUP_REPEATS, seed, seconds, trace, service_cls,
    )


def scan_100k(seed, seconds, trace, scale=1.0, service_cls=SkylineService):
    """No paper structure: the planner scans with the bitset kernel."""
    return run_read_only(
        "scan-100k", max(200, int(100_000 * scale)),
        dict(with_tree=False, with_adaptive=False, with_mdc=False,
             cache_capacity=256),
        # A 100k-row construction only warms the columnar store (~50 ms),
        # so more repeats keep its median steady.
        (2, 3), POOL_SIZE, 7 * SETUP_REPEATS, seed, seconds, trace, service_cls,
    )


def churn_durable(seed, seconds, trace, scale=1.0, service_cls=SkylineService,
                  workdir: Optional[str] = None):
    """Durable service under 30% 4-row writes; ends with close + recover."""
    result = Result()
    points = max(200, int(20_000 * scale))
    dataset, template = make_data(points)
    scratch = tempfile.mkdtemp(prefix="churn-", dir=workdir)
    try:
        dirs = iter(range(1_000))

        def fresh_storage():
            return fresh_copy(dataset), os.path.join(scratch, f"s{next(dirs)}")

        def build(args):
            data, storage_dir = args
            return service_cls(
                data, template, ipo_k=2, cache_capacity=256,
                storage_dir=storage_dir, checkpoint_every=CHECKPOINT_EVERY,
            )

        durations, service = setup_times(fresh_storage, build)
        result.put("setup_s", statistics.median(durations))
        storage_dir = str(service.storage.directory)
        pool = preference_pool(dataset, template, (2,), seed + 1)
        writer = Writer(service, dataset, seed, max(400, int(8_000 * scale)))
        driver = Driver(service, pool, seed + 2, writer=writer)
        tracer = Tracer() if trace else None
        plain, traced = measure(result, driver, seconds, trace, tracer)
        result.put("peak_rss_mb", peak_rss_mb())
        live_rows = len(writer.live)
        result.put("disk_bytes_per_row", directory_bytes(storage_dir) / live_rows)
        report_phases(result, plain, traced)
        # How many writes the timed phase fits varies with the host, so
        # the recovered WAL tail is fixed instead: a checkpoint, then
        # TAIL_WRITES seeded writes.
        service.checkpoint()
        writer.rng = random.Random(seed + 43)
        for _ in range(TAIL_WRITES):
            writer.step(None)
        version = service.version
        service.close()

        # recover_s times an untraced recovery; a traced run then
        # recovers a copy of the same directory with the tracer
        # installed, for the stage split only.
        traced_dir = storage_dir + "-traced"
        if tracer is not None:
            shutil.copytree(storage_dir, traced_dir)
        started = time.perf_counter()
        recovered = SkylineService.recover(
            storage_dir, checkpoint_every=CHECKPOINT_EVERY
        )
        result.put("recover_s", time.perf_counter() - started)
        try:
            if recovered.version != version:
                result.mismatches.append(
                    f"recovered at version {recovered.version}, closed at {version}"
                )
            pref = pool[0]
            result.check(
                f"recovered answer at version {version}",
                recovered.query(pref).ids,
                oracle_ids(dataset.schema, writer.rows_at(version, dataset.ids),
                           pref, template),
            )
        finally:
            recovered.close()
        if tracer is not None:
            span_metrics(result.put, tracer.spans)
            recover_mark = len(tracer.spans)
            tracer.install(backends=(service.backend, service.bitset))
            try:
                SkylineService.recover(
                    traced_dir, checkpoint_every=CHECKPOINT_EVERY
                ).close()
            finally:
                tracer.uninstall()
            recovery_metrics(result.put, tracer.spans[recover_mark:])
        check_answers(
            result, driver, dataset.schema, template,
            lambda v: writer.rows_at(v, dataset.ids),
        )
        result.env.update(environment(
            seed, workload="churn-durable", points=points,
            storage_fs=filesystem_type(scratch),
            durability=f"fsync per write batch, checkpoint_every={CHECKPOINT_EVERY}",
            live_rows=live_rows,
        ))
        return result, tracer
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
