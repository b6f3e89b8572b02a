"""Command-line entry point of the serving layer.

Replays synthetic query workloads against a :class:`SkylineService`
over a generated dataset and reports throughput + latency percentiles
per workload shape::

    python -m repro.serve                          # default replay
    python -m repro.serve --points 4000 --queries 400 --concurrency 8
    python -m repro.serve --workloads hot,churn --cache-size 32
    python -m repro.serve --batch 32               # batched evaluation
    python -m repro.serve --json BENCH_serve.json  # machine-readable
    python -m repro.serve --selftest               # CI smoke check
    python -m repro.serve --storage-dir ./state --checkpoint   # durable
    python -m repro.serve --storage-dir ./state --recover      # restart
    python -m repro.serve --listen 127.0.0.1:8080  # HTTP/JSON server
                                                   # (see repro.net)

``--selftest`` runs a small fixed configuration, asserts that every
planner route returns the identical skyline on randomized preferences
and that the hot workload actually hits the cache, then exits 0/1 -
the CI docs leg calls exactly this.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Dict, List, Optional

from repro.core.preferences import Preference
from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.engine import get_backend, set_default_backend
from repro.serve.driver import WorkloadReport, replay
from repro.serve.planner import PlannerConfig, ROUTES
from repro.serve.service import SkylineService
from repro.serve.workloads import WORKLOADS, build_workload


def positive_int(text: str) -> int:
    """Argparse ``type=`` validator for flags that must be >= 1.

    Rejecting ``--concurrency 0`` / ``--batch 0`` at parse time yields a
    proper argparse usage error (exit code 2) instead of hanging in an
    empty pool or crashing deep inside batch chunking.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Replay synthetic preference-query workloads against "
        "the skyline serving layer and report throughput/latency.",
    )
    parser.add_argument("--points", type=int, default=2000,
                        help="synthetic dataset size (default: 2000)")
    parser.add_argument("--numeric", type=int, default=2,
                        help="numeric dimensions (default: 2)")
    parser.add_argument("--nominal", type=int, default=2,
                        help="nominal dimensions (default: 2)")
    parser.add_argument("--cardinality", type=int, default=8,
                        help="nominal domain size (default: 8)")
    parser.add_argument("--queries", type=int, default=200,
                        help="queries per workload (default: 200)")
    parser.add_argument("--order", type=int, default=3,
                        help="preference order of generated queries "
                        "(default: 3; higher orders enlarge the distinct-"
                        "preference space, keeping the cold workload cold)")
    parser.add_argument("--concurrency", type=positive_int, default=4,
                        help="driver worker threads (default: 4)")
    parser.add_argument("--batch", type=positive_int, default=None,
                        help="submit queries in batches of this size "
                        "via submit_batch (default: one query at a "
                        "time)")
    parser.add_argument("--workloads", type=str, default="hot,cold,churn",
                        help="comma-separated shapes out of "
                        f"{','.join(sorted(WORKLOADS))} "
                        "(default: hot,cold,churn)")
    parser.add_argument("--cache-size", type=int, default=64,
                        help="semantic cache capacity (default: 64)")
    parser.add_argument("--ipo-k", type=int, default=None,
                        help="IPO Tree-k truncation (default: full tree "
                        "when affordable)")
    parser.add_argument("--template-order", type=int, default=1,
                        help="order of the frequent-value template "
                        "(0 = empty template; default: 1)")
    parser.add_argument("--backend",
                        choices=["auto", "python", "numpy", "bitset"],
                        default="auto",
                        help="execution backend (default: process default)")
    parser.add_argument("--route", choices=list(ROUTES), default=None,
                        help="force every query through one route")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload/dataset seed (default: 0)")
    parser.add_argument("--json", type=str, default=None,
                        help="also write the machine-readable report here")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixed smoke configuration and exit")
    parser.add_argument("--storage-dir", type=str, default=None,
                        help="directory for durable state: snapshots + "
                        "write-ahead log (default: in-memory only)")
    parser.add_argument("--recover", action="store_true",
                        help="recover the service from --storage-dir "
                        "(snapshot + WAL replay) instead of generating "
                        "a dataset")
    parser.add_argument("--mmap", choices=["auto", "off", "require"],
                        default=None,
                        help="snapshot mapping mode for --recover: 'auto' "
                        "borrows the column-major sidecar via mmap when "
                        "present (cold start pays only the WAL tail), "
                        "'off' decodes everything eagerly, 'require' "
                        "fails rather than fall back (default: the "
                        "REPRO_MMAP environment variable, else auto)")
    parser.add_argument("--checkpoint", action="store_true",
                        help="write a checkpoint to --storage-dir before "
                        "exiting")
    parser.add_argument("--checkpoint-every", type=positive_int,
                        default=None, metavar="N",
                        help="auto-checkpoint after N logged mutation "
                        "batches (default: manual only)")
    parser.add_argument("--checkpoint-wal-bytes", type=positive_int,
                        default=None, metavar="M",
                        help="auto-checkpoint once the WAL reaches M "
                        "bytes (default: manual only)")
    parser.add_argument("--listen", type=str, default=None,
                        metavar="HOST:PORT",
                        help="serve the HTTP/JSON protocol on this "
                        "address instead of replaying a workload "
                        "(delegates to repro.net; :0 = ephemeral port)")
    parser.add_argument("--service-config", type=str, default=None,
                        help="JSON service config for --listen; re-read "
                        "on SIGHUP or POST /admin/reload")
    return parser


def build_service(args) -> SkylineService:
    """Dataset + template + service from the CLI arguments.

    With ``--recover`` the dataset, template and data version come from
    the storage directory (snapshot + WAL replay); the generation flags
    are ignored and a recovery summary is printed to stderr.
    """
    if args.recover:
        service = SkylineService.recover(
            args.storage_dir,
            cache_capacity=args.cache_size,
            planner_config=PlannerConfig(forced_route=args.route),
            checkpoint_every=args.checkpoint_every,
            checkpoint_wal_bytes=args.checkpoint_wal_bytes,
            mmap=args.mmap,
        )
        print(
            f"recovered from {args.storage_dir}: data version "
            f"{service.version}, {len(service.data_snapshot())} live rows, "
            f"{service.storage.ops_since_checkpoint} WAL records replayed",
            file=sys.stderr,
        )
        return service
    dataset = generate(
        SyntheticConfig(
            num_points=args.points,
            num_numeric=args.numeric,
            num_nominal=args.nominal,
            cardinality=args.cardinality,
            seed=args.seed,
        )
    )
    template = (
        frequent_value_template(dataset, args.template_order)
        if args.template_order > 0
        else Preference.empty()
    )
    return SkylineService(
        dataset,
        template,
        cache_capacity=args.cache_size,
        ipo_k=args.ipo_k,
        planner_config=PlannerConfig(forced_route=args.route),
        storage_dir=args.storage_dir,
        checkpoint_every=args.checkpoint_every,
        checkpoint_wal_bytes=args.checkpoint_wal_bytes,
    )


def run_workloads(
    service: SkylineService,
    shapes: List[str],
    args,
    progress=lambda msg: None,
) -> List[WorkloadReport]:
    """Generate and replay every requested shape against ``service``."""
    reports = []
    for shape in shapes:
        preferences = build_workload(
            shape,
            service.dataset,
            service.template,
            queries=args.queries,
            order=args.order,
            seed=args.seed,
            cache_capacity=service.cache.capacity,
        )
        progress(f"replaying {shape} ({len(preferences)} queries) ...")
        reports.append(
            replay(
                service,
                preferences,
                name=shape,
                concurrency=args.concurrency,
                batch_size=args.batch,
            )
        )
    return reports


def render_report(
    service: SkylineService, reports: List[WorkloadReport]
) -> str:
    """The human-readable run summary."""
    lines = [
        f"serving {len(service.dataset)} points, "
        f"template: {service.template}",
        f"structures: {', '.join(service.available_routes())} "
        f"(template skyline: {service.template_skyline_size} members, "
        f"built in {service.preprocessing_seconds:.3f}s)",
        f"backend: {service.backend.name}   "
        f"cache capacity: {service.cache.capacity}",
        "",
    ]
    lines.extend(report.render() for report in reports)
    return "\n".join(lines)


def as_json(service: SkylineService, reports: List[WorkloadReport], args) -> Dict:
    """The machine-readable report (``BENCH_serve.json`` shape)."""
    return {
        "benchmark": "preference-query serving layer workload replay",
        "python": platform.python_version(),
        "backend": service.backend.name,
        "config": {
            "points": args.points,
            "numeric": args.numeric,
            "nominal": args.nominal,
            "cardinality": args.cardinality,
            "queries": args.queries,
            "order": args.order,
            "concurrency": args.concurrency,
            "cache_size": args.cache_size,
            "template_order": args.template_order,
            "seed": args.seed,
            "batch": args.batch,
        },
        "preprocessing_seconds": round(service.preprocessing_seconds, 6),
        "workloads": [report.as_dict() for report in reports],
    }


def selftest(args) -> int:
    """Small fixed smoke run asserting the serving layer's invariants.

    1. every available planner route returns the identical skyline for
       randomized preferences (includes the cache-key/planner plumbing),
    2. the hot workload achieves a cache hit-rate > 0,
    3. every workload shape replays without error under concurrency,
    4. batched evaluation returns exactly the per-query answers.

    The dataset/cache/query-shape flags are pinned (that is what makes
    it a *self*test with known-good expectations); ``--backend``,
    ``--concurrency`` and ``--seed`` are honoured.  ``--route`` is
    incompatible: forcing one route would defeat both the equivalence
    sweep and the cache assertions.
    """
    from repro.datagen.queries import generate_preferences

    if args.route is not None:
        print("--selftest is incompatible with --route (it must exercise "
              "every route and the cache)", file=sys.stderr)
        return 2
    args.points, args.queries, args.cardinality = 400, 60, 5
    args.cache_size = 16
    args.ipo_k, args.template_order = None, 1
    # Order-3 chains over cardinality 5 give a distinct-preference space
    # far larger than the cache, so the shapes behave distinctly even in
    # this small smoke configuration.
    args.order = 3
    service = build_service(args)

    failures = []
    for pref in generate_preferences(
        service.dataset, 2, 10, template=service.template, seed=7
    ):
        answers = {
            route: service.query(pref, use_cache=False, route=route).ids
            for route in service.available_routes()
        }
        distinct = set(answers.values())
        if len(distinct) != 1:
            failures.append(f"route disagreement for {pref}: {answers}")
    print(f"route equivalence: {len(failures)} disagreements "
          f"across {', '.join(service.available_routes())}")

    batch_prefs = generate_preferences(
        service.dataset, 2, 24, template=service.template, seed=9
    )
    batch_prefs = batch_prefs + batch_prefs[:8]  # guaranteed duplicates
    sequential = [
        service.query(pref, use_cache=False).ids for pref in batch_prefs
    ]
    batch = service.submit_batch(batch_prefs, use_cache=False)
    if [r.ids for r in batch.results] != sequential:
        failures.append("batched evaluation disagrees with sequential")
    if batch.duplicate_queries < 8:
        failures.append(
            f"batch dedup found only {batch.duplicate_queries} duplicates"
        )
    print(f"batched evaluation: {len(batch.results)} queries, "
          f"{batch.unique_queries} unique, "
          f"{batch.duplicate_queries} deduplicated")

    reports = run_workloads(
        service, sorted(WORKLOADS), args,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    print(render_report(service, reports))
    hot = next(r for r in reports if r.name == "hot")
    if hot.cache.hit_rate <= 0:
        failures.append("hot workload produced no cache hits")
    aliased = next(r for r in reports if r.name == "aliased")
    if aliased.cache.hit_rate <= 0:
        failures.append("aliased workload produced no semantic hits")

    for failure in failures:
        print(f"SELFTEST FAILURE: {failure}", file=sys.stderr)
    print("selftest " + ("ok" if not failures else "FAILED"))
    return 1 if failures else 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.storage_dir is None and (
        args.recover
        or args.checkpoint
        or args.checkpoint_every is not None
        or args.checkpoint_wal_bytes is not None
    ):
        parser.error(
            "--recover/--checkpoint/--checkpoint-every/"
            "--checkpoint-wal-bytes require --storage-dir"
        )
    if args.mmap is not None and not args.recover:
        parser.error("--mmap requires --recover")
    if args.backend != "auto":
        set_default_backend(args.backend)
    print(f"backend: {get_backend().name}", file=sys.stderr)

    if args.selftest:
        return selftest(args)

    if args.listen is not None:
        # Network serving mode: delegate to the repro.net front end
        # (same service construction, HTTP/JSON instead of replay).
        import asyncio

        from repro.net.client import parse_listen
        from repro.net.config import ServerConfig, load_config
        from repro.net.__main__ import run_server

        host, port = parse_listen(args.listen)
        if args.service_config is not None:
            config = load_config(args.service_config)
            config = ServerConfig(
                **{**config.__dict__, "host": host, "port": port}
            )
        else:
            config = ServerConfig(host=host, port=port)
        print("building service ...", file=sys.stderr)
        service = build_service(args)
        try:
            asyncio.run(run_server(service, config, args.service_config))
        finally:
            service.close()
        return 0

    shapes = [s.strip() for s in args.workloads.split(",") if s.strip()]
    unknown = [s for s in shapes if s not in WORKLOADS]
    if unknown:
        print(f"unknown workload shapes: {', '.join(unknown)} "
              f"(choose from {', '.join(sorted(WORKLOADS))})",
              file=sys.stderr)
        return 2

    print("building service ...", file=sys.stderr)
    service = build_service(args)
    try:
        reports = run_workloads(
            service, shapes, args,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
        print(render_report(service, reports))

        if args.checkpoint:
            path = service.checkpoint()
            print(f"checkpoint written to {path}", file=sys.stderr)
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(as_json(service, reports, args), handle, indent=2)
                handle.write("\n")
            print(f"report written to {args.json}", file=sys.stderr)
    finally:
        # Never leak an open WAL fd past the run (see docs/storage.md).
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
