#!/usr/bin/env python
"""Serving-layer benchmark: workload replay across service configs.

Replays the four synthetic workload shapes (hot / cold / churn /
aliased, see :mod:`repro.serve.workloads`) against three service
configurations that force different planner behaviour:

* ``full-tree``  - the IPO-tree materialises every value: covered
  queries, the ``ipo`` route dominates.
* ``tree-k2``    - IPO Tree-2 truncation: queries naming unpopular
  values fall through to Adaptive SFS / the MDC filter, so the route
  mix exercises rules 3-5 of the planner.
* ``no-indexes`` - every auxiliary structure disabled: the ``kernel``
  route (pure backend throughput, the no-preprocessing floor).

A final section replays the hot workload sequentially and through
``submit_batch`` (``--batch``, default chunk 32) against fresh
services, cached and uncached, recording the batched-over-sequential
throughput ratios.

The recorded baseline lives in ``BENCH_serve.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --points 4000 --queries 400 --out BENCH_serve.json

Latency numbers are per-query service time (not queue time) under the
given driver concurrency; see ``docs/architecture.md`` for the planner
rules the route mixes reflect.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Dict, List

from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.engine import get_backend
from repro.serve.driver import replay
from repro.serve.service import SkylineService
from repro.serve.workloads import WORKLOADS, build_workload


def service_configs(cache_size: int) -> Dict[str, Dict]:
    """Name -> SkylineService keyword arguments per scenario."""
    common = dict(cache_capacity=cache_size)
    return {
        "full-tree": dict(common),
        "tree-k2": dict(common, ipo_k=2),
        "no-indexes": dict(
            common,
            with_tree=False,
            with_adaptive=False,
            with_mdc=False,
        ),
    }


def run_batching(dataset, template, args) -> Dict:
    """Batched vs sequential submission of the hot workload.

    Replays the identical hot preference stream twice per cache mode -
    one query at a time, then chunked through ``submit_batch`` - each
    against a *fresh* service, so cache state is comparable.  The
    ``batch_speedup`` ratios (batched qps over sequential qps, same
    machine, same run) are the machine-portable headline metrics; the
    ``uncached`` row isolates what in-batch dedup alone buys on
    freshness-critical traffic that may not consult the result cache.
    """
    batch_size = args.batch if args.batch is not None else 32
    preferences = build_workload(
        "hot",
        dataset,
        template,
        queries=args.queries,
        order=args.order,
        seed=args.seed,
        cache_capacity=args.cache_size,
    )
    out: Dict[str, Dict] = {"batch_size": batch_size}
    for label, use_cache in (("cached", True), ("uncached", False)):
        rows = {}
        for mode, size in (("sequential", None), ("batched", batch_size)):
            service = SkylineService(
                dataset,
                template,
                cache_capacity=args.cache_size,
            )
            report = replay(
                service,
                preferences,
                name=f"hot-{mode}-{label}",
                concurrency=args.concurrency,
                use_cache=use_cache,
                batch_size=size,
            )
            print(f"    {report.render()}", file=sys.stderr)
            rows[mode] = report
        sequential_qps = rows["sequential"].throughput_qps
        out[label] = {
            "sequential_qps": round(sequential_qps, 2),
            "batched_qps": round(rows["batched"].throughput_qps, 2),
            "batch_speedup": (
                round(rows["batched"].throughput_qps / sequential_qps, 3)
                if sequential_qps
                else None
            ),
            "sequential": rows["sequential"].as_dict(),
            "batched": rows["batched"].as_dict(),
        }
    return out


def run_scenario(
    name: str, kwargs: Dict, dataset, template, args
) -> Dict:
    """Build one service and replay every workload shape against it."""
    service = SkylineService(dataset, template, **kwargs)
    print(
        f"  [{name}] structures: {', '.join(service.available_routes())} "
        f"(built in {service.preprocessing_seconds:.3f}s)",
        file=sys.stderr,
    )
    reports: List[Dict] = []
    for shape in sorted(WORKLOADS):
        # build_workload is the shared parameterisation (per-shape seed
        # streams, shape special-cases) - identical to the CLI's.
        preferences = build_workload(
            shape,
            dataset,
            template,
            queries=args.queries,
            order=args.order,
            seed=args.seed,
            cache_capacity=service.cache.capacity,
        )
        report = replay(
            service,
            preferences,
            name=shape,
            concurrency=args.concurrency,
            batch_size=args.batch,
        )
        print(f"    {report.render()}", file=sys.stderr)
        reports.append(report.as_dict())
    return {
        "scenario": name,
        "available_routes": list(service.available_routes()),
        "preprocessing_seconds": round(service.preprocessing_seconds, 6),
        "template_skyline_size": service.template_skyline_size,
        "workloads": reports,
    }


def main(argv=None) -> int:
    """Run every scenario and write the machine-readable baseline."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=2000)
    parser.add_argument("--cardinality", type=int, default=8)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--order", type=int, default=3)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--cache-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch", type=int, default=None,
                        help="batch size of the batching comparison "
                        "(default: 32) and of the scenario replays "
                        "when set")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.batch is not None and args.batch < 1:
        parser.error(f"--batch must be >= 1, got {args.batch}")

    dataset = generate(
        SyntheticConfig(
            num_points=args.points,
            num_numeric=2,
            num_nominal=2,
            cardinality=args.cardinality,
            seed=args.seed,
        )
    )
    template = frequent_value_template(dataset)
    print(
        f"dataset: {len(dataset)} points, backend: {get_backend().name}",
        file=sys.stderr,
    )

    scenarios = [
        run_scenario(name, kwargs, dataset, template, args)
        for name, kwargs in service_configs(args.cache_size).items()
    ]
    print("  [batching] hot workload, sequential vs submit_batch",
          file=sys.stderr)
    batching = run_batching(dataset, template, args)
    payload = {
        "benchmark": "preference-query serving layer: workload replay "
        "across service configurations",
        "python": platform.python_version(),
        "backend": get_backend().name,
        "config": {
            "points": args.points,
            "cardinality": args.cardinality,
            "num_numeric": 2,
            "num_nominal": 2,
            "queries_per_workload": args.queries,
            "order": args.order,
            "concurrency": args.concurrency,
            "cache_size": args.cache_size,
            "seed": args.seed,
            "batch": args.batch,
        },
        "scenarios": scenarios,
        "batching": batching,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"baseline written to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
