"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload hot-wire --seed 1 --seconds 25 --trace 0

Run from the repository root; the ``repro`` package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, measured untraced; with
``--trace 1`` the per-layer metrics of a traced run.  The lines before
it record the environment and every measured metric with its unit.
The exit code is 1 when any sampled answer differs from the oracle and
2 when there is no ``src/repro`` to measure.  Workloads, metrics and
findings: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("paper-mixed", "hot-wire", "churn-durable", "scan-100k")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every dataset size (self tests only)")
    return parser.parse_args(argv)


def run(args, service_cls=None):
    """(Result, Tracer or None) of one workload run."""
    import inproc
    import wire

    if args.workload == "hot-wire":
        return wire.hot_wire(args.seed, args.seconds, bool(args.trace),
                             ROOT, OUT, args.scale)
    runner = {
        "paper-mixed": inproc.paper_mixed,
        "churn-durable": inproc.churn_durable,
        "scan-100k": inproc.scan_100k,
    }[args.workload]
    kwargs = {"workdir": OUT} if args.workload == "churn-durable" else {}
    if service_cls is not None:
        kwargs["service_cls"] = service_cls
    return runner(args.seed, args.seconds, bool(args.trace),
                  scale=args.scale, **kwargs)


def host_speed_ms() -> dict:
    """``hostspeed.py``'s medians, timed in a child process."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "hostspeed.py")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def main(argv=None, service_cls=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: {src}/repro not found; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT, exist_ok=True)
    # The bitset backend compiles its C sweep on first use; keep the
    # shared library inside the checkout.
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(OUT, "kernels")

    from layers import emitted

    speed_before = host_speed_ms()
    result, tracer = run(args, service_cls)
    result.env["host_speed_ms"] = {"before": speed_before, "after": host_speed_ms()}
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    result.put("error_frac", result.failed / max(1, result.attempted))
    print("env " + json.dumps(result.env, sort_keys=True))
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"metric {name} {value:.6g} {unit}")
    for mismatch in result.mismatches:
        print(f"WRONG ANSWER: {mismatch}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": emitted(result.metrics, bool(args.trace)),
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    # A terminated run still unwinds, so the server process it started
    # is drained and its scratch directories removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
