"""``python -m repro.net`` with the benchmark's tracer, installed on ``SIGUSR1``.

Usage: ``traced_server.py --trace-out SPANS.jsonl [repro.net arguments]``.

``SIGUSR1`` installs the span wrappers, including the engine wrappers
on the served service's backends.  When the server has drained and
exited, the recorded spans are written to ``--trace-out``.  The server itself is the unmodified
``repro.net.__main__.main``.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

import repro.net.__main__ as net_main  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        raise SystemExit("usage: traced_server.py --trace-out PATH [repro.net args]")
    trace_out, net_args = argv[1], argv[2:]
    tracer = Tracer()
    served = []
    build_service = net_main.build_service

    def capture(args):
        service = build_service(args)
        served.append(service)
        return service

    net_main.build_service = capture
    signal.signal(
        signal.SIGUSR1,
        lambda *_: tracer.install(
            backends=(served[0].backend, served[0].bitset) if served else ()
        ),
    )
    try:
        return net_main.main(net_args)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
