"""Metric names and units, and the per-layer metrics a traced run yields.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (the self
test checks that they agree).  Every run prints every metric of its
mode; a layer idle on a workload reports 0.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from tracer import mean_self, self_times

from repro.serve.planner import ROUTES

#: Measured with tracing off, on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: Every route the service counts: the planner's plus the virtual ones.
SHARE_ROUTES = ROUTES + ("cache", "batch")

PER_LAYER = (
    ("core.cache_key_us", "us"),
    ("core.rank_compile_us", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.patches", "count"),
    ("serve.cache.invalidations", "count"),
    ("serve.planner.plan_us", "us"),
) + tuple((f"serve.route_share.{route}", "ratio") for route in SHARE_ROUTES) + (
    ("serve.self_us", "us"),
    ("ipo.query_us", "us"),
    ("ipo.calls", "count"),
    ("mdc.query_us", "us"),
    ("mdc.calls", "count"),
    ("adaptive.query_us", "us"),
    ("adaptive.calls", "count"),
    ("adaptive.insert_us", "us"),
    ("engine.prepare_ms", "ms"),
    ("engine.sweep_ms", "ms"),
    ("engine.calls", "count"),
    ("updates.insert_us", "us"),
    ("updates.delete_us", "us"),
    ("storage.log_ms", "ms"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.checkpoints", "count"),
    ("storage.wal_bytes_per_write", "B/write"),
    ("recover.store_ms", "ms"),
    ("recover.maintainers_ms", "ms"),
    ("recover.mdc_ms", "ms"),
    ("recover.ipo_ms", "ms"),
    ("recover.replay_ms", "ms"),
    ("recover.ipo_refresh_ms", "ms"),
    ("net.rtt_ms", "ms"),
    ("net.dispatch_ms", "ms"),
    ("net.service_ms", "ms"),
    ("net.transport_ms", "ms"),
    ("net.hop_codec_ms", "ms"),
    ("net.healthz_rtt_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    # End-to-end metrics the bounds cannot hold: p99 swings with every
    # host stall, and the write/recovery metrics exist on churn-durable
    # alone (a bounded metric must be non-zero on every workload).  The
    # traced run reports them from its untraced half; an untraced run
    # prints them above its result line.
    ("query_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("recover_s", "s"),
    ("disk_bytes_per_row", "B/row"),
)

#: Printed on stderr only: the result line carries it as failed/attempted.
UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER, error_frac="ratio")

#: (metric, span name, scale in ns) for mean self time per call.
SELF_TIMES = (
    ("core.cache_key_us", "core.cache_key", 1e3),
    ("core.rank_compile_us", "core.rank_compile", 1e3),
    ("serve.cache.lookup_us", "serve.cache.lookup", 1e3),
    ("serve.planner.plan_us", "serve.planner.plan", 1e3),
    ("serve.self_us", "serve.query", 1e3),
    ("ipo.query_us", "ipo.query", 1e3),
    ("mdc.query_us", "mdc.query", 1e3),
    ("adaptive.query_us", "adaptive.query", 1e3),
    ("adaptive.insert_us", "adaptive.insert", 1e3),
    ("engine.prepare_ms", "engine.prepare", 1e6),
    ("engine.sweep_ms", "engine.sweep", 1e6),
    ("updates.insert_us", "updates.insert", 1e3),
    ("updates.delete_us", "updates.delete", 1e3),
    ("storage.log_ms", "storage.log", 1e6),
    ("storage.checkpoint_ms", "storage.checkpoint", 1e6),
)

#: Direct children of a ``serve.recover`` span, by recovery stage.
RECOVERY_STAGES = (
    ("recover.store_ms", "storage.recover"),
    ("recover.maintainers_ms", "updates.init"),
    ("recover.mdc_ms", "mdc.build"),
    ("recover.ipo_ms", "ipo.prime_baseline"),
)


def span_metrics(put, spans: Sequence[list]) -> None:
    """Mean self times and the engine/checkpoint call counts."""
    times = self_times(spans)
    for metric, name, scale in SELF_TIMES:
        put(metric, mean_self(times, name, scale))
    put("engine.calls", len(times.get("engine.sweep", ())))
    put("storage.checkpoints", len(times.get("storage.checkpoint", ())))


def recovery_metrics(put, spans: Sequence[list]) -> None:
    """Split each ``serve.recover`` span into its stages (ms).

    A stage is the total time of the root's direct children of that
    name; ``recover.replay_ms`` is the rest - WAL-tail replay plus the
    restore work no stage names.  ``recover.ipo_refresh_ms`` is the part
    of the replay spent refreshing the IPO-tree.
    """
    roots = {s[0]: s for s in spans if s[3] == "serve.recover"}
    requests = {s[2] for s in roots.values()}
    stage_ns = {metric: 0 for metric, _ in RECOVERY_STAGES}
    by_name = {name: metric for metric, name in RECOVERY_STAGES}
    refresh_ns = 0
    for _span_id, parent, request, name, start, end in spans:
        if parent in roots and name in by_name:
            stage_ns[by_name[name]] += end - start
        elif name == "ipo.refresh" and request in requests:
            refresh_ns += end - start
    total_ns = sum(s[5] - s[4] for s in roots.values())
    for metric, value in stage_ns.items():
        put(metric, value / 1e6)
    put("recover.replay_ms", (total_ns - sum(stage_ns.values())) / 1e6)
    put("recover.ipo_refresh_ms", refresh_ns / 1e6)


def counter_metrics(
    put,
    routes: Mapping[str, float],
    cache: Mapping[str, float],
) -> None:
    """Route shares, structure call counts and cache counters.

    ``routes`` and ``cache`` are deltas of the service's public
    counters (``stats().route_counts`` / ``stats().cache``) over the
    traced window.
    """
    total = sum(routes.values())
    for route in SHARE_ROUTES:
        put(f"serve.route_share.{route}",
            routes.get(route, 0) / total if total else 0.0)
    for structure in ("ipo", "mdc", "adaptive"):
        put(f"{structure}.calls", routes.get(structure, 0))
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    put("serve.cache.hit_rate", cache.get("hits", 0) / lookups if lookups else 0.0)
    for field in ("evictions", "patches", "invalidations"):
        put(f"serve.cache.{field}", cache.get(field, 0))


def counter_delta(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    """Per-key counter increase from ``before`` to ``after``."""
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}


def emitted(metrics: Mapping[str, tuple], trace: bool) -> Dict[str, Dict[str, object]]:
    """The mode's metric set, as the result line prints it.

    A per-layer metric no code path set is an idle layer (0); an
    end-to-end metric must have been measured.
    """
    names = PER_LAYER if trace else END_TO_END
    out: Dict[str, Dict[str, object]] = {}
    for name, unit in names:
        if name in metrics:
            value = metrics[name][0]
        elif trace:
            value = 0.0
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": value, "unit": unit}
    return out
