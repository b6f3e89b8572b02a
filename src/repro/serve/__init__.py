"""repro.serve - the preference-query serving layer.

Turns the one-shot entry points (:func:`repro.skyline`, the index
classes) into a query *service* exercising the paper's central
adaptivity claim: per incoming ``(dataset, preference)`` query, choose
between precomputed structures and on-the-fly refinement.

Public surface:

* :class:`SkylineService` - dataset + template + indexes + cache behind
  one thread-safe ``query()`` entry point, plus batched evaluation
  (``evaluate_batch`` / ``submit_batch`` -> :class:`BatchReport`) and
  incremental row churn (``insert_rows`` / ``delete_rows`` ->
  :class:`UpdateReport`, backed by :mod:`repro.updates`).
* :class:`Planner` / :class:`PlannerConfig` / :class:`Plan` /
  :class:`PlanSignals` - the routing decision rules (documented in
  ``docs/architecture.md``).
* :class:`SemanticCache` / :class:`CacheStats` - LRU result cache keyed
  on :func:`repro.core.preferences.canonical_cache_key`.
* :func:`replay` / :class:`WorkloadReport` / :func:`percentile` - the
  concurrent batch driver.
* :data:`WORKLOADS` - synthetic workload shapes (hot / cold / churn /
  aliased) for ``python -m repro.serve``.

Quick example::

    from repro.serve import SkylineService
    service = SkylineService(dataset, template)
    result = service.query(preference)
    result.ids, result.route, result.cached
"""

from repro.serve.cache import CacheStats, SemanticCache
from repro.serve.driver import WorkloadReport, percentile, replay
from repro.serve.planner import (
    ROUTES,
    Plan,
    Planner,
    PlannerConfig,
    PlanSignals,
)
from repro.serve.service import (
    BatchReport,
    ServeResult,
    ServiceStats,
    SkylineService,
    UpdateReport,
)
from repro.serve.workloads import (
    SHAPE_SEEDS,
    WORKLOADS,
    aliased_workload,
    build_workload,
    churn_workload,
    cold_workload,
    hot_workload,
)

__all__ = [
    "ROUTES",
    "SHAPE_SEEDS",
    "WORKLOADS",
    "BatchReport",
    "CacheStats",
    "Plan",
    "Planner",
    "PlannerConfig",
    "PlanSignals",
    "SemanticCache",
    "ServeResult",
    "ServiceStats",
    "SkylineService",
    "UpdateReport",
    "WorkloadReport",
    "aliased_workload",
    "build_workload",
    "churn_workload",
    "cold_workload",
    "hot_workload",
    "percentile",
    "replay",
]
