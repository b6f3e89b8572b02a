"""The query planner: choose the cheapest route that answers a query.

The paper's evaluation (Section 5) ranks four ways of answering an
implicit-preference skyline query, each with a different cost shape:

* **IPO-tree lookup** (``"ipo"``) - near-free per query, but only for
  chains whose values the tree materialised (IPO Tree-k truncates).
* **Adaptive SFS** (``"adaptive"``) - cost grows with the number of
  *affected* template-skyline members (those holding a re-ranked
  value); excellent when the query touches rare values.
* **MDC filter** (``"mdc"``) - containment tests over every
  template-skyline member's minimal disqualifying conditions; flat
  cost, supports any value, no per-combination materialisation.
* **direct kernel** (``"kernel"``) - a full backend skyline run over
  the base data; competitive when the dataset is small or the
  vectorized engine is available, and the only route that needs no
  preprocessing at all.
* **bit-parallel kernel** (``"bitset"``) - the full scan on the packed
  dominance kernels (:mod:`repro.engine.bitset_backend`): one bitwise
  AND tests 64 accepted points at once, so on large low-dimensional
  scans it beats the plain numpy kernel.
* **incremental** (``"incremental"``) - a kernel scan restricted to
  the *incrementally maintained* template skyline
  (:mod:`repro.updates`).  Under heavy churn the materialised indexes
  go stale faster than their refreshes amortise; the per-update
  maintainer stays exact at O(update) cost, and Theorem 1 licenses
  answering any template refinement from inside ``SKY(R~)``.

:class:`Planner` encodes that ranking as explicit decision rules over
*cheap* signals - no route is partially executed to cost it.  Every
decision returns a :class:`Plan` carrying the chosen route, the signal
values and a human-readable reason, so operators (and the route-choice
tests) can audit exactly why a query went where it went.  The rules are
documented for operators in ``docs/architecture.md``; keep the two in
sync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.preferences import Preference

#: All route labels, in preference order.  ``"parallel"`` is retired:
#: no rule emits it, no service lists it and forcing it is an unknown
#: route.  The label stays because the benchmark's per-route share
#: metrics are named from this tuple.
ROUTES = (
    "incremental", "ipo", "adaptive", "mdc", "bitset", "parallel", "kernel"
)


@dataclass(frozen=True)
class PlannerConfig:
    """Tunable thresholds of the decision rules.

    Defaults are calibrated on the scaled synthetic workloads (see
    ``BENCH_serve.json``); operators re-tune them from the per-route
    latency percentiles the driver reports.
    """

    #: Below this many base rows a direct kernel run beats any index
    #: bookkeeping (both index paths still compile a rank table and walk
    #: auxiliary structures; the kernel just scans).
    small_dataset_rows: int = 64

    #: Adaptive SFS is chosen over the MDC filter while the affected
    #: member count stays below this fraction of the template skyline -
    #: its re-sort/re-scan work is O(poly(affected)), the MDC filter's
    #: is flat in the query.
    max_affected_fraction: float = 0.25

    #: Force one route unconditionally (None = decide per query).
    #: Used by operators for incident bypasses and by the route tests.
    forced_route: Optional[str] = None

    #: The packed bit-parallel kernel amortises its quantize-and-pack
    #: pass only on large scans; below this many base rows the plain
    #: kernel route is kept.
    bitset_min_rows: int = 100_000

    #: Bucket false positives of the packed AND grow with
    #: dimensionality (the conjunction over per-dimension threshold
    #: bitmaps thins out), so above this many dimensions the exact
    #: refine dominates the sweep and the bitset route stops paying.
    bitset_max_dims: int = 8

    #: Once the service has seen at least this many row updates per
    #: served query, it is churn-heavy: queries route to the
    #: incrementally maintained template skyline (always exact, O(1) to
    #: keep fresh per update) and the service stops refreshing the
    #: IPO-tree eagerly (its refresh would run once per update batch
    #: and never amortise).  Below the ratio, updates are rare enough
    #: that eager index refreshes pay for themselves.
    incremental_update_ratio: float = 0.25

    def __post_init__(self) -> None:
        if self.forced_route is not None and self.forced_route not in ROUTES:
            raise ValueError(
                f"unknown route {self.forced_route!r}; choose one of {ROUTES}"
            )
        if not 0.0 <= self.max_affected_fraction <= 1.0:
            raise ValueError("max_affected_fraction must be within [0, 1]")
        if self.small_dataset_rows < 0:
            raise ValueError("small_dataset_rows must be >= 0")
        if self.bitset_min_rows < 0:
            raise ValueError("bitset_min_rows must be >= 0")
        if self.bitset_max_dims < 1:
            raise ValueError("bitset_max_dims must be >= 1")
        if self.incremental_update_ratio < 0:
            raise ValueError("incremental_update_ratio must be >= 0")


@dataclass(frozen=True)
class PlanSignals:
    """The cheap cost signals one decision consumed."""

    dataset_rows: int
    preference_order: int
    tree_available: bool
    tree_covers_query: bool
    adaptive_available: bool
    affected_members: int
    template_skyline_size: int
    mdc_available: bool
    backend_vectorized: bool
    #: Dimensionality of the dataset (the bitset gate degrades with
    #: ``d`` - see ``PlannerConfig.bitset_max_dims``).
    dimensions: int = 0
    #: The service holds a vectorized (numpy-tier) bitset backend for
    #: scan routes; defaulted so older signal producers keep working.
    bitset_available: bool = False
    #: An :class:`~repro.updates.incremental.IncrementalSkyline`
    #: maintainer tracks the template skyline (the service has entered
    #: mutable mode); defaulted so older signal producers keep working.
    incremental_available: bool = False
    #: Row updates absorbed per query served so far (the churn gate's
    #: input; see ``PlannerConfig.incremental_update_ratio``).
    update_query_ratio: float = 0.0

    @property
    def affected_fraction(self) -> float:
        """Affected members over template-skyline size (0 when empty)."""
        if not self.template_skyline_size:
            return 0.0
        return self.affected_members / self.template_skyline_size


@dataclass(frozen=True)
class Plan:
    """One routing decision: where the query goes and why.

    ``signals`` is ``None`` when the route was forced (by the caller or
    by configuration) without consulting any signals - forcing exists
    precisely to avoid touching the structures being bypassed.
    """

    route: str
    reason: str
    signals: Optional[PlanSignals]


class Planner:
    """Decide, per query, which structure answers it fastest.

    The planner never executes a route; it only inspects availability
    and the :class:`PlanSignals` handed in by the service (which owns
    the indexes and can read them cheaply).  Rules, in order:

    1. ``forced_route`` set -> that route (operator override).
    2. Tiny dataset (``rows <= small_dataset_rows``) -> ``kernel``.
    3. Churn-heavy (a maintainer exists and the update-to-query ratio
       is at least ``incremental_update_ratio``) -> ``incremental``:
       scan the maintained template skyline; materialised indexes are
       stale or paying non-amortising refreshes in this regime.
    4. Tree available and every chain value materialised -> ``ipo``.
    5. Adaptive SFS available and the affected fraction is at most
       ``max_affected_fraction`` -> ``adaptive``.
    6. MDC filter available -> ``mdc``.
    7. Adaptive SFS available -> ``adaptive`` (better than a raw scan
       even with many affected members: it searches inside SKY(R~)).
    8. No auxiliary structure left: a base-data scan is due.  When the
       vectorized bitset backend is available, the dataset is at least
       ``bitset_min_rows`` and at most ``bitset_max_dims``-dimensional
       -> ``bitset`` (the packed bit-parallel scan).
    9. Otherwise -> ``kernel``.
    """

    def __init__(self, config: Optional[PlannerConfig] = None) -> None:
        self.config = config if config is not None else PlannerConfig()

    def plan(self, signals: PlanSignals) -> Plan:
        """Apply the decision rules to one query's signals.

        Pure and deterministic: the same signals always produce the
        same :class:`Plan`, and no route is executed (or partially
        executed) to make the decision.
        """
        cfg = self.config
        if cfg.forced_route is not None:
            return Plan(cfg.forced_route, "forced by configuration", signals)
        if signals.dataset_rows <= cfg.small_dataset_rows:
            return Plan(
                "kernel",
                f"dataset has {signals.dataset_rows} rows "
                f"(<= {cfg.small_dataset_rows}); direct scan beats index "
                "bookkeeping",
                signals,
            )
        if (
            signals.incremental_available
            and signals.update_query_ratio >= cfg.incremental_update_ratio
        ):
            return Plan(
                "incremental",
                f"churn-heavy ({signals.update_query_ratio:.2f} updates "
                f"per query >= {cfg.incremental_update_ratio:.2f}); "
                "scanning the incrementally maintained template skyline",
                signals,
            )
        if signals.tree_available and signals.tree_covers_query:
            return Plan(
                "ipo",
                "IPO-tree materialised every queried value; "
                "answered by merging-property lookup",
                signals,
            )
        if (
            signals.adaptive_available
            and signals.affected_fraction <= cfg.max_affected_fraction
        ):
            return Plan(
                "adaptive",
                f"only {signals.affected_members}/"
                f"{signals.template_skyline_size} template-skyline members "
                "affected; incremental re-sort is cheap",
                signals,
            )
        if signals.mdc_available:
            return Plan(
                "mdc",
                "many affected members; flat-cost MDC containment "
                "refinement wins",
                signals,
            )
        if signals.adaptive_available:
            return Plan(
                "adaptive",
                "no MDC conditions available; Adaptive SFS still searches "
                "inside the template skyline only",
                signals,
            )
        if (
            signals.bitset_available
            and signals.dataset_rows >= cfg.bitset_min_rows
            and signals.dimensions <= cfg.bitset_max_dims
        ):
            return Plan(
                "bitset",
                f"full scan over {signals.dataset_rows} rows in "
                f"{signals.dimensions} dimensions; packed bit-parallel "
                "kernel evaluates 64 dominance tests per word op",
                signals,
            )
        return Plan(
            "kernel",
            "no auxiliary structure available; direct backend skyline"
            + (" (vectorized)" if signals.backend_vectorized else ""),
            signals,
        )


@dataclass
class RouteCounters:
    """Mutable per-route tallies kept by the service (under its lock)."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {route: 0 for route in ROUTES}
    )

    def record(self, route: str) -> None:
        """Increment one route's tally."""
        self.counts[route] = self.counts.get(route, 0) + 1

    def snapshot(self) -> Dict[str, int]:
        """A copy safe to hand across threads."""
        return dict(self.counts)


def preference_order(preference: Optional[Preference]) -> int:
    """``order(R~')`` of a possibly-None preference (signal helper)."""
    return preference.order if preference is not None else 0


def chains_covered(tree, preference: Optional[Preference]) -> bool:
    """Would ``tree`` answer ``preference`` without UnsupportedQueryError?

    Mirrors :meth:`repro.ipo.tree.IPOTree._query_chains`'s coverage
    check without building the chains twice: every value listed by the
    merged preference must have a materialised node on its dimension.
    Queries that do not refine the tree's template are *not* covered.
    """
    from repro.exceptions import RefinementError

    pref = preference if preference is not None else Preference.empty()
    try:
        merged = pref.merged_over(tree.template)
    except RefinementError:
        return False
    for depth, dim in enumerate(tree.nominal_dims):
        spec = tree.dataset.schema[dim]
        available = set(tree.candidates[depth])
        for value in merged[spec.name].choices:
            if spec.domain.index(value) not in available:
                return False
    return True
