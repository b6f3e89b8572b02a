"""The serving facade: one `query()` entry point over all structures.

:class:`SkylineService` owns a dataset, a template, the auxiliary
structures the paper proposes (IPO-tree, Adaptive SFS, MDC filter), a
:class:`~repro.serve.cache.SemanticCache` and a
:class:`~repro.serve.planner.Planner`.  Per query it:

1. canonicalises the preference into a cache key
   (:func:`~repro.core.preferences.canonical_cache_key`) - this also
   validates the preference against the schema and the template,
2. consults the semantic cache (equal partial orders hit regardless of
   surface spelling),
3. on a miss, gathers the cheap :class:`~repro.serve.planner.PlanSignals`,
   asks the planner for a route, executes it, and stores the answer.

Queries are read-only on every index, so any number of driver threads
may call :meth:`query` concurrently; the cache and the route counters
are lock-protected.  Row churn enters through :meth:`insert_rows` /
:meth:`delete_rows`: the service then shifts into *mutable mode* - the
dataset is wrapped in a :class:`~repro.updates.dataset.DynamicDataset`,
the template skyline is kept current by an
:class:`~repro.updates.incremental.IncrementalSkyline` maintainer, and
a writer-preferring read-write lock keeps queries concurrent with each
other while updates run exclusively.  Semantic-cache entries are
*revised* per update under a data version counter: inserts patch every
cached skyline in place (exact - a new point can only evict what it
dominates), deletes drop exactly the entries whose skyline contained a
deleted row, and answers computed against a superseded version are
fenced out of the cache.

The answer of every route is the identical skyline id set (Theorem 1
guarantees the index routes search inside ``SKY(R~)`` without losing
members); the equivalence suite in ``tests/test_serve_service.py``
enforces this across randomized preferences.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import faults
from repro.adaptive.adaptive_sfs import AdaptiveSFS
from repro.algorithms.sfs import sfs_skyline
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import (
    ImplicitPreference,
    Preference,
    canonical_cache_key,
)
from repro.core.skyline import skyline
from repro.engine import resolve_backend
from repro.exceptions import (
    EngineError,
    ReproError,
    StorageError,
    StorageUnavailable,
)
from repro.ipo.serialize import (
    preference_from_dict,
    preference_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.ipo.tree import IPOTree
from repro.mdc.filter import MDCFilter
from repro.serve.cache import CacheStats, SemanticCache
from repro.storage.snapshot import dataset_state, restore_dataset
from repro.storage.store import CheckpointPolicy, DurableStore
from repro.updates.dataset import DynamicDataset
from repro.updates.incremental import IncrementalSkyline, UpdateEffect
from repro.updates.rwlock import ReadWriteLock
from repro.serve.planner import (
    ROUTES,
    Plan,
    Planner,
    PlannerConfig,
    PlanSignals,
    RouteCounters,
    chains_covered,
)


@dataclass(frozen=True)
class _RestoreState:
    """Everything :meth:`SkylineService.recover` hands the constructor.

    ``dynamic`` is the dataset at the *snapshot* version; ``tail`` the
    committed WAL records to replay on top of it (in order).  The
    maintained skyline id lists and the serialized tree let the
    restore path skip the expensive from-scratch computations; ``None``
    for any of them means "recompute" (e.g. a snapshot taken before the
    service ever mutated has no maintainers yet).  ``store`` is
    ``None`` for a storage-less restore (a replication follower
    rebuilding from a shipped snapshot document): the service then
    applies mutations without logging them.
    """

    store: Optional[DurableStore]
    dynamic: DynamicDataset
    template_skyline: Optional[Tuple[int, ...]]
    base_skyline: Optional[Tuple[int, ...]]
    tree: Optional[dict]
    tree_stale: bool
    tail: Tuple[dict, ...]
    snapshot_version: int


def _as_id_tuple(ids) -> Optional[Tuple[int, ...]]:
    """JSON id list -> int tuple, passing ``None`` (= recompute) through."""
    return tuple(int(i) for i in ids) if ids is not None else None


@dataclass(frozen=True)
class ServeResult:
    """One served query: the answer plus how it was produced."""

    ids: Tuple[int, ...]
    #: One of the planner ROUTES, or the virtual routes "cache" (served
    #: from the semantic cache) / "batch" (deduplicated inside a batch).
    route: str
    reason: str
    cached: bool
    seconds: float
    key: Hashable
    #: Data version the answer reflects (0 until the first mutation;
    #: cached answers report the version the cache is serving).
    version: int = 0

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class UpdateReport:
    """One applied mutation batch: ids, skyline delta, cache accounting."""

    kind: str
    point_ids: Tuple[int, ...]
    #: Data version after the batch.
    version: int
    #: Template-skyline members that entered / left because of the batch.
    skyline_entered: Tuple[int, ...]
    skyline_evicted: Tuple[int, ...]
    #: Semantic-cache revision outcome (entries kept / rewritten / dropped).
    cache_retained: int
    cache_patched: int
    cache_invalidated: int
    #: Whether the IPO-tree was refreshed eagerly (False = left stale
    #: because the workload is churn-heavy, or no tree was built).
    tree_refreshed: bool
    seconds: float

    def __len__(self) -> int:
        return len(self.point_ids)


@dataclass(frozen=True)
class BatchReport:
    """One evaluated batch: per-query results plus dedup accounting.

    ``results`` is positional (``results[i]`` answers
    ``preferences[i]``).  ``unique_queries`` counts distinct canonical
    keys in the batch; ``duplicate_queries`` the submissions answered
    by sharing another submission's execution; ``cache_hits`` the
    unique keys served straight from the semantic cache.
    """

    results: Tuple[ServeResult, ...]
    unique_queries: int
    duplicate_queries: int
    cache_hits: int
    seconds: float

    def __len__(self) -> int:
        return len(self.results)

    @property
    def executed_queries(self) -> int:
        """Unique keys that actually ran a route this batch."""
        return self.unique_queries - self.cache_hits


@dataclass(frozen=True)
class ServiceStats:
    """A snapshot of the service counters for reporting."""

    queries: int
    route_counts: Dict[str, int]
    cache: CacheStats
    #: Rows inserted + deleted since construction (0 for a static service).
    updates: int = 0
    #: Write-path health: ``"healthy"`` or ``"degraded"`` (read-only).
    health: str = "healthy"
    #: Times the service entered degraded read-only mode.
    degraded_transitions: int = 0
    #: Times a successful checkpoint re-armed the write path.
    recoveries: int = 0
    #: Automatic checkpoints that failed (the mutation still succeeded).
    checkpoint_failures: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering used by the workload reports."""
        return {
            "queries": self.queries,
            "routes": dict(self.route_counts),
            "cache": self.cache.as_dict(),
            "updates": self.updates,
            "health": {
                "state": self.health,
                "degraded_transitions": self.degraded_transitions,
                "recoveries": self.recoveries,
                "checkpoint_failures": self.checkpoint_failures,
            },
        }


class SkylineService:
    """Preference-query serving over one dataset + template.

    Parameters
    ----------
    dataset, template:
        The data and the template ``R~`` every served preference must
        refine (``None`` = empty template, i.e. any preference).
    backend:
        Execution backend for index construction and the kernel route
        (name, instance or ``None`` for the process default).
    planner_config:
        Decision-rule thresholds; see :class:`PlannerConfig`.
    cache_capacity:
        LRU capacity of the semantic result cache (0 disables it).
    with_tree:
        ``"auto"`` (default) builds the IPO-tree only when its estimated
        node count stays below ``max_tree_nodes``; ``True``/``False``
        force/skip it.
    ipo_k:
        Optional IPO Tree-k truncation (materialise only the ``k`` most
        frequent values per nominal attribute).
    with_mdc, with_adaptive:
        Build the MDC filter / Adaptive SFS index (both default on; the
        planner only routes to structures that exist).
    storage_dir:
        Directory for durable state (``None`` = in-memory only).  On
        construction the directory must be fresh (recover an existing
        one with :meth:`recover`); an initial snapshot is written
        immediately and every ``insert_rows`` / ``delete_rows`` /
        ``compact`` batch is appended to a write-ahead log and fsync'd
        before the call returns.  See ``docs/storage.md``.
    checkpoint_every, checkpoint_wal_bytes:
        Automatic checkpoint policy: fold the WAL into a fresh snapshot
        after this many logged batches / once the WAL reaches this many
        bytes (``None``/``None`` = only explicit :meth:`checkpoint`
        calls).

    Examples
    --------
    >>> from repro.core.attributes import Schema, nominal, numeric_min
    >>> from repro.core.dataset import Dataset
    >>> from repro.core.preferences import Preference
    >>> schema = Schema([numeric_min("Price"), nominal("G", ["T", "H", "M"])])
    >>> data = Dataset(schema, [(10, "T"), (8, "H"), (12, "M"), (9, "T")])
    >>> service = SkylineService(data, cache_capacity=8)
    >>> first = service.query(Preference({"G": "H < *"}))
    >>> second = service.query(Preference({"G": "H"}))   # same partial order
    >>> first.ids == second.ids and second.cached
    True
    """

    def __init__(
        self,
        dataset: Dataset,
        template: Optional[Preference] = None,
        *,
        backend=None,
        planner_config: Optional[PlannerConfig] = None,
        cache_capacity: int = 256,
        with_tree: object = "auto",
        ipo_k: Optional[int] = None,
        max_tree_nodes: int = 50_000,
        with_mdc: bool = True,
        with_adaptive: bool = True,
        storage_dir: Optional[object] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_wal_bytes: Optional[int] = None,
        _restore: Optional[_RestoreState] = None,
    ) -> None:
        started = time.perf_counter()
        self.dataset = dataset
        self.template = template if template is not None else Preference.empty()
        self.template.validate_against(dataset.schema)
        self.backend = resolve_backend(backend)
        # The bit-parallel scan route: only the vectorized (numpy)
        # tier of the bitset backend out-scans the plain kernel, so
        # the route stays off on python-int-only hosts.
        self.bitset = None
        try:
            candidate = (
                self.backend
                if self.backend.name == "bitset"
                else resolve_backend("bitset")
            )
        except EngineError:  # pragma: no cover - registry always has it
            candidate = None
        if candidate is not None and candidate.vectorized:
            self.bitset = candidate
        self.planner = Planner(planner_config)
        self.cache = SemanticCache(cache_capacity)
        self._lock = threading.Lock()
        self._routes = RouteCounters()
        self._queries = 0
        # Write-path health machine: "healthy" <-> "degraded".  Guarded
        # by self._lock (readers poll from other threads); transitions
        # only ever happen under the exclusive write lock.
        self._health_state = "healthy"
        self._degraded_transitions = 0
        self._recoveries = 0
        self._checkpoint_failures = 0
        self._ipo_k = ipo_k
        # Mutable-mode state: lazily engaged by the first insert/delete.
        self._rw = ReadWriteLock()
        self._dynamic: Optional[DynamicDataset] = None
        self._maintainer: Optional[IncrementalSkyline] = None
        self._base_maintainer: Optional[IncrementalSkyline] = None
        self._updates = 0
        # Churn-gate window: recent updates/queries with halving decay,
        # reset by refresh_structures()/compact() so regime changes
        # (and explicit re-alignments) move the ratio promptly instead
        # of being damped by the whole service history.
        self._gate_updates = 0
        self._gate_queries = 0
        self._tree_stale = False
        self._mdc_stale = False
        # Per-cached-key rank tables for the insert patcher, memoised
        # for the service lifetime: a table depends only on the
        # immutable (key, schema) pair, so recompiling per batch would
        # redo identical work inside the write lock.  Mutated only
        # under that lock; bounded below.
        self._patch_tables: Dict[Hashable, RankTable] = {}

        if self.backend.vectorized:
            # Warm the lazy columnar store once, before worker threads
            # can race to build it.
            dataset.columns

        if _restore is not None:
            self._install_recovered(
                _restore, with_mdc=with_mdc, with_adaptive=with_adaptive
            )
        else:
            self.tree: Optional[IPOTree] = None
            if self._should_build_tree(with_tree, ipo_k, max_tree_nodes):
                self.tree = IPOTree.build(
                    dataset,
                    self.template,
                    values_per_attribute=ipo_k,
                    backend=self.backend,
                )
            self.adaptive: Optional[AdaptiveSFS] = (
                AdaptiveSFS(dataset, self.template, backend=self.backend)
                if with_adaptive
                else None
            )
            self.mdc: Optional[MDCFilter] = (
                MDCFilter(dataset, self.template, backend=self.backend)
                if with_mdc
                else None
            )
            for structure in (self.adaptive, self.tree, self.mdc):
                if structure is not None:
                    self._template_skyline_size = len(structure.skyline_ids)
                    break
            else:
                self._template_skyline_size = 0

        # Durability: attach the store last so the initial snapshot (or
        # the WAL-tail replay of a recovery) sees fully built structures.
        # A recovered service may *borrow* its base rows from an mmap'd
        # snapshot sidecar; the service owns that file handle and
        # releases it in close() (compaction may drop the dataset's use
        # of the store earlier, but the handle stays ours to close).
        self._borrowed_store = (
            _restore.dynamic.base_store if _restore is not None else None
        )
        self.storage: Optional[DurableStore] = None
        self._replaying = False
        if _restore is not None:
            self.storage = _restore.store
            if _restore.tail:
                self._replay_tail(_restore.tail)
        elif storage_dir is not None:
            store = DurableStore(
                storage_dir,
                CheckpointPolicy(checkpoint_every, checkpoint_wal_bytes),
            )
            if store.has_state():
                raise StorageError(
                    f"storage directory {store.directory} already holds "
                    f"recoverable state; use SkylineService.recover() "
                    f"instead of constructing over it"
                )
            store.checkpoint(self._durable_state(), self._data_version())
            self.storage = store
        self.preprocessing_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def query(
        self,
        preference: Optional[Preference] = None,
        *,
        use_cache: bool = True,
        route: Optional[str] = None,
    ) -> ServeResult:
        """Serve one preference query.

        ``route`` overrides the planner for this call only (used by the
        equivalence tests and for operator debugging).  A forced route
        must actually *execute* - the semantic cache is not consulted
        (serving a cached answer would mask the structure under
        investigation) and no plan signals are gathered (they would
        touch the structures the force bypasses) - but the fresh answer
        is still stored for subsequent planned queries, *unless* the
        forced structure is currently marked stale (mutable mode):
        that answer may be outdated yet carries the current data
        version, so storing it would poison the revised cache.
        ``use_cache=False`` skips both lookup and store (counted as a
        bypass).
        """
        started = time.perf_counter()
        key = canonical_cache_key(
            self.dataset.schema, preference, self.template
        )
        forced = (
            route if route is not None else self.planner.config.forced_route
        )
        if not use_cache:
            self.cache.record_bypass()
        with self._rw.read():
            version = self._data_version()
            cache_version = self.cache.version
            if use_cache and forced is None:
                hit = self.cache.lookup(key)
                if hit is not None:
                    self._record("cache")
                    return ServeResult(
                        ids=hit,
                        route="cache",
                        reason="semantic cache hit",
                        cached=True,
                        seconds=time.perf_counter() - started,
                        key=key,
                        version=version,
                    )
            if forced is not None:
                plan = Plan(
                    forced,
                    "forced by caller"
                    if route is not None
                    else "forced by configuration",
                    None,
                )
            else:
                plan = self.planner.plan(self._signals(preference))
            storable = forced is None or not self._route_is_stale(forced)
            ids = self._execute(plan.route, preference)
        if use_cache and storable:
            self.cache.store(key, ids, version=cache_version)
        self._record(plan.route)
        return ServeResult(
            ids=ids,
            route=plan.route,
            reason=plan.reason,
            cached=False,
            seconds=time.perf_counter() - started,
            key=key,
            version=version,
        )

    def evaluate_batch(
        self,
        preferences: Sequence[Optional[Preference]],
        *,
        use_cache: bool = True,
    ) -> List[ServeResult]:
        """Serve a batch of queries in one shared pass.

        Positional: ``result[i]`` answers ``preferences[i]``.  The
        batch path factors the per-query overhead of sequential
        submission into one pass per concern:

        1. **Canonicalize up front** - every preference is turned into
           its canonical cache key first (validating it against the
           schema and template), so duplicates are visible before any
           execution.
        2. **Deduplicate** - submissions sharing a canonical key are
           grouped; each distinct partial order is planned and executed
           at most once per batch.  Duplicate submissions reuse the
           group's answer and are reported with route ``"batch"``.
        3. **One cache pass** - each unique key consults the semantic
           cache exactly once (sequential submission pays one lookup
           per submission).
        4. **Group-by-route execution** - the remaining misses are
           planned (one signal gathering per unique query), grouped by
           planned route and executed group by group, so route state -
           the shared columnar store and that route's index structures
           - stays hot across one group's scan instead of being
           revisited per interleaved submission.  (Each unique query
           still compiles its own rank table; cross-query result reuse
           is the semantic cache's job.)

        With ``use_cache=False`` (freshness-critical traffic) one
        bypass is recorded per *unique* key and nothing is read or
        stored - in-batch dedup is then the only sharing, which is
        exactly what makes batching profitable on hot workloads.

        A configured forced route (``PlannerConfig.forced_route``)
        keeps :meth:`query`'s contract: the semantic cache is not
        consulted and no plan signals are gathered - every unique key
        executes the forced route (duplicates still share that one
        execution; dedup is the batch semantic, not a cache) - but
        fresh answers are still stored for subsequent planned queries
        (again unless the forced structure is marked stale).
        """
        forced = self.planner.config.forced_route
        keys = [
            canonical_cache_key(self.dataset.schema, pref, self.template)
            for pref in preferences
        ]
        groups: Dict[Hashable, List[int]] = {}
        for pos, key in enumerate(keys):
            groups.setdefault(key, []).append(pos)

        results: List[Optional[ServeResult]] = [None] * len(keys)
        pending: List[Tuple[Hashable, Optional[Preference]]] = []
        with self._rw.read():
            lookup_version = self._data_version()
            for key, positions in groups.items():
                pref = preferences[positions[0]]
                if not use_cache:
                    self.cache.record_bypass()
                    pending.append((key, pref))
                    continue
                if forced is not None:
                    # A forced route must actually execute; serving a
                    # cached answer would mask the structure under test.
                    pending.append((key, pref))
                    continue
                started = time.perf_counter()
                hit = self.cache.lookup(key)
                if hit is None:
                    pending.append((key, pref))
                    continue
                self._record("cache")
                results[positions[0]] = ServeResult(
                    ids=hit,
                    route="cache",
                    reason="semantic cache hit (batched lookup pass)",
                    cached=True,
                    seconds=time.perf_counter() - started,
                    key=key,
                    version=lookup_version,
                )

            plans: Dict[Hashable, Plan] = {}
            route_groups: Dict[
                str, List[Tuple[Hashable, Optional[Preference]]]
            ] = {}
            for key, pref in pending:
                plan = (
                    Plan(forced, "forced by configuration", None)
                    if forced is not None
                    else self.planner.plan(self._signals(pref))
                )
                plans[key] = plan
                route_groups.setdefault(plan.route, []).append((key, pref))

            # Execution stays inside the same read section as planning:
            # a writer slipping in between would leave a plan made
            # against fresh structures executing against stale ones,
            # and the answer would carry the *new* data version - a
            # poisoned cache entry the stale-store fence cannot catch.
            version = self._data_version()
            cache_version = self.cache.version
            storable = forced is None or not self._route_is_stale(forced)
            for route in [r for r in ROUTES if r in route_groups]:
                for key, pref in route_groups[route]:
                    started = time.perf_counter()
                    ids = self._execute(route, pref)
                    seconds = time.perf_counter() - started
                    if use_cache and storable:
                        self.cache.store(key, ids, version=cache_version)
                    self._record(route)
                    results[groups[key][0]] = ServeResult(
                        ids=ids,
                        route=route,
                        reason=plans[key].reason,
                        cached=False,
                        seconds=seconds,
                        key=key,
                        version=version,
                    )

        for key, positions in groups.items():
            primary = results[positions[0]]
            assert primary is not None  # every unique key was answered
            for pos in positions[1:]:
                self._record("batch")
                results[pos] = ServeResult(
                    ids=primary.ids,
                    route="batch",
                    reason=f"deduplicated within batch "
                    f"(shares a {primary.route!r} execution)",
                    cached=True,
                    seconds=0.0,
                    key=key,
                    version=primary.version,
                )
        return list(results)  # type: ignore[arg-type]

    def submit_batch(
        self,
        preferences: Sequence[Optional[Preference]],
        *,
        use_cache: bool = True,
    ) -> BatchReport:
        """Evaluate a batch and report the dedup/cache accounting.

        Thin wrapper over :meth:`evaluate_batch` that times the whole
        batch and summarises how much work the batch path shared; the
        driver's batched replay mode and the benchmarks consume this.
        """
        started = time.perf_counter()
        results = self.evaluate_batch(preferences, use_cache=use_cache)
        seconds = time.perf_counter() - started
        unique = len({result.key for result in results})
        hits = sum(1 for result in results if result.route == "cache")
        return BatchReport(
            results=tuple(results),
            unique_queries=unique,
            duplicate_queries=len(results) - unique,
            cache_hits=hits,
            seconds=seconds,
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert_rows(self, rows: Sequence[Sequence[object]]) -> UpdateReport:
        """Insert rows; maintain every structure and the cache incrementally.

        Under the exclusive write lock the batch is appended to the
        dynamic dataset (validated all-or-nothing) and absorbed by
        Adaptive SFS and the skyline maintainers, and the semantic
        cache is *patched in place* - an insert's effect on any cached
        skyline is exact and local (the new point joins unless
        dominated and evicts exactly what it dominates), so no entry is
        dropped.  Refinement short-circuits both steps: a row outside
        the base skyline ``SKY(R0)`` cannot enter the template skyline,
        and a row outside the template skyline cannot touch any cached
        answer (every cache key refines the template), so the template
        maintainer sees only base entrants and the cache patcher only
        template entrants.  The IPO-tree is refreshed
        eagerly while the workload stays below the churn gate
        (``PlannerConfig.incremental_update_ratio``) and left stale
        above it; the MDC filter goes stale whenever the base or
        template skyline changed (rebuild via :meth:`refresh_structures`
        or :meth:`compact`).

        Durability ordering is write-ahead: the batch is validated
        (all-or-nothing, no state touched), *logged*, then applied - so
        a failed log (:class:`StorageUnavailable`, degraded read-only
        mode) leaves nothing applied and the same batch can simply be
        retried once the store heals.
        """
        started = time.perf_counter()
        batch = [tuple(row) for row in rows]
        if not batch:
            return self._empty_report("insert", started)
        with self._rw.write():
            self._check_storage_writable_locked()
            dyn = self._ensure_dynamic()
            new_raw, new_canon = dyn.encode_rows(batch)
            self._log_mutation_locked({
                "op": "insert",
                "version": dyn.version + 1,
                "rows": [list(row) for row in batch],
            })
            ids = dyn.append_encoded(new_raw, new_canon)
            if self.adaptive is not None:
                for point_id in ids:
                    self.adaptive.insert(dyn.row(point_id))
            base = self._base_maintainer.insert(ids)
            effect = self._maintainer.insert(base.entered)
            report = self._absorb(
                "insert", ids, effect, base.changed, started
            )
            self._maybe_checkpoint_locked()
        return report

    def delete_rows(self, point_ids: Sequence[int]) -> UpdateReport:
        """Delete rows; maintain every structure and the cache incrementally.

        Rows are tombstoned (ids stay stable until :meth:`compact`).
        The skyline maintainers recompute only each removed point's
        exclusive dominance region; semantic-cache entries are dropped
        *only* when their cached skyline actually contained a deleted
        row - a deleted non-member cannot change that entry's answer,
        so everything else is retained as-is.  A row outside the
        template skyline is in no cached answer, so the cache is
        scanned only when a template-skyline member was deleted.
        """
        started = time.perf_counter()
        ids = [int(p) for p in point_ids]
        if not ids:
            return self._empty_report("delete", started)
        with self._rw.write():
            self._check_storage_writable_locked()
            dyn = self._ensure_dynamic()
            dyn.ensure_deletable(ids)
            self._log_mutation_locked({
                "op": "delete",
                "version": dyn.version + 1,
                "ids": list(ids),
            })
            dyn.delete(ids)
            if self.adaptive is not None:
                for point_id in ids:
                    self.adaptive.delete(point_id)
            effect = self._maintainer.delete(ids)
            base_changed = self._base_maintainer.delete(ids).changed
            report = self._absorb(
                "delete", ids, effect, base_changed, started
            )
            self._maybe_checkpoint_locked()
        return report

    def refresh_structures(self) -> None:
        """Bring any stale index structure back in sync (exclusive).

        The churn gate leaves the IPO-tree stale and any
        skyline-affecting mutation leaves the MDC filter stale; this
        re-aligns both so the planner may route to them again.  Called
        by operators at churn lulls and by :meth:`compact`.
        """
        with self._rw.write():
            self._refresh_structures_locked()

    def compact(self) -> Dict[int, int]:
        """Compact tombstones away and rebuild id-bearing state.

        Returns the ``{old id: new id}`` remap.  Compaction reassigns
        every point id, so the semantic cache is cleared and the
        structures are rebuilt over the compacted data - this is the
        *periodic* cost that keeps delete tombstones from accumulating;
        steady-state churn is absorbed incrementally.  A no-op for a
        service that was never mutated.
        """
        with self._rw.write():
            self._check_storage_writable_locked()
            if self._dynamic is None:
                return {}
            dyn = self._dynamic
            if dyn.deleted_fraction == 0.0:
                # No tombstones: the id space is unchanged, so the
                # warm cache stays valid; still honour the re-alignment
                # contract (refresh stale structures, reset the gate).
                self._refresh_structures_locked()
                return dyn.compact()  # identity remap, no version bump
            self._log_mutation_locked({
                "op": "compact",
                "version": dyn.version + 1,
            })
            remap = dyn.compact()
            backend = self.backend
            self._maintainer = IncrementalSkyline(
                dyn, None, template=self.template, backend=backend
            )
            self._base_maintainer = IncrementalSkyline(
                dyn, None, backend=backend
            )
            snapshot = dyn.snapshot()
            if self.adaptive is not None:
                self.adaptive = AdaptiveSFS(
                    snapshot, self.template, backend=backend
                )
            if self.tree is not None:
                self.tree = IPOTree.build(
                    snapshot,
                    self.template,
                    values_per_attribute=self._ipo_k,
                    backend=backend,
                )
                self._tree_stale = False
            if self.mdc is not None:
                self.mdc = MDCFilter(snapshot, self.template, backend=backend)
                self._mdc_stale = False
            self._template_skyline_size = len(self._maintainer)
            self.cache.revise(lambda key, ids: None)  # ids were remapped
            self._reset_gate()
            self._maybe_checkpoint_locked()
            return remap

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        storage_dir,
        *,
        backend=None,
        planner_config: Optional[PlannerConfig] = None,
        cache_capacity: int = 256,
        with_mdc: Optional[bool] = None,
        with_adaptive: Optional[bool] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_wal_bytes: Optional[int] = None,
        mmap: object = None,
    ) -> "SkylineService":
        """Rebuild a service from a storage directory after a crash.

        Loads the newest snapshot, restores the dataset **without
        re-encoding any row** - and, when the snapshot has a ``.npy``
        sidecar and the mmap tier allows (``mmap=`` /
        ``REPRO_MMAP=auto|off|require``), without *decoding* any row
        either: the canonical matrix is mapped read-only and borrowed,
        so cold start is O(WAL tail) and the matrix bytes are shared
        with every other process mapping the same snapshot.  The
        borrowed file handle is released by :meth:`close`.  It then
        re-attaches the maintained template and
        base skylines from their persisted id lists, deserialises the
        IPO-tree (:mod:`repro.ipo.serialize`), and replays the
        committed WAL tail through the normal mutation path - so the
        recovered service answers at the exact pre-crash data version
        with structures identical to the ones the crash destroyed (the
        kill-and-recover differential test in ``tests/test_storage.py``
        pins this against a from-scratch rebuild).

        The template and ``ipo_k`` are part of the durable state; the
        purely operational knobs (backend, cache capacity,
        checkpoint policy) are re-supplied per deployment.
        ``with_mdc`` / ``with_adaptive`` default to what the persisted
        service had.  Logging resumes onto the recovered WAL, so a
        recovered service is immediately durable again.
        """
        store = DurableStore(
            storage_dir,
            CheckpointPolicy(checkpoint_every, checkpoint_wal_bytes),
        )
        recovered = store.recover(mmap=mmap)
        return cls.from_snapshot(
            recovered.snapshot,
            tail=recovered.tail,
            store=store,
            backend=backend,
            planner_config=planner_config,
            cache_capacity=cache_capacity,
            with_mdc=with_mdc,
            with_adaptive=with_adaptive,
        )

    @classmethod
    def from_snapshot(
        cls,
        document: dict,
        *,
        tail: Sequence[dict] = (),
        store: Optional[DurableStore] = None,
        backend=None,
        planner_config: Optional[PlannerConfig] = None,
        cache_capacity: int = 256,
        with_mdc: Optional[bool] = None,
        with_adaptive: Optional[bool] = None,
    ) -> "SkylineService":
        """Rebuild a service from one snapshot document (+ WAL tail).

        The store-agnostic half of :meth:`recover`, also usable with
        ``store=None``: a replication follower rebuilds its replica
        from the snapshot document the primary ships
        (:meth:`replication_snapshot`) and then applies streamed WAL
        records through the normal mutation path - without a local
        store, mutations apply but are not logged (the primary already
        made them durable).  With a ``store``, logging resumes onto its
        active WAL exactly as after :meth:`recover`.
        """
        dyn = restore_dataset(document["data"])
        # The service-facing dataset covers the *full slot space* so
        # slot positions coincide with dynamic ids; in mutable mode all
        # query paths select live ids through the dynamic dataset, so
        # tombstoned slots are never served.  The dataset *shares* the
        # restored storage - for an mmap'd snapshot that means zero
        # rows are copied or decoded here.
        base = dyn.base_dataset()
        template = preference_from_dict(document.get("template", {}))
        restore = _RestoreState(
            store=store,
            dynamic=dyn,
            template_skyline=_as_id_tuple(document.get("template_skyline")),
            base_skyline=_as_id_tuple(document.get("base_skyline")),
            tree=document.get("tree"),
            tree_stale=bool(document.get("tree_stale")),
            tail=tuple(tail),
            snapshot_version=int(document["data"]["data_version"]),
        )
        return cls(
            base,
            template,
            backend=backend,
            planner_config=planner_config,
            cache_capacity=cache_capacity,
            with_tree=False,  # restored from the snapshot document
            ipo_k=document.get("ipo_k"),
            with_mdc=(
                bool(document.get("with_mdc", True))
                if with_mdc is None
                else with_mdc
            ),
            with_adaptive=(
                bool(document.get("with_adaptive", True))
                if with_adaptive is None
                else with_adaptive
            ),
            _restore=restore,
        )

    def checkpoint(self):
        """Fold the WAL into a fresh snapshot now (exclusive); its path.

        Also available through the automatic policy
        (``checkpoint_every`` / ``checkpoint_wal_bytes``) and on the
        CLI (``python -m repro.serve --storage-dir DIR --checkpoint``).

        A successful checkpoint is also the repair path out of degraded
        read-only mode: the fresh snapshot + rotated WAL re-sync the
        durable state, so the health machine returns to ``healthy`` and
        mutations are accepted again.  A failed checkpoint raises
        :class:`StorageError`, counts as a checkpoint failure, and
        leaves the health state unchanged.
        """
        if self.storage is None:
            raise StorageError(
                "checkpoint() requires a service constructed with "
                "storage_dir=... (or recovered from one)"
            )
        with self._rw.write():
            try:
                path = self.storage.checkpoint(
                    self._durable_state(), self._data_version()
                )
            except StorageError:
                with self._lock:
                    self._checkpoint_failures += 1
                raise
            self._mark_healthy_locked()
            return path

    def close(self) -> None:
        """Release the durable store's file handles (idempotent).

        Mutation durability does not depend on this - every WAL append
        is fsync'd before its batch applies - but long-lived processes
        that construct many services (tests, benchmarks, the follower's
        re-sync loop) must not lean on ``__del__`` for descriptor
        hygiene.  Also releases the borrowed mmap store of a recovered
        service (the whole object graph reading it is retired with the
        service, so queries against a closed mmap-recovered service are
        no longer supported).  A closed owned-storage service keeps
        answering queries; mutations on a stored service raise
        :class:`StorageError` until the store is reattached via
        :meth:`recover`.
        """
        if self.storage is not None:
            self.storage.close()
        if self._borrowed_store is not None:
            self._borrowed_store.close()

    def __enter__(self) -> "SkylineService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # replication source (primary side of WAL shipping)
    # ------------------------------------------------------------------
    def replication_snapshot(self) -> dict:
        """The bootstrap payload a (re-)syncing follower fetches.

        ``document`` is the newest on-disk snapshot (it may lag the
        in-memory state - the WAL stream covers the difference),
        ``version`` its data version (= the stream's base address),
        ``primary_version`` the version served right now.
        """
        if self.storage is None:
            raise StorageError(
                "replication requires a service constructed with "
                "storage_dir=... (or recovered from one) - a "
                "storage-less service has no stream to ship"
            )
        document, version = self.storage.newest_snapshot_document()
        return {
            "version": version,
            "document": document,
            "primary_version": self.version,
        }

    def replication_status(self) -> dict:
        """Primary-side stream status, cheap enough to poll.

        Reads only the newest snapshot's *header*
        (:meth:`~repro.storage.store.DurableStore.newest_snapshot_header`)
        - schema counters, never the payload - so reporting cost does
        not scale with dataset size.  ``checkpoint_lag`` is how many
        versions a freshly syncing follower would have to replay from
        the WAL stream on top of the shipped snapshot.
        """
        if self.storage is None:
            return {"stream": False, "primary_version": self.version}
        try:
            header, base_version = self.storage.newest_snapshot_header()
        except StorageError as exc:
            return {
                "stream": False,
                "primary_version": self.version,
                "error": str(exc),
            }
        data = header.get("data", {})
        return {
            "stream": True,
            "base_version": base_version,
            "primary_version": self.version,
            "checkpoint_lag": max(0, self.version - base_version),
            "snapshot_slots": data.get("slots"),
            "snapshot_dead": data.get("dead"),
        }

    def replication_window(
        self, base_version: int, offset: int, max_bytes: int
    ) -> dict:
        """One offset-addressed window of the WAL stream, JSON-shaped.

        ``{"gone": True, ...}`` means ``base_version`` is no longer the
        active generation (a checkpoint folded it away) and the
        follower must re-sync from :meth:`replication_snapshot`.
        Otherwise ``frames`` carries whole CRC-prefixed WAL lines (as
        ASCII strings) starting at ``offset``, with ``next_offset`` /
        ``end_of_log`` as in
        :meth:`~repro.storage.wal.WriteAheadLog.read_window`.  Fault
        site ``replication.stream``: ``torn`` truncates the last frame
        in flight (the follower must refuse it and re-fetch), ``gone``
        fakes a rotation (forcing a re-sync), ``slow`` delays the read.
        """
        if self.storage is None:
            raise StorageError(
                "replication requires a service constructed with "
                "storage_dir=... (or recovered from one) - a "
                "storage-less service has no stream to ship"
            )
        fault = faults.draw("replication.stream")
        if fault is not None and fault.kind == "slow":
            time.sleep(fault.delay)
        if fault is not None and fault.kind == "gone":
            return {"gone": True, "primary_version": self.version}
        window = self.storage.wal_window(base_version, offset, max_bytes)
        if window is None:
            return {"gone": True, "primary_version": self.version}
        frames = [frame.decode("ascii") for frame in window.frames]
        if fault is not None and fault.kind == "torn" and frames:
            # Cut the final frame mid-record, as a failing link would.
            frames[-1] = frames[-1][: max(1, len(frames[-1]) // 2)]
        return {
            "gone": False,
            "base": base_version,
            "offset": offset,
            "next_offset": window.next_offset,
            "end_of_log": window.end_of_log,
            "frames": frames,
            "primary_version": self.version,
        }

    def _durable_state(self) -> dict:
        """The snapshot document for the current state (lock held).

        Everything recovery needs rides in one document: the dataset's
        full slot state *with canonical encodings*, the template, the
        maintained skyline id lists, the serialized IPO-tree and the
        staleness flags.  Callers must hold the write lock (or be the
        single-threaded constructor).
        """
        dyn = self._dynamic
        if dyn is None:
            # Pre-mutation: serialise through the one authoritative
            # shape (version 0, no tombstones, no maintainers yet).
            data = dataset_state(DynamicDataset.from_dataset(self.dataset))
            maintained = base_sky = None
        else:
            data = dataset_state(dyn)
            maintained = list(self._maintainer.ids)
            base_sky = list(self._base_maintainer.ids)
        return {
            "data": data,
            "template": preference_to_dict(self.template),
            "ipo_k": self._ipo_k,
            "template_skyline": maintained,
            "base_skyline": base_sky,
            "tree": tree_to_dict(self.tree) if self.tree is not None else None,
            "tree_stale": self._tree_stale,
            # No mdc_stale field: recovery always rebuilds the MDC
            # filter fresh from the maintained skylines, so persisted
            # staleness would be dead payload.
            "with_adaptive": self.adaptive is not None,
            "with_mdc": self.mdc is not None,
        }

    def _install_recovered(
        self, restore: _RestoreState, *, with_mdc: bool, with_adaptive: bool
    ) -> None:
        """Constructor tail for the recovery path (single-threaded).

        The service enters mutable mode directly: the restored dynamic
        dataset carries the snapshot's version/tombstones/compaction
        epoch, the maintainers re-attach from their persisted id lists
        (skipping the O(n) initial computation), Adaptive SFS is built
        over the full slot space and then absorbs the tombstones
        incrementally, the MDC filter is rebuilt fresh over the live
        rows, and the IPO-tree is deserialised rather than rebuilt.
        """
        dyn = restore.dynamic
        self._dynamic = dyn
        self._maintainer = IncrementalSkyline(
            dyn,
            None,
            template=self.template,
            backend=self.backend,
            members=restore.template_skyline,
        )
        self._base_maintainer = IncrementalSkyline(
            dyn, None, backend=self.backend, members=restore.base_skyline
        )
        self.adaptive = None
        if with_adaptive:
            if restore.template_skyline is not None:
                self.adaptive = AdaptiveSFS.restore(
                    self.dataset,
                    self.template,
                    skyline_ids=restore.template_skyline,
                    alive=dyn.alive_flags,
                    backend=self.backend,
                )
            else:
                # Pre-mutation snapshot: no maintained ids were
                # persisted (and no tombstones exist), build normally.
                self.adaptive = AdaptiveSFS(
                    self.dataset, self.template, backend=self.backend
                )
        # Rebuilt from the *live* rows and the maintained skylines, so
        # it is fresh by construction even when the crashed service had
        # let it go stale.
        self.mdc = (
            MDCFilter(
                dyn,
                self.template,
                backend=self.backend,
                skyline_ids=self._maintainer.ids,
                base_skyline_ids=self._base_maintainer.ids,
            )
            if with_mdc
            else None
        )
        self._mdc_stale = False
        self.tree = None
        if restore.tree is not None:
            self.tree = tree_from_dict(self.dataset, restore.tree)
            # Prime the refresh diff baseline from the maintained base
            # skyline - otherwise the first refresh pays a full
            # base-data scan to reconstruct one.
            self.tree.prime_refresh_baseline(
                dyn,
                base_skyline_ids=self._base_maintainer.ids,
                backend=self.backend,
            )
            if restore.tree_stale:
                # The checkpointed tree *content* lags the snapshot
                # data, and the true baseline it would need for an
                # incremental diff died with the crashed process - a
                # baseline recomputed from the current data would
                # compare old-vs-new as equal for members whose
                # conditions changed, hiding flips.  Rework every old
                # and new member instead (an all-dirty refresh rewrites
                # each entry from the freshly computed conditions -
                # equivalent to a rebuild of the per-node sets), which
                # also brings the tree back into service immediately.
                self.tree.refresh(
                    set(self.tree.skyline_ids) | set(self._maintainer.ids),
                    data=dyn,
                    skyline_ids=self._maintainer.ids,
                    base_skyline_ids=self._base_maintainer.ids,
                    backend=self.backend,
                )
            self._tree_stale = False
        self._template_skyline_size = len(self._maintainer)

    def _replay_tail(self, tail: Sequence[dict]) -> None:
        """Apply the committed WAL tail through the normal mutation path.

        Each record re-runs the same incremental maintenance it ran
        before the crash (maintainers, Adaptive SFS, tree refresh,
        cache revision over the still-empty cache) with WAL logging
        suppressed - the records are already durable; re-appending them
        would duplicate history.  Every record's version stamp is
        verified against the version the replay actually produced.
        """
        self._replaying = True
        try:
            for index, record in enumerate(tail):
                op = record.get("op")
                if op == "insert":
                    version = self.insert_rows(
                        [tuple(row) for row in record["rows"]]
                    ).version
                elif op == "delete":
                    version = self.delete_rows(
                        [int(point_id) for point_id in record["ids"]]
                    ).version
                elif op == "compact":
                    self.compact()
                    version = self.version
                else:
                    raise StorageError(
                        f"WAL record {index} has unknown op {op!r}"
                    )
                if version != record.get("version"):
                    raise StorageError(
                        f"WAL replay diverged at record {index}: produced "
                        f"data version {version}, log recorded "
                        f"{record.get('version')!r}"
                    )
        finally:
            self._replaying = False

    def _log_mutation_locked(self, record: dict) -> None:
        """Durably log one *not yet applied* batch (write lock held).

        Called **before** the mutation is applied (write-ahead
        ordering).  No-op without storage and during recovery replay.

        If the append fails the service enters **degraded read-only
        mode** instead of fail-stopping the process: nothing was
        applied, queries keep serving the last durable state, and the
        caller sees :class:`StorageUnavailable` (the HTTP layer maps it
        to ``503`` + ``Retry-After``).  A successful
        :meth:`checkpoint` rotates the WAL and re-arms writes; the
        rejected batch can then simply be retried.
        """
        if self.storage is None or self._replaying:
            return
        try:
            self.storage.log(record)
        except StorageError as exc:
            self._enter_degraded_locked()
            raise StorageUnavailable(
                "mutation was not applied: the write-ahead log append "
                "failed and the service is now in degraded read-only "
                "mode; queries keep serving - checkpoint() to repair "
                f"and retry ({exc})"
            ) from exc

    def _maybe_checkpoint_locked(self) -> None:
        """Auto-checkpoint after an applied batch when the policy is due.

        A *failed* automatic checkpoint is absorbed (counted, not
        raised): the batch that triggered it is already durable in the
        WAL, so the mutation succeeded either way and the policy simply
        retries at the next batch.
        """
        if self.storage is None or self._replaying:
            return
        if not self.storage.should_checkpoint():
            return
        try:
            self.storage.checkpoint(
                self._durable_state(), self._data_version()
            )
        except StorageError:
            with self._lock:
                self._checkpoint_failures += 1
        else:
            self._mark_healthy_locked()

    def _enter_degraded_locked(self) -> None:
        """Transition the health machine to degraded (write lock held)."""
        with self._lock:
            if self._health_state != "degraded":
                self._health_state = "degraded"
                self._degraded_transitions += 1

    def _mark_healthy_locked(self) -> None:
        """Re-arm writes after a successful checkpoint (write lock held)."""
        with self._lock:
            if self._health_state == "degraded":
                self._health_state = "healthy"
                self._recoveries += 1

    def _check_storage_writable_locked(self) -> None:
        """Refuse mutations while the service is degraded read-only.

        After a failed WAL append the log may carry a torn tail;
        appending further batches would bury garbage mid-log, so the
        store fail-stops and the service rejects mutations *before
        touching any state* (nothing was applied for the failed batch
        either - logging is write-ahead).  Queries are unaffected;
        :meth:`checkpoint` heals the store and re-arms writes.
        """
        if (
            self.storage is not None
            and not self._replaying
            and self.storage.failed
        ):
            self._enter_degraded_locked()
            raise StorageUnavailable(
                "mutations are disabled: the service is in degraded "
                "read-only mode after a write-ahead-log failure; "
                "queries keep serving - checkpoint() to repair and "
                "re-arm writes"
            )

    def data_snapshot(self) -> Dataset:
        """The currently served rows as an immutable :class:`Dataset`.

        Positions follow live-id order; before any mutation this is the
        construction dataset itself.
        """
        with self._rw.read():
            if self._dynamic is None:
                return self.dataset
            return self._dynamic.snapshot()

    @property
    def version(self) -> int:
        """Data version served right now (0 until the first mutation)."""
        with self._rw.read():
            return self._data_version()

    def _data_version(self) -> int:
        """Current data version; callers must hold the read or write lock."""
        return self._dynamic.version if self._dynamic is not None else 0

    def _empty_report(self, kind: str, started: float) -> UpdateReport:
        """An empty mutation batch: no version bump, no cache revision.

        Returning early keeps the data version and the cache version in
        lockstep (``DynamicDataset`` does not bump on empty batches, so
        revising the cache would desynchronise the two counters).
        """
        with self._rw.read():
            version = self._data_version()
        return UpdateReport(
            kind=kind,
            point_ids=(),
            version=version,
            skyline_entered=(),
            skyline_evicted=(),
            cache_retained=0,
            cache_patched=0,
            cache_invalidated=0,
            tree_refreshed=False,
            seconds=time.perf_counter() - started,
        )

    def _ensure_dynamic(self) -> DynamicDataset:
        """Enter mutable mode (idempotent); write lock must be held."""
        if self._dynamic is None:
            self._dynamic = DynamicDataset.from_dataset(self.dataset)
            self._maintainer = IncrementalSkyline(
                self._dynamic, None,
                template=self.template, backend=self.backend,
            )
            self._base_maintainer = IncrementalSkyline(
                self._dynamic, None, backend=self.backend
            )
        return self._dynamic

    def _absorb(
        self,
        kind: str,
        ids: List[int],
        effect: UpdateEffect,
        base_changed: bool,
        started: float,
    ) -> UpdateReport:
        """Post-mutation bookkeeping: structures, cache, report."""
        dyn = self._dynamic
        assert dyn is not None and self._maintainer is not None
        with self._lock:
            self._updates += len(ids)
            self._gate_updates += len(ids)
            self._decay_gate_locked()
        dirty = set(effect.dirty)
        self._template_skyline_size = len(self._maintainer)

        tree_refreshed = False
        if self.tree is not None and (
            dirty or base_changed or self._tree_stale
        ):
            # A batch with no skyline flip and an unchanged base
            # skyline provably cannot move any tree entry: candidate
            # dominators and member rows are both untouched - unless
            # the tree is already stale from earlier batches, in which
            # case a below-gate lull is exactly when to catch it up.
            if self._update_ratio() < self.planner.config.incremental_update_ratio:
                self.tree.refresh(
                    dirty,
                    data=dyn,
                    skyline_ids=self._maintainer.ids,
                    base_skyline_ids=self._base_maintainer.ids,
                    backend=self.backend,
                )
                self._tree_stale = False
                tree_refreshed = True
            else:
                self._tree_stale = True
        if base_changed or dirty:
            self._mdc_stale = True

        if kind == "insert":
            # Only template-skyline entrants can change a cached answer:
            # every other new row is template-dominated by a live row,
            # hence dominated under every cached (refining) key, and it
            # evicts nothing that row does not (transitivity).
            retained, patched, invalidated = self.cache.revise(
                self._insert_patcher(effect.entered)
            )
        else:
            # Every cached answer lies inside the template skyline (its
            # key refines the template), so only deleted template-skyline
            # members can sit in one; without any, no entry is scanned.
            deleted = frozenset(effect.evicted)
            retained, patched, invalidated = self.cache.revise(
                lambda key, cached: None
                if deleted and not deleted.isdisjoint(cached)
                else cached
            )
        return UpdateReport(
            kind=kind,
            point_ids=tuple(ids),
            version=dyn.version,
            skyline_entered=effect.entered,
            skyline_evicted=effect.evicted,
            cache_retained=retained,
            cache_patched=patched,
            cache_invalidated=invalidated,
            tree_refreshed=tree_refreshed,
            seconds=time.perf_counter() - started,
        )

    def _insert_patcher(self, new_ids: Sequence[int]):
        """Entry revision function applying an insert batch exactly.

        For any preference, the skyline of ``D + {p}`` is the old
        skyline minus the members ``p`` dominates, plus ``p`` unless a
        member dominates it (an evicted member's former victims stay
        dominated by transitivity) - so every cached entry can be
        patched without recomputation.  Rank tables are compiled at
        most once per distinct cached key over the *service lifetime*
        (the table is a pure function of the immutable key + schema),
        from the canonical key itself.  ``new_ids`` are the batch's
        template-skyline entrants; with none, every entry is retained.
        """
        if not new_ids:
            return lambda key, cached: cached
        dyn = self._dynamic
        assert dyn is not None
        rows = dyn.canonical_rows
        schema = self.dataset.schema
        tables = self._patch_tables

        def patch(key, cached):
            table = tables.get(key)
            if table is None:
                if len(tables) > max(64, 4 * self.cache.capacity):
                    tables.clear()  # bound the memo under key churn
                pref = Preference(
                    {name: ImplicitPreference(chain) for name, chain in key}
                )
                table = tables[key] = RankTable.compile(schema, pref)
            dominates = table.dominates
            members = list(cached)
            changed = False
            for point_id in new_ids:
                p = rows[point_id]
                if any(dominates(rows[m], p) for m in members):
                    continue
                members = [
                    m for m in members if not dominates(p, rows[m])
                ] + [point_id]
                changed = True
            return tuple(sorted(members)) if changed else cached

        return patch

    def _route_is_stale(self, route: str) -> bool:
        """Would ``route`` answer from a structure marked stale?

        The planner never picks a stale route, but *forced* routes
        execute it by design (the force exists to inspect exactly that
        structure) - their possibly-stale answer must then not be
        stored into the versioned cache, where it would pass the
        stale-store fence (it carries the current version) and poison
        subsequent planned queries.  Callers must hold the read lock.
        """
        if route == "ipo":
            return self._tree_stale
        if route == "mdc":
            return self._mdc_stale
        return False

    def _update_ratio(self) -> float:
        """Recent updates per recent query (the churn-gate signal).

        Computed over the decaying gate window, not the lifetime
        counters: a service that served a million queries before its
        first churn storm must see the ratio rise within
        :data:`GATE_WINDOW` events, and one that absorbed a large
        backfill must return to index routes once queries resume.
        :meth:`refresh_structures` and :meth:`compact` reset the window
        outright - after an explicit re-alignment the planner should
        route to the rebuilt structures immediately.

        With *no* queries in the window there is no latency to protect
        and eager refresh is cheap insurance, so the ratio reports 0.0
        - otherwise the very first update of a service's life (ratio
        ``1/max(1, 0)``) would trip the gate and leave the tree stale
        until an operator intervened.
        """
        with self._lock:
            queries = self._gate_queries
            updates = self._gate_updates
        if queries == 0:
            return 0.0
        return updates / queries

    def _reset_gate(self) -> None:
        """Clear the churn window after an explicit re-alignment."""
        with self._lock:
            self._gate_updates = 0
            self._gate_queries = 0

    def _refresh_structures_locked(self) -> None:
        if self._dynamic is None or self._maintainer is None:
            return
        if self._tree_stale and self.tree is not None:
            self.tree.refresh(
                (),
                data=self._dynamic,
                skyline_ids=self._maintainer.ids,
                base_skyline_ids=self._base_maintainer.ids,
                backend=self.backend,
            )
            self._tree_stale = False
        if self._mdc_stale and self.mdc is not None:
            self.mdc = MDCFilter(
                self._dynamic,
                self.template,
                backend=self.backend,
                skyline_ids=self._maintainer.ids,
                base_skyline_ids=self._base_maintainer.ids,
            )
            self._mdc_stale = False
        self._reset_gate()

    def _signals(self, preference: Optional[Preference]) -> PlanSignals:
        """Gather the cheap cost signals for one query."""
        pref = preference if preference is not None else Preference.empty()
        tree_ok = self.tree is not None and not self._tree_stale
        return PlanSignals(
            dataset_rows=(
                len(self._dynamic)
                if self._dynamic is not None
                else len(self.dataset)
            ),
            preference_order=pref.order,
            tree_available=tree_ok,
            tree_covers_query=(
                chains_covered(self.tree, preference) if tree_ok else False
            ),
            adaptive_available=self.adaptive is not None,
            affected_members=(
                self.adaptive.affect_count(preference)
                if self.adaptive is not None
                else 0
            ),
            template_skyline_size=self._template_skyline_size,
            mdc_available=self.mdc is not None and not self._mdc_stale,
            backend_vectorized=self.backend.vectorized,
            dimensions=len(self.dataset.schema),
            bitset_available=self.bitset is not None,
            incremental_available=self._maintainer is not None,
            update_query_ratio=self._update_ratio(),
        )

    def _execute(
        self, route: str, preference: Optional[Preference]
    ) -> Tuple[int, ...]:
        """Run one route; every route returns the same sorted id tuple.

        In mutable mode the scan routes run over the dynamic dataset's
        live ids, and ``"incremental"`` scans only the maintained
        template skyline (exact for any template refinement by Theorem
        1).  The planner never routes to a stale structure; a *forced*
        stale route answers from the stale structure by design (the
        force exists to inspect exactly that structure) - call
        :meth:`refresh_structures` first when freshness matters.
        """
        if route == "incremental":
            if self._maintainer is None:
                raise ReproError(
                    "route 'incremental' requested but the service has "
                    "never been mutated (no skyline maintainer exists)"
                )
            table = RankTable.compile(
                self.dataset.schema, preference, self.template
            )
            dyn = self._dynamic
            return tuple(
                sorted(
                    sfs_skyline(
                        dyn.canonical_rows,
                        self._maintainer.ids,
                        table,
                        backend=self.backend,
                        store=(
                            dyn.columns if self.backend.vectorized else None
                        ),
                    )
                )
            )
        if route == "ipo":
            if self.tree is None:
                raise ReproError("route 'ipo' requested but no tree was built")
            return tuple(sorted(self.tree.query(preference)))
        if route == "adaptive":
            if self.adaptive is None:
                raise ReproError(
                    "route 'adaptive' requested but Adaptive SFS is disabled"
                )
            return tuple(self.adaptive.query(preference))
        if route == "mdc":
            if self.mdc is None:
                raise ReproError(
                    "route 'mdc' requested but the MDC filter is disabled"
                )
            return tuple(sorted(self.mdc.query(preference)))
        if route == "bitset":
            if self.bitset is None:
                raise ReproError(
                    "route 'bitset' requested but the vectorized bitset "
                    "backend is unavailable (NumPy missing)"
                )
            return self._scan(preference, self.bitset)
        if route == "kernel":
            return self._scan(preference, self.backend)
        raise ReproError(f"unknown route {route!r}")

    def _scan(self, preference: Optional[Preference], backend) -> Tuple[int, ...]:
        """Full base-data scan on ``backend``, in the live id space."""
        if self._dynamic is None:
            return skyline(
                self.dataset,
                preference,
                template=self.template,
                backend=backend,
            ).ids
        table = RankTable.compile(
            self.dataset.schema, preference, self.template
        )
        dyn = self._dynamic
        store = dyn.columns if backend.vectorized else None
        return tuple(
            sorted(
                sfs_skyline(
                    dyn.canonical_rows, dyn.ids, table,
                    backend=backend, store=store,
                )
            )
        )

    #: Churn-gate window size: once the recent update + query tallies
    #: exceed this, both are halved, so the ratio tracks the recent
    #: workload with exponentially fading memory of the past.
    GATE_WINDOW = 4096

    def _record(self, route: str) -> None:
        with self._lock:
            self._queries += 1
            self._gate_queries += 1
            self._decay_gate_locked()
            self._routes.record(route)

    def _decay_gate_locked(self) -> None:
        """Halve the gate window once full; caller holds ``_lock``."""
        if self._gate_updates + self._gate_queries > self.GATE_WINDOW:
            self._gate_updates //= 2
            self._gate_queries //= 2

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def template_skyline_size(self) -> int:
        """``|SKY(R~)|`` - the search space of every index route."""
        return self._template_skyline_size

    def available_routes(self) -> Tuple[str, ...]:
        """The executable routes given which structures were built."""
        routes = []
        if self._maintainer is not None:
            routes.append("incremental")
        if self.tree is not None:
            routes.append("ipo")
        if self.adaptive is not None:
            routes.append("adaptive")
        if self.mdc is not None:
            routes.append("mdc")
        if self.bitset is not None:
            routes.append("bitset")
        routes.append("kernel")
        return tuple(routes)

    @property
    def health(self) -> str:
        """Write-path health: ``"healthy"`` or ``"degraded"`` (read-only).

        Degraded means a WAL append failed and mutations are rejected
        with :class:`StorageUnavailable` while queries keep serving;
        a successful :meth:`checkpoint` restores ``"healthy"``.
        """
        with self._lock:
            return self._health_state

    def stats(self) -> ServiceStats:
        """Snapshot of query/route/cache/update counters (thread-safe)."""
        with self._lock:
            queries = self._queries
            routes = self._routes.snapshot()
            updates = self._updates
            health = self._health_state
            degraded_transitions = self._degraded_transitions
            recoveries = self._recoveries
            checkpoint_failures = self._checkpoint_failures
        return ServiceStats(
            queries=queries,
            route_counts=routes,
            cache=self.cache.stats(),
            updates=updates,
            health=health,
            degraded_transitions=degraded_transitions,
            recoveries=recoveries,
            checkpoint_failures=checkpoint_failures,
        )

    def _should_build_tree(
        self, with_tree: object, ipo_k: Optional[int], max_tree_nodes: int
    ) -> bool:
        if with_tree is True:
            return True
        if with_tree is False:
            return False
        if with_tree != "auto":
            raise ReproError(
                f"with_tree must be True, False or 'auto', got {with_tree!r}"
            )
        return self._estimated_tree_nodes(ipo_k) <= max_tree_nodes

    def _estimated_tree_nodes(self, ipo_k: Optional[int]) -> int:
        """Upper bound on the node count: ``prod(k_d + 1)`` per level.

        Each level of the IPO-tree fans out into one child per
        materialised value plus the phi child, so the full tree has at
        most ``prod (k_d + 1)`` leaves and fewer internal nodes than
        leaves times the depth; the product is the cheap O(m') signal
        the auto-build decision needs.
        """
        total = 1
        for dim in self.dataset.schema.nominal_indices:
            spec = self.dataset.schema[dim]
            cardinality = len(spec.domain)  # type: ignore[arg-type]
            k = cardinality if ipo_k is None else min(ipo_k, cardinality)
            total *= k + 1
        return total
