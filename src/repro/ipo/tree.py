"""IPO-tree construction and the public :class:`IPOTree` index.

Section 3 of the paper.  The tree materialises, per combination of
first-order preferences over the nominal dimensions, the set of
root-skyline points that combination disqualifies; queries of any order
are then answered via the merging property (Theorem 2) without touching
the base data.

Two construction engines are provided:

* ``"direct"`` - runs a skyline computation (over the root skyline
  ``S``, not the full dataset) per node.  Simple, used as ground truth.
* ``"mdc"`` - the paper's approach: compute the minimal disqualifying
  conditions of every root-skyline point once, then evaluate each node's
  ``A`` by containment tests only (Section 3.1, "Implementation").

``IPO Tree-k`` (the paper's *IPO Tree-10*) restricts each dimension's
children to the ``k`` most frequent values; queries touching other
values raise :class:`~repro.exceptions.UnsupportedQueryError` so that a
hybrid deployment can fall back to Adaptive SFS (Section 5.3).

Template semantics
------------------
The root stores ``SKY(R)`` for the template ``R``.  A node labelled
``v < *`` *overrides* the template's chain on its dimension (needed
because Theorem 2 decomposes a chain ``v1 < ... < vx < *`` into the
standalone first-order preferences ``vi < *``, which are not themselves
refinements of the template); unlabelled dimensions keep the template's
chain.  Answered queries must refine the template, so by Theorem 1
every result is a subset of ``S``; a node therefore only records which
members of ``S`` it disqualifies (cumulative ``A`` sets relative to
``S``), and :mod:`repro.ipo.query` evaluates queries in that
complement space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algorithms.sfs import sfs_skyline
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import ImplicitPreference, Preference
from repro.engine import resolve_backend
from repro.exceptions import PreferenceError, UnsupportedQueryError
from repro.ipo.node import IPONode
from repro.ipo.query import evaluate_bitmap, evaluate_sets, evaluate_survivors
from repro.mdc.mdc import (
    DisqualifyingCondition,
    compute_mdcs,
    template_positions,
)

#: Analytic storage model: bytes per stored point id (paper counts 4-byte
#: ids) and fixed per-node overhead (label + two pointers' worth).
_BYTES_PER_ID = 4
_BYTES_PER_NODE = 16


@dataclass(frozen=True)
class TreeStats:
    """Construction statistics reported by :meth:`IPOTree.build`."""

    engine: str
    payload: str
    node_count: int
    skyline_size: int
    build_seconds: float
    storage_bytes: int


@dataclass(frozen=True)
class RefreshStats:
    """What one :meth:`IPOTree.refresh` call changed and what it cost.

    ``entries_updated`` counts per-node membership flips - the work a
    full rebuild would redo for *every* (node, member) pair; the ratio
    against ``node_count * skyline_size`` is the refresh's saving.
    """

    skyline_size: int
    added: int
    removed: int
    dirty: int
    nodes_visited: int
    entries_updated: int
    seconds: float


class IPOTree:
    """The partial-materialisation index of Section 3.

    Build with :meth:`build`; query with :meth:`query`.

    Examples
    --------
    >>> from repro.core.attributes import Schema, numeric_min, numeric_max, nominal
    >>> from repro.core.dataset import Dataset
    >>> from repro.core.preferences import Preference
    >>> schema = Schema([numeric_min("Price"), numeric_max("Class"),
    ...                  nominal("Group", ["T", "H", "M"]),
    ...                  nominal("Airline", ["G", "R", "W"])])
    >>> data = Dataset(schema, [
    ...     (1600, 4, "T", "G"), (2400, 1, "T", "G"), (3000, 5, "H", "G"),
    ...     (3600, 4, "H", "R"), (2400, 2, "M", "R"), (3000, 3, "M", "W")])
    >>> tree = IPOTree.build(data)
    >>> sorted(tree.skyline_ids)          # S at the root (a, c, d, e, f)
    [0, 2, 3, 4, 5]
    >>> tree.query(Preference({"Group": "M < *", "Airline": "G < *"}))
    [0, 2, 4, 5]
    """

    name = "IPO Tree"

    def __init__(
        self,
        dataset: Dataset,
        template: Preference,
        nominal_dims: Tuple[int, ...],
        candidates: Tuple[Tuple[int, ...], ...],
        skyline_ids: Tuple[int, ...],
        root: IPONode,
        payload: str,
        stats: TreeStats,
    ) -> None:
        self.dataset = dataset
        self.template = template
        self.nominal_dims = nominal_dims
        self.candidates = candidates
        self.skyline_ids = skyline_ids
        self.root = root
        self.payload = payload
        self.stats = stats
        # Bitmap support structures (filled lazily for the set payload).
        self._positions: Dict[int, int] = {
            point_id: pos for pos, point_id in enumerate(skyline_ids)
        }
        self._value_masks: Optional[List[Dict[int, int]]] = None
        if payload == "bitmap":
            self._attach_masks()
        # Per-member MDCs retained for refresh(); filled by the "mdc"
        # construction engine, recomputed lazily on the first refresh of
        # a "direct"-built tree.
        self._refresh_mdcs: Optional[
            Dict[int, List[DisqualifyingCondition]]
        ] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: Dataset,
        template: Optional[Preference] = None,
        *,
        engine: str = "mdc",
        payload: str = "set",
        values_per_attribute: Union[None, int, Mapping[str, int]] = None,
        backend=None,
    ) -> "IPOTree":
        """Construct the IPO-tree for ``dataset`` under ``template``.

        Parameters
        ----------
        engine:
            ``"mdc"`` (paper's construction, default) or ``"direct"``.
        backend:
            Execution backend for the construction-time skyline runs
            and MDC computation (name, instance or ``None`` for the
            process default).
        payload:
            ``"set"`` stores each ``A`` as a frozenset of ids;
            ``"bitmap"`` additionally packs them into integer bit masks
            and answers queries with bitwise operations (the paper's
            "another efficient implementation").
        values_per_attribute:
            ``None`` for the full tree; an int ``k`` (or mapping
            ``attribute name -> k``) builds *IPO Tree-k* over the ``k``
            most frequent values per nominal attribute.  A mapping may
            also give an explicit list of values per attribute (e.g.
            from :func:`repro.datagen.queries.popular_values_from_history`).
            Template values are always kept so template refinements
            stay answerable.
        """
        if engine not in ("mdc", "direct"):
            raise PreferenceError(f"unknown construction engine {engine!r}")
        if payload not in ("set", "bitmap"):
            raise PreferenceError(f"unknown payload {payload!r}")
        template = template if template is not None else Preference.empty()
        template.validate_against(dataset.schema)

        started = time.perf_counter()
        schema = dataset.schema
        nominal_dims = schema.nominal_indices
        engine_backend = resolve_backend(backend)
        store = dataset.columns if engine_backend.vectorized else None

        template_table = RankTable.compile(schema, None, template)
        skyline_ids = tuple(
            sorted(
                sfs_skyline(
                    dataset.canonical_rows,
                    dataset.ids,
                    template_table,
                    backend=engine_backend,
                    store=store,
                )
            )
        )

        candidates = _candidate_values(dataset, template, values_per_attribute)

        if engine == "mdc":
            builder = _MDCBuilder(
                dataset, template, nominal_dims, skyline_ids,
                backend=engine_backend,
            )
        else:
            builder = _DirectBuilder(
                dataset, template, nominal_dims, skyline_ids,
                backend=engine_backend,
            )
        root = IPONode(None, frozenset())
        _grow(root, 0, {}, nominal_dims, candidates, builder)

        node_count = root.subtree_size()
        elapsed = time.perf_counter() - started
        storage = _storage_bytes(root, payload, len(skyline_ids))
        stats = TreeStats(
            engine=engine,
            payload=payload,
            node_count=node_count,
            skyline_size=len(skyline_ids),
            build_seconds=elapsed,
            storage_bytes=storage,
        )
        tree = cls(
            dataset,
            template,
            nominal_dims,
            candidates,
            skyline_ids,
            root,
            payload,
            stats,
        )
        if engine == "mdc":
            tree._refresh_mdcs = builder._mdcs
        return tree

    # ------------------------------------------------------------------
    # incremental refresh
    # ------------------------------------------------------------------
    def prime_refresh_baseline(
        self,
        data=None,
        *,
        base_skyline_ids: Optional[Iterable[int]] = None,
        backend=None,
    ) -> None:
        """Precompute the refresh diff baseline for a tree known in sync.

        :meth:`refresh` diffs each member's minimal disqualifying
        conditions against the baseline retained from the previous
        refresh (or from an MDC-engine build).  A *deserialized* tree
        (:func:`repro.ipo.serialize.tree_from_dict`) has no baseline,
        so its first refresh reconstructs one with a full
        base-skyline scan over ``self.dataset``.  A caller that knows
        the tree is currently **in sync** with ``data`` - the recovery
        path restoring a non-stale checkpoint - can prime the baseline
        here instead, passing the maintained base skyline as
        ``base_skyline_ids`` so the computation never scans the base
        data.  Priming a tree that is *not* in sync with ``data`` would
        make later refreshes miss flips - only do that when the very
        next refresh marks every old and new member dirty (which
        rewrites all entries from the new conditions, making the
        baseline's diff irrelevant; the recovery path restoring a
        stale checkpoint does exactly this).
        """
        engine = resolve_backend(backend)
        source = data if data is not None else self.dataset
        self._refresh_mdcs = compute_mdcs(
            source,
            self.skyline_ids,
            candidates=(
                list(base_skyline_ids)
                if base_skyline_ids is not None
                else None
            ),
            backend=engine,
        )

    def refresh(
        self,
        dirty_ids: Iterable[int] = (),
        *,
        data=None,
        skyline_ids: Optional[Iterable[int]] = None,
        base_skyline_ids: Optional[Iterable[int]] = None,
        backend=None,
    ) -> RefreshStats:
        """Re-align the tree with mutated data, reworking only dirty members.

        After rows were inserted into / deleted from the underlying
        data, the tree's root skyline ``S`` and the per-node
        disqualified sets may be stale.  A full rebuild re-enumerates
        every (node, member) pair - ``O(node_count * |S|)`` condition
        tests, the dominant cost of construction.  Refresh instead:

        1. recomputes ``S`` (or takes it from ``skyline_ids`` when an
           :class:`~repro.updates.incremental.IncrementalSkyline`
           maintainer already has it),
        2. recomputes the minimal disqualifying conditions in one
           vectorized pass and diffs them against the retained set -
           members whose conditions changed (a new base-skyline
           dominator appeared, or one vanished) join the **dirty set**
           alongside ``dirty_ids``, the members that entered and the
           members that left,
        3. walks the tree rewriting per-node membership **only for
           dirty members**; subtrees see no work at all for the
           (typically vast) clean majority, and a refresh with an empty
           dirty set skips the walk entirely.

        Parameters
        ----------
        dirty_ids:
            Member ids the caller already knows flipped (e.g. an
            update's :attr:`~repro.updates.incremental.UpdateEffect.dirty`
            set); ids outside the old and new skylines are ignored.
        data:
            The mutated data (anything exposing ``schema`` /
            ``canonical_rows`` / ``ids`` / ``columns``, e.g. a
            :class:`~repro.updates.dataset.DynamicDataset`).  Defaults
            to the tree's current dataset; the tree adopts it.
        skyline_ids:
            The already-maintained new template skyline; recomputed via
            the backend kernel when omitted.
        base_skyline_ids:
            The already-maintained base skyline ``SKY(R0)`` (candidate
            dominators for the MDC recompute).  When omitted,
            :func:`compute_mdcs` recomputes it with a full O(n) kernel
            scan - callers maintaining it incrementally (the serving
            layer's base maintainer) should pass it so a refresh costs
            O(|S| x |base|) condition work, never a base-data scan.
        backend:
            Execution backend for the recomputations (name, instance or
            ``None`` for the process default).
        """
        started = time.perf_counter()
        engine = resolve_backend(backend)
        source = data if data is not None else self.dataset
        rows = source.canonical_rows
        if skyline_ids is None:
            table = RankTable.compile(source.schema, None, self.template)
            store = source.columns if engine.vectorized else None
            new_s = tuple(
                sorted(
                    sfs_skyline(
                        rows, source.ids, table,
                        backend=engine, store=store,
                    )
                )
            )
        else:
            new_s = tuple(sorted(skyline_ids))
        old_set = frozenset(self.skyline_ids)
        new_set = frozenset(new_s)
        removed = old_set - new_set
        added = new_set - old_set

        old_mdcs = self._refresh_mdcs
        if old_mdcs is None:
            # "direct"-built tree: self.dataset is still the pre-mutation
            # data on the first refresh, so the retained baseline can be
            # reconstructed once here.
            old_mdcs = compute_mdcs(
                self.dataset, self.skyline_ids, backend=engine
            )
        new_mdcs = compute_mdcs(
            source,
            new_s,
            candidates=(
                list(base_skyline_ids)
                if base_skyline_ids is not None
                else None
            ),
            backend=engine,
        )

        dirty = (set(dirty_ids) | removed | added) & (old_set | new_set)
        for point_id in new_set & old_set:
            if set(new_mdcs[point_id]) != set(old_mdcs.get(point_id, ())):
                dirty.add(point_id)

        self.dataset = source
        self._refresh_mdcs = new_mdcs
        nodes_visited = entries_updated = 0
        if dirty:
            positions = template_positions(self.template, source.schema)
            addable = frozenset(dirty & new_set)
            nodes_visited, entries_updated = self._refresh_node(
                self.root, 0, {}, frozenset(dirty), addable,
                new_mdcs, positions, rows,
            )
        self.skyline_ids = new_s
        self._positions = {
            point_id: pos for pos, point_id in enumerate(new_s)
        }
        self._value_masks = None
        if self.payload == "bitmap":
            self._attach_masks()
        return RefreshStats(
            skyline_size=len(new_s),
            added=len(added),
            removed=len(removed),
            dirty=len(dirty),
            nodes_visited=nodes_visited,
            entries_updated=entries_updated,
            seconds=time.perf_counter() - started,
        )

    def _refresh_node(
        self,
        node: IPONode,
        depth: int,
        labels: Dict[int, int],
        dirty: frozenset,
        addable: frozenset,
        mdcs: Dict[int, List[DisqualifyingCondition]],
        positions: Dict[int, Dict[int, int]],
        rows,
    ) -> Tuple[int, int]:
        """Rewrite dirty members' membership in this subtree's ``A`` sets."""
        re_add = set()
        for point_id in addable:
            loser = rows[point_id]
            if any(
                cond.satisfied_by(labels, positions, loser)
                for cond in mdcs[point_id]
            ):
                re_add.add(point_id)
        updated = frozenset((node.disqualified - dirty) | re_add)
        entries = len(node.disqualified ^ updated)
        if entries:
            node.disqualified = updated
        visited = 1
        if depth < len(self.nominal_dims):
            dim = self.nominal_dims[depth]
            for vid, child in node.children.items():
                labels[dim] = vid
                child_stats = self._refresh_node(
                    child, depth + 1, labels, dirty, addable,
                    mdcs, positions, rows,
                )
                del labels[dim]
                visited += child_stats[0]
                entries += child_stats[1]
            if node.phi_child is not None:
                child_stats = self._refresh_node(
                    node.phi_child, depth + 1, labels, dirty, addable,
                    mdcs, positions, rows,
                )
                visited += child_stats[0]
                entries += child_stats[1]
        return visited, entries

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, preference: Optional[Preference] = None) -> List[int]:
        """Skyline ids for ``preference`` (Algorithm 1 + Theorem 2).

        The preference must refine the template; dimensions it leaves
        empty inherit the template's chain.  Raises
        :class:`UnsupportedQueryError` when the query names a value the
        tree has no node for (possible with IPO Tree-k).
        """
        chains = self._query_chains(preference)
        if self.payload == "bitmap":
            mask = evaluate_bitmap(self, chains)
            return [
                point_id
                for pos, point_id in enumerate(self.skyline_ids)
                if not (mask >> pos) & 1
            ]
        disqualified = evaluate_sets(self, chains)
        return [p for p in self.skyline_ids if p not in disqualified]

    def query_survivors(
        self, preference: Optional[Preference] = None
    ) -> List[int]:
        """Answer via the literal Algorithm 1/2 transcription.

        Same result as :meth:`query`; exists as the executable
        reference for the paper's printed pseudocode (survivor sets
        instead of accumulated disqualified sets).
        """
        chains = self._query_chains(preference)
        return sorted(evaluate_survivors(self, chains))

    def _query_chains(
        self, preference: Optional[Preference]
    ) -> Tuple[Tuple[int, ...], ...]:
        """Translate a preference into per-dimension value-id chains.

        Merges over the template (validating refinement) and checks that
        every chain value has a materialised node.
        """
        pref = preference if preference is not None else Preference.empty()
        merged = pref.merged_over(self.template)
        merged.validate_against(self.dataset.schema)
        chains: List[Tuple[int, ...]] = []
        for depth, dim in enumerate(self.nominal_dims):
            spec = self.dataset.schema[dim]
            chain = merged[spec.name]
            vids = tuple(
                spec.domain.index(value) for value in chain.choices  # type: ignore[union-attr]
            )
            available = set(self.candidates[depth])
            missing = [v for v in vids if v not in available]
            if missing:
                names = [spec.domain[v] for v in missing]  # type: ignore[index]
                raise UnsupportedQueryError(
                    f"IPO tree has no nodes for values {names!r} of "
                    f"attribute {spec.name!r} (built with restricted "
                    "values; route this query to Adaptive SFS)"
                )
            chains.append(vids)
        return tuple(chains)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Total number of tree nodes (the paper's ``O(c^m')`` figure)."""
        return self.stats.node_count

    def storage_bytes(self) -> int:
        """Analytic storage footprint of the materialised tree."""
        return self.stats.storage_bytes

    def value_masks(self) -> List[Dict[int, int]]:
        """Per-depth inverted bit masks: value id -> mask over S positions.

        Used by the bitmap evaluator to compute ``PSKY`` lookups with a
        single OR; built lazily.
        """
        if self._value_masks is None:
            rows = self.dataset.canonical_rows
            masks: List[Dict[int, int]] = []
            for dim in self.nominal_dims:
                per_value: Dict[int, int] = {}
                for pos, point_id in enumerate(self.skyline_ids):
                    vid = rows[point_id][dim]
                    per_value[vid] = per_value.get(vid, 0) | (1 << pos)
                masks.append(per_value)
            self._value_masks = masks
        return self._value_masks

    def _attach_masks(self) -> None:
        """Fill every node's ``mask`` from its frozenset payload."""
        positions = self._positions
        for node in self.root.walk():
            mask = 0
            for point_id in node.disqualified:
                mask |= 1 << positions[point_id]
            node.mask = mask


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
class _DirectBuilder:
    """Disqualified sets via a skyline run over ``S`` per node."""

    def __init__(
        self,
        dataset: Dataset,
        template: Preference,
        nominal_dims: Tuple[int, ...],
        skyline_ids: Tuple[int, ...],
        backend=None,
    ) -> None:
        self._dataset = dataset
        self._template = template
        self._skyline_ids = skyline_ids
        self._skyline_set = frozenset(skyline_ids)
        self._backend = resolve_backend(backend)
        self._store = (
            dataset.columns if self._backend.vectorized else None
        )

    def disqualified(self, labels: Mapping[int, int]) -> frozenset:
        schema = self._dataset.schema
        pref = self._template
        for dim, vid in labels.items():
            spec = schema[dim]
            pref = pref.with_dimension(
                spec.name, ImplicitPreference((spec.domain[vid],))  # type: ignore[index]
            )
        table = RankTable.compile(schema, pref)
        surviving = sfs_skyline(
            self._dataset.canonical_rows,
            self._skyline_ids,
            table,
            backend=self._backend,
            store=self._store,
        )
        return frozenset(self._skyline_set - set(surviving))


class _MDCBuilder:
    """Disqualified sets via minimal disqualifying conditions (paper)."""

    def __init__(
        self,
        dataset: Dataset,
        template: Preference,
        nominal_dims: Tuple[int, ...],
        skyline_ids: Tuple[int, ...],
        backend=None,
    ) -> None:
        self._rows = dataset.canonical_rows
        self._skyline_ids = skyline_ids
        self._mdcs: Dict[int, List[DisqualifyingCondition]] = compute_mdcs(
            dataset, skyline_ids, backend=backend
        )
        self._template_positions = template_positions(template, dataset.schema)

    def disqualified(self, labels: Mapping[int, int]) -> frozenset:
        out = set()
        rows = self._rows
        positions = self._template_positions
        for point_id in self._skyline_ids:
            loser = rows[point_id]
            for condition in self._mdcs[point_id]:
                if condition.satisfied_by(labels, positions, loser):
                    out.add(point_id)
                    break
        return frozenset(out)


def _grow(
    node: IPONode,
    depth: int,
    labels: Dict[int, int],
    nominal_dims: Tuple[int, ...],
    candidates: Tuple[Tuple[int, ...], ...],
    builder,
) -> None:
    """Recursively create the children of ``node`` for dimension ``depth``."""
    if depth == len(nominal_dims):
        return
    dim = nominal_dims[depth]
    for vid in candidates[depth]:
        labels[dim] = vid
        child = IPONode((dim, vid), builder.disqualified(labels))
        node.children[vid] = child
        _grow(child, depth + 1, labels, nominal_dims, candidates, builder)
        del labels[dim]
    phi = IPONode(None, node.disqualified)
    node.phi_child = phi
    _grow(phi, depth + 1, labels, nominal_dims, candidates, builder)


def _candidate_values(
    dataset: Dataset,
    template: Preference,
    values_per_attribute: Union[None, int, Mapping[str, int]],
) -> Tuple[Tuple[int, ...], ...]:
    """Value ids materialised per nominal dimension (IPO Tree-k support)."""
    schema = dataset.schema
    out: List[Tuple[int, ...]] = []
    for dim in schema.nominal_indices:
        spec = schema[dim]
        domain = spec.domain
        if values_per_attribute is None:
            keep: Sequence[object] = domain  # type: ignore[assignment]
        else:
            if isinstance(values_per_attribute, int):
                wanted: object = values_per_attribute
            else:
                wanted = values_per_attribute.get(spec.name, len(domain))  # type: ignore[union-attr]
            if isinstance(wanted, int):
                if wanted <= 0:
                    raise PreferenceError(
                        f"values_per_attribute must be positive, got {wanted}"
                    )
                keep = dataset.most_frequent(spec.name, wanted)
            else:
                # Explicit value list (e.g. mined from a query history).
                keep = list(wanted)
                for value in keep:
                    if value not in domain:  # type: ignore[operator]
                        raise PreferenceError(
                            f"value {value!r} not in domain of {spec.name!r}"
                        )
            # Template values must stay materialised: every legal query
            # chain starts with them.
            for value in template[spec.name].choices:
                if value not in keep:
                    keep = list(keep) + [value]
        out.append(tuple(domain.index(v) for v in keep))  # type: ignore[union-attr]
    return tuple(out)


def _storage_bytes(root: IPONode, payload: str, skyline_size: int) -> int:
    """Analytic storage of the tree (see module constants)."""
    total = 0
    mask_bytes = (skyline_size + 7) // 8
    for node in root.walk():
        total += _BYTES_PER_NODE
        if payload == "bitmap":
            total += mask_bytes
        else:
            total += _BYTES_PER_ID * len(node.disqualified)
    return total
