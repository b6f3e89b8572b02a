"""Incremental skyline maintenance under inserts and deletes.

A skyline over a churning table can be kept current far cheaper than it
can be recomputed, because single-row updates have *local* effects:

* **insert** ``p``: if any current member dominates ``p``, the skyline
  is unchanged.  Otherwise ``p`` joins and evicts exactly the members
  it dominates.  Nothing outside the current skyline can change - a
  non-member was dominated by some member ``m``; if ``p`` evicted
  ``m``, then ``p`` dominates ``m`` dominates it (transitivity), so it
  stays out.
* **delete** of a non-member: no effect (it disqualified nothing).
* **delete** of a member ``p``: the only possible entrants are points
  of ``p``'s **exclusive dominance region** - live points dominated by
  ``p`` and by *no other* member.  Among those candidates, the new
  entrants are exactly their mutual minima: any live dominator of a
  candidate is either another candidate or ``p`` itself (a non-member
  dominator ``q`` is dominated by some member ``m``; ``m`` dominates
  the candidate too, so exclusivity forces ``m = p``, putting ``q`` in
  the region as well).

:class:`IncrementalSkyline` implements exactly that per compiled
preference (one maintainer per template the serving layer keeps hot),
absorbing a whole write batch per call.  The dominance sweeps run over
an incrementally grown :class:`RankMatrix` when NumPy is available
(appends write one row; nothing is ever re-encoded; one chunked
broadcast per sweep, whatever the batch size) and fall back to
tuple-at-a-time :meth:`~repro.core.dominance.RankTable.dominates`
otherwise; the entrant minima of a delete run through the configured
engine backend's skyline kernel on the candidate subset only.
Dominance semantics are the paper's: on nominal dimensions two distinct
*unlisted* values share the default rank but are **incomparable**,
which the key columns preserve under vectorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithms.sfs import sfs_skyline
from repro.core.dominance import RankTable
from repro.core.preferences import Preference
from repro.engine import resolve_backend
from repro.engine.columnar import numpy_available
from repro.exceptions import DatasetError
from repro.updates.dataset import DynamicDataset


@dataclass(frozen=True)
class UpdateEffect:
    """What one maintained update batch did to the skyline.

    ``point_ids`` are the rows the batch inserted or deleted;
    ``entered``/``evicted`` list the member ids that joined/left over
    the whole batch; together they are the *dirty set* downstream
    structures (the IPO-tree refresh, the semantic cache revision) key
    their own incremental work on.
    """

    kind: str
    point_ids: Tuple[int, ...]
    entered: Tuple[int, ...]
    evicted: Tuple[int, ...]

    @property
    def changed(self) -> bool:
        """True iff the skyline membership changed at all."""
        return bool(self.entered or self.evicted)

    @property
    def dirty(self) -> Tuple[int, ...]:
        """Ids whose membership flipped (entered + evicted)."""
        return self.entered + self.evicted


class IncrementalSkyline:
    """Maintain one preference's skyline over a :class:`DynamicDataset`.

    Examples
    --------
    >>> from repro.core.attributes import Schema, nominal, numeric_min
    >>> from repro.core.dataset import Dataset
    >>> schema = Schema([numeric_min("Price"), nominal("G", ["T", "H"])])
    >>> data = DynamicDataset.from_dataset(
    ...     Dataset(schema, [(10, "T"), (8, "H"), (12, "T")]))
    >>> sky = IncrementalSkyline(data)
    >>> sky.ids                       # (12, "T") dominated by (10, "T")
    (0, 1)
    >>> pid = data.append([(9, "T")])[0]
    >>> sky.insert([pid]).evicted     # (9, "T") evicts (10, "T")
    (0,)
    >>> sky.ids
    (1, 3)
    """

    def __init__(
        self,
        data: DynamicDataset,
        preference: Optional[Preference] = None,
        *,
        template: Optional[Preference] = None,
        backend=None,
        members: Optional[Iterable[int]] = None,
    ) -> None:
        self.data = data
        self.table = RankTable.compile(data.schema, preference, template)
        self.backend = resolve_backend(backend)
        self._matrix: Optional[RankMatrix] = (
            RankMatrix(self.table, data.schema) if numpy_available() else None
        )
        # ``members`` is the trusted-restore path: a caller re-attaching
        # a maintainer to state it previously exported (the durability
        # layer restoring a checkpoint) passes the persisted member ids
        # and skips the O(n) initial skyline computation.  The ids are
        # taken as-is; the kill-and-recover differential tests verify
        # they equal a fresh rebuild.
        self._members: Set[int] = (
            set(members)
            if members is not None
            else set(
                sfs_skyline(
                    data.canonical_rows, data.ids, self.table,
                    backend=self.backend,
                )
            )
        )
        self._membership_changed()
        self._compactions = data.compactions

    # -- introspection -----------------------------------------------------
    @property
    def ids(self) -> Tuple[int, ...]:
        """The maintained skyline ids, sorted ascending."""
        if self._ids_cache is None:
            self._ids_cache = tuple(sorted(self._members))
        return self._ids_cache

    def __contains__(self, point_id: object) -> bool:
        return point_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    # -- maintenance -------------------------------------------------------
    def insert(self, point_ids: Sequence[int]) -> UpdateEffect:
        """Absorb a batch of rows already appended to the dataset.

        One sweep per step, whatever the batch size: the batch rows no
        member dominates are the *survivors*; their mutual minima enter
        (a survivor dominated by a non-survivor would, by transitivity,
        be dominated by that row's member dominator) and evict exactly
        the members they dominate.  The result equals absorbing the rows
        one at a time.
        """
        self._check_not_compacted()
        ids = [int(p) for p in point_ids]
        for point_id in ids:
            if not self.data.is_live(point_id):
                raise DatasetError(
                    f"insert({point_id}): append the row to the dataset first"
                )
        if not ids:
            return UpdateEffect("insert", (), (), ())
        matrix = self._matrix
        if matrix is not None:
            matrix.sync(self.data.canonical_rows)
            members = self._member_index()
            flags = matrix.dominators_exist(ids, members)
            survivors = [p for p, hit in zip(ids, flags) if not hit]
            flags = matrix.dominators_exist(survivors, survivors)
            entered = [p for p, hit in zip(survivors, flags) if not hit]
            evicted = matrix.dominated_by(entered, members)
        else:
            dominates = self.table.dominates
            rows = self.data.canonical_rows
            member_rows = [(m, rows[m]) for m in self._members]
            survivors = [
                (p, rows[p]) for p in ids
                if not any(dominates(q, rows[p]) for _m, q in member_rows)
            ]
            entered = [
                p for p, row in survivors
                if not any(dominates(q, row) for _s, q in survivors)
            ]
            entered_rows = [rows[p] for p in entered]
            evicted = [
                m for m, row in member_rows
                if any(dominates(q, row) for q in entered_rows)
            ]
        if entered:
            self._members.difference_update(evicted)
            self._members.update(entered)
            self._membership_changed()
        return UpdateEffect(
            "insert", tuple(ids), tuple(sorted(entered)), tuple(sorted(evicted))
        )

    def delete(self, point_ids: Sequence[int]) -> UpdateEffect:
        """Absorb a batch of deletions already tombstoned in the dataset.

        Non-members are O(1).  For the removed members, only their
        exclusive dominance regions are recomputed: one vectorized sweep
        over the synced slots finds the live rows some removed member
        dominated, a second screens out those a surviving member still
        dominates, and the candidates' mutual minima - the entrants -
        run through the engine backend's skyline kernel on that subset
        alone.  A live dominator of a candidate is itself a candidate
        (its own dominating member must have been removed too, or it
        would dominate the candidate), so one pass covers the batch.
        """
        self._check_not_compacted()
        ids = [int(p) for p in point_ids]
        for point_id in ids:
            if self.data.is_live(point_id):
                raise DatasetError(
                    f"delete({point_id}): tombstone the row in the dataset first"
                )
        removed = [p for p in ids if p in self._members]
        if not removed:
            return UpdateEffect("delete", tuple(ids), (), ())
        self._members.difference_update(removed)
        self._membership_changed()
        # Surviving members cannot be shadowed (members are mutually
        # non-dominated), and removed rows are dead, so every live hit
        # of the shadow sweep is a non-member.
        alive = self.data.alive_flags
        matrix = self._matrix
        if matrix is not None:
            matrix.sync(self.data.canonical_rows)
            shadowed = [i for i in matrix.shadowed_by(removed) if alive[i]]
            flags = matrix.dominators_exist(shadowed, self._member_index())
            exclusive = [i for i, hit in zip(shadowed, flags) if not hit]
        else:
            dominates = self.table.dominates
            rows = self.data.canonical_rows
            removed_rows = [rows[p] for p in removed]
            member_rows = [rows[m] for m in self._members]
            exclusive = [
                i for i, row in enumerate(rows)
                if alive[i]
                and any(dominates(q, row) for q in removed_rows)
                and not any(dominates(q, row) for q in member_rows)
            ]
        entered = self._subset_skyline(exclusive)
        if entered:
            self._members.update(entered)
            self._membership_changed()
        return UpdateEffect(
            "delete", tuple(ids), tuple(sorted(entered)), tuple(sorted(removed))
        )

    def rebuild(self) -> Tuple[int, ...]:
        """Recompute from scratch and replace the members.

        Serves two roles: the verification oracle of the metamorphic
        tests, and the one legitimate way to re-attach a maintainer
        after :meth:`DynamicDataset.compact` reassigned the id space
        (the stale rank matrix is discarded alongside the members).
        """
        if self._matrix is not None:
            self._matrix = RankMatrix(self.table, self.data.schema)
        self._members = set(
            sfs_skyline(
                self.data.canonical_rows, self.data.ids, self.table,
                backend=self.backend,
            )
        )
        self._membership_changed()
        self._compactions = self.data.compactions
        return self.ids

    def _membership_changed(self) -> None:
        """Drop the views derived from the member set."""
        self._ids_cache: Optional[Tuple[int, ...]] = None
        self._index_cache = None

    def _member_index(self):
        """The members as an int64 index array, built once per membership.

        The base skyline holds thousands of members, so re-converting
        the set on every sweep would cost more than the sweep itself.
        """
        if self._index_cache is None:
            np = self._matrix.np
            self._index_cache = np.fromiter(
                self._members, dtype=np.int64, count=len(self._members)
            )
        return self._index_cache

    def _check_not_compacted(self) -> None:
        """Fail fast when the dataset was compacted under this maintainer.

        Compaction reassigns every id, invalidating both the member set
        and the cached rank rows; silently absorbing further updates
        would produce wrong skylines with no diagnostic.
        """
        if self.data.compactions != self._compactions:
            raise DatasetError(
                "the dataset was compacted since this maintainer last "
                "synced; call rebuild() to re-attach it"
            )

    def _subset_skyline(self, candidate_ids: List[int]) -> List[int]:
        """Engine-kernel skyline restricted to ``candidate_ids``.

        The candidates are re-packed into a dense sub-problem so the
        kernel's context covers exactly the subset (no O(n) prepare).
        """
        if len(candidate_ids) <= 1:
            return candidate_ids
        rows = self.data.canonical_rows
        packed = [rows[i] for i in candidate_ids]
        local = sfs_skyline(
            packed, range(len(packed)), self.table, backend=self.backend
        )
        return [candidate_ids[i] for i in local]


class RankMatrix:
    """Incrementally grown rank and key columns for one compiled table.

    The vectorized twin of :meth:`RankTable.dominates` for many-against-
    many sweeps.  Storage is column-major - one contiguous rank column
    per dimension and one key column per nominal dimension, indexed by
    slot id with amortised-doubling capacity - so a sweep over the slot
    range reads contiguous memory and a gathered block is contiguous
    too.  Each sweep is one dominators x targets broadcast built a
    dimension at a time, chunked so its temporaries stay below
    :attr:`SWEEP_CELLS` pairs.  Key ties on nominal dimensions block
    dominance both ways, preserving the unlisted-values-incomparable
    semantics.  Dead slots keep their rows, so callers that sweep every
    slot drop dead hits themselves.
    """

    #: Append blocks at least this long take the vectorized fill; the
    #: steady state (one row per absorbed update) stays on the cheap
    #: tuple path, while a maintainer (re-)attaching to a large dataset
    #: - recovery, first mutation of a big service - syncs in one pass.
    BULK_SYNC_THRESHOLD = 64
    #: Dominator x target pairs compared per broadcast chunk; bounds the
    #: boolean temporaries to a few hundred KiB.
    SWEEP_CELLS = 1 << 16

    def __init__(self, table: RankTable, schema) -> None:
        import numpy as np

        self.np = np
        self._table = table
        self._nominal = schema.nominal_indices
        self._size = 0
        self._ranks = np.empty((len(schema), 0), dtype=np.float64)
        self._keys = np.empty((len(self._nominal), 0), dtype=np.int32)

    def sync(self, rows: Sequence[tuple]) -> None:
        """Extend the columns to cover every row of ``rows``."""
        np = self.np
        total = len(rows)
        size = self._size
        if total <= size:
            return
        if total > self._ranks.shape[1]:
            capacity = max(total, 2 * self._ranks.shape[1], 64)
            self._ranks = _grown(np, self._ranks, size, capacity)
            self._keys = _grown(np, self._keys, size, capacity)
        if total - size >= self.BULK_SYNC_THRESHOLD:
            # Convert the tuple block once; rank_rows_matrix copies its
            # input (cheap from an ndarray) before remapping in place.
            # A borrowed (mmap-backed) row sequence hands over a matrix
            # slice directly, skipping tuple materialisation entirely.
            block = getattr(rows, "matrix_block", None)
            raw = block(size, total) if block is not None else None
            if raw is None:
                raw = np.asarray(rows[size:total], dtype=np.float64)
            self._ranks[:, size:total] = self._table.rank_rows_matrix(raw).T
            self._keys[:, size:total] = raw[:, self._nominal].T
        else:
            rank_vector = self._table.rank_vector
            for i in range(size, total):
                row = rows[i]
                self._ranks[:, i] = rank_vector(row)
                self._keys[:, i] = [row[dim] for dim in self._nominal]
        self._size = total

    def dominated_by(self, dominators, ids) -> List[int]:
        """The subset of ``ids`` some point of ``dominators`` dominates."""
        if len(ids) == 0 or len(dominators) == 0:
            return []
        idx = self.np.asarray(ids, dtype=self.np.int64)
        hit = self._any_dominates(self._block(dominators), self._block(idx))
        return idx[hit].tolist()

    def shadowed_by(self, dominators) -> List[int]:
        """Every synced slot some point of ``dominators`` dominates.

        Sweeps the contiguous slot range (no id list, no gather); dead
        slots are included, so callers drop dead hits.
        """
        if len(dominators) == 0:
            return []
        size = self._size
        slots = (self._ranks[:, :size], self._keys[:, :size])
        hit = self._any_dominates(self._block(dominators), slots)
        return self.np.flatnonzero(hit).tolist()

    def dominators_exist(self, targets, ids) -> List[bool]:
        """Per target: does any point of ``ids`` dominate it?"""
        if len(targets) == 0:
            return []
        if len(ids) == 0:
            return [False] * len(targets)
        return self._any_dominates(
            self._block(ids), self._block(targets)
        ).tolist()

    def _block(self, ids):
        """Gathered (rank columns, key columns) of ``ids``, contiguous."""
        idx = self.np.asarray(ids, dtype=self.np.int64)
        return self._ranks[:, idx], self._keys[:, idx]

    def _any_dominates(self, dominators, targets):
        """Boolean per target column: is it dominated by any dominator?

        Both arguments are ``(rank columns, key columns)`` blocks.  The
        targets are swept in chunks of ``SWEEP_CELLS // len(dominators)``;
        the larger side of each chunk is the inner, contiguous axis of
        the pair masks (broadcasting over a short inner axis is an order
        of magnitude slower).
        """
        np = self.np
        n_dom = dominators[0].shape[1]
        n_tgt = targets[0].shape[1]
        out = np.zeros(n_tgt, dtype=bool)
        step = max(1, self.SWEEP_CELLS // n_dom)
        for lo in range(0, n_tgt, step):
            chunk = (targets[0][:, lo:lo + step], targets[1][:, lo:lo + step])
            if chunk[0].shape[1] >= n_dom:
                pairs = self._dominance(dominators, chunk, True)
                out[lo:lo + step] = pairs.any(axis=0)
            else:
                pairs = self._dominance(chunk, dominators, False)
                out[lo:lo + step] = pairs.any(axis=1)
        return out

    def _dominance(self, outer, inner, outer_dominates: bool):
        """Pair mask over ``outer x inner``: does one dominate the other?

        ``mask[i, j]`` says outer ``i`` dominates inner ``j`` when
        ``outer_dominates``, else inner ``j`` dominates outer ``i``.
        """
        np = self.np
        (outer_r, outer_k), (inner_r, inner_k) = outer, inner
        shape = (outer_r.shape[1], inner_r.shape[1])
        not_worse = np.ones(shape, dtype=bool)
        better = np.zeros(shape, dtype=bool)
        for a, b in zip(outer_r, inner_r):
            a = a[:, None]
            if outer_dominates:
                not_worse &= a <= b
                better |= a < b
            else:
                not_worse &= a >= b
                better |= a > b
        mask = not_worse & better
        for n, dim in enumerate(self._nominal):
            # Equal rank, different value: two distinct unlisted
            # values, incomparable both ways.
            mask &= (outer_r[dim][:, None] != inner_r[dim]) | (
                outer_k[n][:, None] == inner_k[n]
            )
        return mask


def _grown(np, columns, used: int, capacity: int):
    """``columns`` reallocated to ``capacity`` slots, ``used`` copied."""
    out = np.empty((columns.shape[0], capacity), dtype=columns.dtype)
    out[:, :used] = columns[:, :used]
    return out
