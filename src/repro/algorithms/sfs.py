"""Sort-First Skyline (SFS) [Chomicki, Godfrey, Gryz, Liang, ICDE'03].

SFS presorts the input by a *monotone* preference function ``f`` - if
``p`` dominates ``q`` then ``f(p) < f(q)`` - and then streams the sorted
points through a skyline list ``L``:

* a point dominated by some point of ``L`` is discarded,
* otherwise it is appended to ``L``.

Because of the monotone sort, no later point can dominate an earlier
one, so (a) points in ``L`` are final the moment they are inserted -
the algorithm is **progressive** - and (b) no eviction pass is needed.

This module implements SFS generically over a
:class:`~repro.core.dominance.RankTable`, whose :meth:`score` is exactly
the paper's ``f(p) = sum_i r(p.Di)`` (Section 4.1/4.2) and is monotone
for any implicit preference.  Ties in ``f`` are left in input order;
tied points can never dominate each other (monotonicity is strict), so
any tie order is correct.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.core.dominance import RankTable
from repro.engine import resolve_backend


def sort_by_score(
    rows: Sequence[tuple],
    ids: Sequence[int],
    table: RankTable,
    backend=None,
    store=None,
) -> List[int]:
    """Ids sorted by ascending preference score ``f`` (the presort step).

    Scores are computed by the selected execution backend; summation
    order may differ between backends in the last ulp, which can swap
    near-tied ids - harmless, since tied or near-tied points never
    dominate each other (the score is strictly monotone).
    """
    engine = resolve_backend(backend)
    ctx = engine.prepare(rows, table, store=store)
    return engine.sort_by_score(ctx, ids)


def sfs_scan(
    rows: Sequence[tuple],
    sorted_ids: Sequence[int],
    table: RankTable,
) -> Iterator[int]:
    """The skyline-extraction scan over presorted ids.

    Yields skyline ids progressively (each yielded id is definitely in
    the skyline at the moment it is yielded).
    """
    dominates = table.dominates
    window: List[tuple] = []
    for i in sorted_ids:
        p = rows[i]
        if any(dominates(q, p) for q in window):
            continue
        window.append(p)
        yield i


def sfs_skyline(
    rows: Sequence[tuple],
    ids: Sequence[int],
    table: RankTable,
    backend=None,
    store=None,
) -> List[int]:
    """Complete SFS: presort by ``f`` then scan.

    Delegates to the selected backend's composite skyline kernel, which
    for the numpy backend executes the scan block-at-a-time over the
    columnar store instead of tuple-at-a-time.  All backends return the
    same id *set* (the skyline is unique); use :func:`sfs_scan` when
    progressive, score-ordered emission is required.
    """
    engine = resolve_backend(backend)
    ctx = engine.prepare(rows, table, store=store)
    return engine.skyline(ctx, ids)
