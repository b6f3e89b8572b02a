"""Skyline algorithms operating on canonical rows + a rank table.

All functions share the signature ``fn(rows, ids, table) -> list[int]``
where ``rows`` is indexed by point id, ``ids`` selects the points under
consideration and ``table`` is a compiled
:class:`~repro.core.dominance.RankTable`.  ``sfs`` is the scan every
query path uses; ``bruteforce`` is the all-pairs oracle the tests
compare against.
"""

from repro.algorithms.bruteforce import bruteforce_skyline
from repro.algorithms.sfs import sfs_scan, sfs_skyline, sort_by_score
from repro.algorithms.sfs_d import SFSDirect

ALGORITHMS = {
    "bruteforce": bruteforce_skyline,
    "sfs": sfs_skyline,
}

__all__ = [
    "ALGORITHMS",
    "SFSDirect",
    "bruteforce_skyline",
    "sfs_scan",
    "sfs_skyline",
    "sort_by_score",
]
