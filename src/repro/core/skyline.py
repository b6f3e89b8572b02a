"""High-level skyline entry point and result container.

:func:`skyline` is the one-call API used by the examples and the
reference path of every index: pick a dataset, a preference, optionally
a template and an algorithm, get the skyline back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.algorithms import ALGORITHMS
from repro.core.dataset import Dataset, Row
from repro.core.dominance import RankTable
from repro.core.preferences import Preference
from repro.engine import resolve_backend
from repro.exceptions import ReproError


@dataclass(frozen=True)
class SkylineResult:
    """A computed skyline: ids plus enough context to render rows.

    ``ids`` is sorted ascending so results compare deterministically.
    """

    dataset: Dataset
    preference: Preference
    ids: Tuple[int, ...]
    _id_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(sorted(self.ids)))
        object.__setattr__(self, "_id_set", frozenset(self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __contains__(self, point_id: object) -> bool:
        return point_id in self._id_set

    def rows(self) -> List[Row]:
        """Raw rows of the skyline points, in id order."""
        return [self.dataset.row(i) for i in self.ids]

    def to_set(self) -> frozenset:
        """The skyline as a frozenset of ids (for set algebra in tests)."""
        return self._id_set


def skyline(
    dataset: Dataset,
    preference: Optional[Preference] = None,
    *,
    template: Optional[Preference] = None,
    algorithm: str = "sfs",
    ids: Optional[Iterable[int]] = None,
    backend=None,
) -> SkylineResult:
    """Compute ``SKY(R~')`` for ``dataset`` (Definition 3 of the paper).

    Dominance follows the implicit-preference semantics: on a nominal
    attribute, the listed values are totally ordered and beat every
    unlisted value, while two distinct *unlisted* values are mutually
    **incomparable** - neither counts as "at least as good" in a
    dominance test, so points differing only in unlisted values are
    both kept.

    Parameters
    ----------
    dataset:
        The data points.
    preference:
        The user's implicit preference ``R~'``; ``None`` means no special
        preference on any nominal attribute.
    template:
        Optional template ``R~``; the preference must refine it and
        unmentioned dimensions inherit its chains.
    algorithm:
        ``"sfs"`` (default) or ``"bruteforce"`` (the all-pairs oracle).
    ids:
        Restrict the computation to a subset of point ids (used by the
        indexes, which search inside ``SKY(R~)`` only - Theorem 1).
    backend:
        Execution backend: a name (``"python"`` | ``"numpy"``), a
        resolved :class:`~repro.engine.Backend`, or ``None`` for the
        process default (``REPRO_BACKEND`` env var, else NumPy when
        available).  All backends return the same skyline.

    Examples
    --------
    >>> from repro.core.attributes import Schema, numeric_min, numeric_max, nominal
    >>> from repro.core.dataset import Dataset
    >>> from repro.core.preferences import Preference
    >>> schema = Schema([numeric_min("Price"), numeric_max("Class"),
    ...                  nominal("Group", ["T", "H", "M"])])
    >>> data = Dataset(schema, [(1600, 4, "T"), (2400, 1, "T"),
    ...                         (3000, 5, "H"), (3600, 4, "H"),
    ...                         (2400, 2, "M"), (3000, 3, "M")])
    >>> skyline(data, Preference({"Group": "T < M < *"})).ids  # Alice
    (0, 2)
    """
    try:
        algo = ALGORITHMS[algorithm]
    except KeyError:
        raise ReproError(
            f"unknown algorithm {algorithm!r}; "
            f"choose one of {sorted(ALGORITHMS)}"
        ) from None
    engine = resolve_backend(backend)
    table = RankTable.compile(dataset.schema, preference, template=template)
    point_ids = dataset.ids if ids is None else list(ids)
    store = dataset.columns if engine.vectorized else None
    result = algo(
        dataset.canonical_rows, point_ids, table,
        backend=engine, store=store,
    )
    return SkylineResult(
        dataset=dataset,
        preference=table.preference,
        ids=tuple(result),
    )
