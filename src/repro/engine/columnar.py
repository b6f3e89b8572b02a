"""Columnar canonical store: the NumPy-backed twin of a row dataset.

:class:`~repro.core.dataset.Dataset` keeps its canonical encoding as a
tuple of row tuples - perfect for the pure-Python reference path, hostile
to vectorized execution.  :class:`ColumnarStore` is the column-major
mirror of that encoding:

* ``matrix`` - an ``(n, m)`` float64 array.  Universally ordered
  dimensions hold their canonical floats (smaller is better); nominal
  dimensions hold the value id *as a float* so that a compiled
  :class:`~repro.core.dominance.RankTable` can be applied to the whole
  column with one gather (``RankTable.remap_columns``).
* ``keys`` - an ``(n, m)`` int32 array of *tie-break keys*: zero on
  universally ordered dimensions, the value id on nominal dimensions.

The ``keys`` matrix is what preserves the paper's partial-order
semantics under vectorization: after remapping, two *distinct* unlisted
nominal values share the default rank ``c`` but are **incomparable**
(Section 4.2), which a rank comparison alone cannot see.  Kernels
therefore treat "equal rank but different key" as blocking dominance in
both directions.  On universal dimensions equal floats mean equal
values, so the constant zero key never blocks anything.

Stores are immutable once built and are cached per dataset
(:attr:`repro.core.dataset.Dataset.columns`); one store serves every
query because value ids are schema-derived, while the per-query rank
remap is recomputed from it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exceptions import EngineError

try:  # soft dependency: the package must import without NumPy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None


def numpy_available() -> bool:
    """True when NumPy is importable in this environment."""
    return _np is not None


def require_numpy():
    """Return the :mod:`numpy` module or raise :class:`EngineError`."""
    if _np is None:
        raise EngineError(
            "NumPy is not installed; install the 'repro[fast]' extra or "
            "use the 'python' backend"
        )
    return _np


class ColumnarStore:
    """Column-major canonical encoding of a set of rows.

    Use :meth:`from_rows`; the constructor takes pre-built arrays.
    """

    __slots__ = ("matrix", "keys", "nominal_dims", "_matrix_t")

    def __init__(self, matrix, keys, nominal_dims: Sequence[int]) -> None:
        self.matrix = matrix
        self.keys = keys
        self.nominal_dims = tuple(nominal_dims)
        self._matrix_t = None

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_dims(self) -> int:
        """Total number of dimensions (columns of the matrix)."""
        return self.matrix.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarStore({len(self)} rows, {self.num_dims} dims, "
            f"nominal={self.nominal_dims})"
        )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple],
        nominal_dims: Iterable[int],
        num_dims: int = 0,
    ) -> "ColumnarStore":
        """Build a store from canonical row tuples.

        ``rows`` must be canonical encodings (floats on universal
        dimensions, integer value ids on nominal ones).  ``num_dims``
        is only consulted when ``rows`` is empty (the width cannot be
        inferred then).
        """
        np = require_numpy()
        nominal = tuple(nominal_dims)
        if len(rows):
            matrix = np.asarray(rows, dtype=np.float64)
            if matrix.ndim != 2:  # ragged or non-numeric input
                raise EngineError(
                    "canonical rows do not form a rectangular numeric matrix"
                )
        else:
            matrix = np.empty((0, num_dims), dtype=np.float64)
        keys = np.zeros(matrix.shape, dtype=np.int32)
        for dim in nominal:
            keys[:, dim] = matrix[:, dim].astype(np.int32)
        matrix.setflags(write=False)
        keys.setflags(write=False)
        return cls(matrix, keys, nominal)

    @property
    def matrix_t(self):
        """``matrix`` transposed to ``(m, n)``, contiguous per dimension.

        Kernels broadcast dimension-rows against each other; the
        transposed copy makes every per-dimension slice contiguous
        (column slices of the row-major ``matrix`` are strided, which
        wrecks ufunc throughput).  Built lazily, cached for the store's
        lifetime.
        """
        if self._matrix_t is None:
            np = require_numpy()
            transposed = np.ascontiguousarray(self.matrix.T)
            transposed.setflags(write=False)
            self._matrix_t = transposed
        return self._matrix_t

    def column(self, dim: int):
        """The raw canonical column of one dimension (read-only view)."""
        return self.matrix[:, dim]

    def key_column(self, dim: int):
        """The tie-break key column of one dimension (read-only view)."""
        return self.keys[:, dim]
