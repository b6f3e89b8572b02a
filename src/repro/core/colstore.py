"""Column stores: who owns the canonical bytes a dataset reads.

Every dataset in this library operates on the *canonical* row encoding
(:mod:`repro.core.dataset`).  This module answers a different question:
where do those encoded values physically live, and who pays to
materialize them?  A :class:`ColumnStore` is the backing representation
of one immutable block of canonical rows, in one of three ownership
regimes:

* :class:`OwnedColumnStore` - the classic in-memory encoding: a list of
  canonical row tuples the store owns outright.  Zero indirection,
  O(n) resident memory; what every ingest path produces.
* :class:`BorrowedColumnStore` - a **read-only view over an mmap'd
  ``.npy`` snapshot sidecar** (``np.load(..., mmap_mode="r")``).  The
  store borrows the kernel page cache: nothing is decoded or copied at
  open time, rows materialize as tuples only when actually indexed,
  and every process on the box mapping the same snapshot file shares
  one copy of the bytes.  This is what makes recovery O(WAL tail)
  instead of O(n), and replica spawn nearly free.
* :class:`JsonColumnStore` - the pure-Python twin of the borrowed
  store for environments without NumPy (and for snapshot documents
  shipped inline over the replication wire): a lazy decoding view over
  the parsed JSON row lists, paging rows in per access instead of
  converting all n rows up front.

The row-facing surface is uniform: :meth:`ColumnStore.canonical_rows`
and :meth:`ColumnStore.raw_rows` return lazy sequences
(:class:`CanonicalRows` / :class:`RawRows`) that duck-type the tuple
storage :class:`~repro.core.dataset.Dataset` and
:class:`~repro.updates.dataset.DynamicDataset` keep, and
:class:`ChainRows` stacks a mutable overlay tail on top of an immutable
base - the representation of a restored dynamic dataset whose appends
must never touch (or copy) the borrowed base.

Ownership rules
---------------
A store is immutable once built.  Whoever *creates* a
:class:`BorrowedColumnStore` owns its file handle and must arrange for
exactly one :meth:`~ColumnStore.close` (idempotent; the serving layer
closes its borrowed base in ``SkylineService.close()``).  Borrowers -
datasets, overlay chains, columnar views - hold references but never
close; closing while views are alive invalidates them, so close only
on retirement of the whole object graph.  Compaction is the one
operation that materializes: it rewrites live rows into owned storage
and drops the borrowed base reference (the file handle still belongs
to the creator).
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeKind, Schema
from repro.exceptions import DatasetError, StorageError

Row = Tuple[object, ...]


def _raw_decoders(schema: Schema):
    """One canonical-to-raw callable per dimension (inverse encoders).

    Min-dimensions pass through, max-dimensions negate back, ordinal
    and nominal dimensions index their domains by value id.  Numeric
    raws come back as floats (``10`` -> ``10.0`` - equal in every
    comparison this library performs; see :mod:`repro.storage.snapshot`).
    """
    decoders = []
    for spec in schema:
        if spec.kind is AttributeKind.NUMERIC_MIN:
            decoders.append(lambda value: value)
        elif spec.kind is AttributeKind.NUMERIC_MAX:
            decoders.append(lambda value: -value)
        else:  # ORDINAL / NOMINAL: canonical value is the domain index
            decoders.append(
                lambda value, _domain=spec.domain: _domain[int(value)]
            )
    return decoders


class ColumnStore:
    """Immutable backing storage of one block of canonical rows.

    Subclasses implement :meth:`canonical_row` (a tuple with floats on
    universal dimensions and **int** value ids on nominal ones) and may
    expose :attr:`matrix` (a read-only ``(n, m)`` float64 array) when
    NumPy-backed.  ``close()`` is a no-op unless the store borrows an
    external resource.
    """

    __slots__ = ("_length", "_dims", "nominal_dims")

    def __init__(
        self, length: int, num_dims: int, nominal_dims: Sequence[int]
    ) -> None:
        self._length = length
        self._dims = num_dims
        self.nominal_dims = tuple(nominal_dims)

    def __len__(self) -> int:
        return self._length

    @property
    def num_dims(self) -> int:
        """Number of dimensions (columns) per row."""
        return self._dims

    @property
    def matrix(self):
        """The ``(n, m)`` float64 canonical matrix, or ``None``."""
        return None

    def canonical_row(self, index: int) -> Row:
        """Canonical encoding of one row (ints on nominal dimensions)."""
        raise NotImplementedError

    def canonical_rows(self) -> "CanonicalRows":
        """Lazy sequence view of every canonical row."""
        return CanonicalRows(self)

    def raw_rows(self, schema: Schema) -> "RawRows":
        """Lazy sequence of raw rows, decoded through ``schema``."""
        return RawRows(schema, self.canonical_rows())

    def columnar(self):
        """This store as a :class:`~repro.engine.columnar.ColumnarStore`.

        Requires NumPy; built lazily and cached so every consumer of
        the same store shares one columnar view (and one rank-remap
        cache entry per compiled table).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release borrowed resources (idempotent no-op by default)."""

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` released a borrowed resource."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self._length} rows, "
            f"{self._dims} dims, nominal={self.nominal_dims})"
        )


class OwnedColumnStore(ColumnStore):
    """The classic in-memory encoding: canonical row tuples, owned."""

    __slots__ = ("_rows", "_columnar")

    def __init__(
        self,
        rows: Sequence[Row],
        nominal_dims: Sequence[int],
        num_dims: int,
    ) -> None:
        super().__init__(len(rows), num_dims, nominal_dims)
        self._rows = rows
        self._columnar = None

    def canonical_row(self, index: int) -> Row:
        return self._rows[index]

    def columnar(self):
        if self._columnar is None:
            from repro.engine.columnar import ColumnarStore

            self._columnar = ColumnarStore.from_rows(
                self._rows, self.nominal_dims, num_dims=self._dims
            )
        return self._columnar


class JsonColumnStore(ColumnStore):
    """Lazy decoding view over parsed-JSON canonical row lists.

    The pure-Python fallback tier of snapshot loading and the
    replication bootstrap path: the JSON parse already materialized
    ``n`` lists, but the per-row tuple conversion (and the int
    coercion of nominal value ids) is deferred to first access, so a
    follower starts serving after O(WAL tail) work instead of three
    more O(n) passes.
    """

    __slots__ = ("_rows", "_columnar")

    def __init__(
        self,
        rows: Sequence[Sequence[object]],
        nominal_dims: Sequence[int],
        num_dims: int,
    ) -> None:
        super().__init__(len(rows), num_dims, nominal_dims)
        self._rows = rows
        self._columnar = None

    def canonical_row(self, index: int) -> Row:
        row = self._rows[index]
        if self.nominal_dims:
            row = list(row)
            for dim in self.nominal_dims:
                row[dim] = int(row[dim])
        return tuple(row)

    def columnar(self):
        if self._columnar is None:
            from repro.engine.columnar import ColumnarStore, require_numpy

            np = require_numpy()
            if self._length:
                matrix = np.asarray(self._rows, dtype=np.float64)
            else:
                matrix = np.empty((0, self._dims), dtype=np.float64)
            self._columnar = ColumnarStore.from_rows(
                matrix, self.nominal_dims, num_dims=self._dims
            )
        return self._columnar


class BorrowedColumnStore(ColumnStore):
    """Borrowed read-only view over an mmap'd ``.npy`` snapshot sidecar.

    Opening costs O(npy header): the canonical matrix is *mapped*, not
    read, and stays backed by the kernel page cache until rows or
    columns are touched.  Snapshot format v2 writes the sidecar
    column-major (Fortran order), so a per-column access pages in only
    that column's bytes and the transposed kernel view
    (``matrix_t``) is a zero-copy reinterpretation of the same pages.
    v1 sidecars (row-major) load through the same class; their
    transposed view falls back to a one-time copy.

    The store owns the underlying file handle; :meth:`close` releases
    it (idempotent).  See the module docstring for ownership rules.
    """

    __slots__ = ("_matrix", "_columnar", "_closed", "_path")

    def __init__(
        self,
        path,
        nominal_dims: Sequence[int],
        num_dims: int,
        *,
        expected_rows: Optional[int] = None,
    ) -> None:
        from repro.engine.columnar import require_numpy

        np = require_numpy()
        self._path = str(path)
        try:
            matrix = np.load(self._path, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"cannot map snapshot payload {path}: {exc}"
            ) from None
        if matrix.ndim != 2 or matrix.shape[1] != num_dims:
            raise StorageError(
                f"snapshot payload {path} has shape {matrix.shape}, "
                f"expected (slots, {num_dims})"
            )
        if matrix.dtype != np.float64:
            raise StorageError(
                f"snapshot payload {path} has dtype {matrix.dtype}, "
                f"expected float64"
            )
        if expected_rows is not None and matrix.shape[0] != expected_rows:
            raise StorageError(
                f"snapshot payload {path} holds {matrix.shape[0]} rows, "
                f"the document records {expected_rows}"
            )
        # An mmap defers reads: a truncated file would surface as a
        # bus error mid-query instead of a load failure.  Verify the
        # backing file really holds every mapped byte up front.
        try:
            actual = os.fstat(matrix._mmap.fileno()).st_size
        except (AttributeError, OSError, ValueError):  # pragma: no cover
            actual = os.path.getsize(self._path)
        needed = int(matrix.offset) + matrix.nbytes
        if actual < needed:
            raise StorageError(
                f"snapshot payload {path} is truncated: {actual} bytes on "
                f"disk, the header promises {needed}"
            )
        super().__init__(matrix.shape[0], num_dims, nominal_dims)
        self._matrix = matrix
        self._columnar = None
        self._closed = False

    @property
    def matrix(self):
        """The borrowed ``(n, m) float64`` memmap (read-only)."""
        return self._matrix

    def canonical_row(self, index: int) -> Row:
        row = self._matrix[index].tolist()
        for dim in self.nominal_dims:
            row[dim] = int(row[dim])
        return tuple(row)

    def columnar(self):
        """Zero-copy :class:`~repro.engine.columnar.ColumnarStore`.

        The value matrix *is* the mmap; only the int32 nominal
        tie-break keys are materialized (one vectorized cast per
        nominal column, paged in on first use).
        """
        if self._columnar is None:
            from repro.engine.columnar import ColumnarStore, require_numpy

            np = require_numpy()
            keys = np.zeros(self._matrix.shape, dtype=np.int32)
            for dim in self.nominal_dims:
                keys[:, dim] = self._matrix[:, dim].astype(np.int32)
            keys.setflags(write=False)
            self._columnar = ColumnarStore(
                self._matrix, keys, self.nominal_dims
            )
        return self._columnar

    def close(self) -> None:
        """Release the mapped file handle (idempotent).

        After closing, row and column accesses fail; close only when
        the whole object graph borrowing this store is retired.
        """
        if self._closed:
            return
        self._closed = True
        mapped = getattr(self._matrix, "_mmap", None)
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:  # pragma: no cover - live exported views
                pass

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the mapping."""
        return self._closed


class CanonicalRows(Sequence):
    """Lazy, immutable sequence of a store's canonical row tuples."""

    __slots__ = ("_store",)

    def __init__(self, store: ColumnStore) -> None:
        self._store = store

    @property
    def store(self) -> ColumnStore:
        """The backing store (for fast-path dispatch, never closed here)."""
        return self._store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                self._store.canonical_row(i)
                for i in range(*index.indices(len(self._store)))
            ]
        if index < 0:
            index += len(self._store)
        return self._store.canonical_row(index)

    def __iter__(self) -> Iterator[Row]:
        store = self._store
        for i in range(len(store)):
            yield store.canonical_row(i)

    def matrix_block(self, start: int, stop: int):
        """Float64 block ``[start:stop)`` of the backing matrix, or ``None``.

        The vectorized escape hatch consumers use to avoid per-row
        tuple materialization (rank-matrix syncs, columnar builders).
        """
        matrix = self._store.matrix
        return None if matrix is None else matrix[start:stop]


class RawRows(Sequence):
    """Lazy raw-row view: canonical rows inverted through the schema."""

    __slots__ = ("_canon", "_decoders")

    def __init__(self, schema: Schema, canon: Sequence[Row]) -> None:
        self._canon = canon
        self._decoders = _raw_decoders(schema)

    def __len__(self) -> int:
        return len(self._canon)

    def _decode(self, row: Row) -> Row:
        return tuple(
            dec(value) for dec, value in zip(self._decoders, row)
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._decode(row) for row in self._canon[index]]
        return self._decode(self._canon[index])

    def __iter__(self) -> Iterator[Row]:
        for row in self._canon:
            yield self._decode(row)


class ChainRows(Sequence):
    """An immutable base sequence plus a mutable overlay tail.

    The storage shape of a restored
    :class:`~repro.updates.dataset.DynamicDataset`: the base is a lazy
    view over a (possibly borrowed) :class:`ColumnStore` and is never
    written, appends go to the plain-list tail.  Supports exactly the
    sequence surface the dataset layers use: ``len``, iteration,
    integer and slice indexing, ``append``/``extend``, and the
    ``matrix_block`` fast path (base block from the store's matrix,
    tail block converted from tuples).
    """

    __slots__ = ("_base", "_tail")

    def __init__(self, base: Sequence, tail: Optional[List] = None) -> None:
        if isinstance(base, ChainRows):
            raise DatasetError(
                "refusing to chain over another ChainRows: the inner "
                "overlay is mutable and would grow under this view"
            )
        self._base = base
        self._tail = tail if tail is not None else []

    @property
    def base(self) -> Sequence:
        """The immutable base sequence."""
        return self._base

    def __len__(self) -> int:
        return len(self._base) + len(self._tail)

    def __getitem__(self, index):
        split = len(self._base)
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1 and start >= split:
                return self._tail[start - split : stop - split]
            if step == 1 and stop <= split:
                return list(self._base[start:stop])
            return [self[i] for i in range(start, stop, step)]
        if index < 0:
            index += len(self)
        if index < split:
            if index < 0:
                raise IndexError(index)
            return self._base[index]
        return self._tail[index - split]

    def __iter__(self) -> Iterator:
        yield from self._base
        yield from self._tail

    def append(self, row) -> None:
        """Append one row to the mutable overlay tail."""
        self._tail.append(row)

    def extend(self, rows) -> None:
        """Append every row of ``rows`` to the mutable overlay tail."""
        self._tail.extend(rows)

    def matrix_block(self, start: int, stop: int):
        """Float64 block ``[start:stop)``, or ``None`` without a matrix base.

        Base rows come straight from the backing matrix (a view - no
        decode, no copy); overlay rows are converted from their tuples.
        Requires NumPy on the base store's side; the pure-Python tiers
        return ``None`` and callers fall back to the tuple path.
        """
        base = self._base
        block_of = getattr(base, "matrix_block", None)
        if block_of is None:
            return None
        split = len(base)
        if stop <= split:
            return block_of(start, stop)
        from repro.engine.columnar import numpy_available

        if not numpy_available():  # pragma: no cover - matrix implies numpy
            return None
        import numpy as np

        tail = np.asarray(
            self._tail[max(0, start - split) : stop - split],
            dtype=np.float64,
        )
        if tail.ndim != 2:
            # Empty (or ragged) tail slice: let the caller take the
            # tuple path rather than guess the column count.
            return None
        if start >= split:
            return tail
        head = block_of(start, split)
        if head is None:
            return None
        return np.concatenate([head, tail])


def growable_rows(rows: Sequence) -> Sequence:
    """A privately growable row sequence over ``rows``, copying minimally.

    Index structures that keep "own, growable copies" of a dataset's
    rows (Adaptive SFS) call this instead of ``list(rows)``: plain
    list/tuple storage is copied as before (the caller must not alias
    the dataset's mutable lists), while a lazy store-backed sequence is
    wrapped in a fresh :class:`ChainRows` - the base is immutable by
    contract, so sharing it is safe and the O(n) materialization
    disappears.  A live :class:`ChainRows` (a mutable overlay someone
    else appends to) is snapshotted: shared base, copied tail.
    """
    if isinstance(rows, ChainRows):
        return ChainRows(rows.base, list(rows._tail))
    if isinstance(rows, (CanonicalRows, RawRows)):
        return ChainRows(rows)
    return list(rows)
