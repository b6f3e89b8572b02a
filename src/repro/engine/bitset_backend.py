"""Bit-parallel packed dominance kernels: the ``"bitset"`` backend.

The numpy backend's accept-then-sweep still compares ranks
column-by-column per candidate block; this backend packs the accepted
window into machine words so one bitwise AND over the dimensions
evaluates 64 dominance comparisons at once, and bounds each candidate's
comparison window with per-dimension running minima instead of
rescanning the whole accepted set.

Packed layout
-------------
Per prepared context, every dimension's rank column is quantized into
at most :data:`NUM_BUCKETS` monotone *bucket* levels (quantile cuts
over a rank sample; ``rank_a <= rank_b`` implies
``bucket_a <= bucket_b``).  The sweep then maintains, per dimension
``j``, a **threshold bitmap** over the accepted window::

    tb[j][k]   (a row of uint64 words / one python int)
    bit t set  iff  accepted point t has bucket_j <= k

Accepted points are numbered in acceptance (= score) order, strongest
first.  For a candidate ``c`` the word-wise AND

    m = tb[0][bucket_0(c)] & tb[1][bucket_1(c)] & ... & tb[d-1][...]

is a **superset of c's dominators**: any dominator is not-worse on
every dimension, not-worse implies ``rank <= rank`` (on nominal
dimensions via the value-equality clause), and rank order implies
bucket order.  ``m == 0`` proves the candidate undominated with ``d``
word-ops per 64 accepted points - no exact comparison at all.  Nonzero
words are *refined* exactly, lowest bit first (the strongest accepts
kill fastest), with the same semantics as every other backend: the
nominal rank-tie/value-inequality clause blocks dominance, and
strictness falls back to row equality on score ties.

Window shrinking
----------------
Two bounds keep the sweep from rescanning the whole accepted set:

* **block windows** - in the accept-then-sweep loop the remaining
  candidates are swept only against the freshly accepted block's words
  (every earlier block already swept them);
* **running minima** (python-int tier) - a candidate strictly below
  the window's running per-dimension minimum rank on *any* dimension
  cannot be dominated at all (nothing is not-worse there) and is
  accepted without touching the bitmaps.

Tiers
-----
* With NumPy, the bitmaps are ``uint64`` lanes and the sweep runs
  block-at-a-time; an optional compiled C kernel
  (:mod:`repro.engine._bitset_kernel`, auto-detected, gated by
  ``REPRO_BITSET_KERNEL``) fuses the AND + refine loop with
  per-candidate early exit.
* Without NumPy the same structures fall back to arbitrary-precision
  python ints - one ``&`` per dimension still evaluates the whole
  window - so the backend is *always available* and observationally
  equivalent on every tier (enforced by the differential oracle).

Primitive kernels (``dominated_any`` included) delegate to the numpy /
python reference backends; only the composite ``skyline`` runs on the
packed representation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.engine._bitset_kernel import load_kernel
from repro.engine.base import Backend
from repro.engine.columnar import numpy_available, require_numpy
from repro.engine.python_backend import PythonBackend
from repro.exceptions import EngineError

#: Bucket levels per dimension of the numpy-packed tier.  64 quantile
#: levels keep bucket false positives rare while the threshold bitmap
#: (``d x 64 x words``) stays a few hundred KB even at 1M rows.
NUM_BUCKETS = 64

#: Bucket levels of the python-int tier (accepting a point costs
#: ``O(levels)`` int ORs per dimension, so the fallback favours fewer).
PY_NUM_BUCKETS = 16

#: Rank-sample size for the quantile cuts.
_SAMPLE = 4096

#: Accept-block size of the packed accept-then-sweep (pairwise
#: resolution within a block is quadratic, as in the numpy backend).
_BLOCK = 256


# ---------------------------------------------------------------------------
# numpy-packed tier
# ---------------------------------------------------------------------------


class _BitsetContext:
    """A numpy context (duck-typing ``_NumpyContext``) plus packing.

    Carries the transposed rank/value matrices, scores and nominal
    flags exactly as the numpy backend's context does - the delegated
    primitive kernels run on it unchanged - plus the per-dimension
    quantile cuts and the ``(d, n) uint8`` bucket matrix.
    """

    __slots__ = (
        "ranks", "ranks_t", "values_t", "scores", "nominal", "table",
        "np", "buckets_t", "cuts", "full_order",
    )

    def __init__(self, inner, buckets_t, cuts) -> None:
        self.ranks = inner.ranks
        self.ranks_t = inner.ranks_t
        self.values_t = inner.values_t
        self.scores = inner.scores
        self.nominal = inner.nominal
        self.table = inner.table
        self.np = inner.np
        self.buckets_t = buckets_t
        self.cuts = cuts
        #: Score order of the *complete* id set, materialised on first
        #: full-set skyline and reused while the context lives (the
        #: score permutation is a pure function of (table, store), like
        #: the rank remap the table already caches).
        self.full_order = None


class _AcceptState:
    """The packed accepted window: columns and threshold bitmaps."""

    __slots__ = (
        "np", "num_dims", "ranks", "values", "scores", "buckets", "tb",
        "count",
    )

    def __init__(self, np, num_dims: int) -> None:
        capacity = 2 * _BLOCK
        self.np = np
        self.num_dims = num_dims
        self.ranks = np.empty((num_dims, capacity), dtype=np.float64)
        self.values = np.empty((num_dims, capacity), dtype=np.float64)
        self.scores = np.empty(capacity, dtype=np.float64)
        self.buckets = np.empty((num_dims, capacity), dtype=np.uint8)
        self.tb = np.zeros(
            (num_dims, NUM_BUCKETS, (capacity + 63) >> 6), dtype=np.uint64
        )
        self.count = 0

    def _ensure(self, needed: int) -> None:
        np = self.np
        capacity = self.scores.shape[0]
        if needed <= capacity:
            return
        new_cap = max(needed, 2 * capacity)
        for name in ("ranks", "values", "buckets"):
            old = getattr(self, name)
            grown = np.empty((self.num_dims, new_cap), dtype=old.dtype)
            grown[:, :capacity] = old
            setattr(self, name, grown)
        scores = np.empty(new_cap, dtype=np.float64)
        scores[:capacity] = self.scores
        self.scores = scores
        new_words = (new_cap + 63) >> 6
        tb = np.zeros(
            (self.num_dims, NUM_BUCKETS, new_words), dtype=np.uint64
        )
        tb[:, :, : self.tb.shape[2]] = self.tb
        self.tb = tb

    def extend(self, ranks, values, scores, buckets) -> None:
        """Accept a (score-ordered) block: copy columns, set bits.

        ``ranks``/``values``/``buckets`` are ``(d, m)`` column blocks,
        ``scores`` the matching ``(m,)`` vector.
        """
        np = self.np
        m = scores.shape[0]
        if not m:
            return
        t0, t1 = self.count, self.count + m
        self._ensure(t1)
        self.ranks[:, t0:t1] = ranks
        self.values[:, t0:t1] = values
        self.scores[t0:t1] = scores
        self.buckets[:, t0:t1] = buckets
        pos = np.arange(t0, t1)
        word = pos >> 6
        bits = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
        for w in range(t0 >> 6, ((t1 - 1) >> 6) + 1):
            sel = word == w
            for j in range(self.num_dims):
                # Per-bucket OR of the new bits, then a cumulative OR
                # over the bucket axis: level k collects every accept
                # with bucket <= k - the threshold property.
                row = np.zeros(NUM_BUCKETS, dtype=np.uint64)
                np.bitwise_or.at(row, buckets[j, sel], bits[sel])
                np.bitwise_or.accumulate(row, out=row)
                self.tb[j, :, w] |= row
        self.count = t1


def _numpy_sweep(np, state: _AcceptState, nominal, ctx, sel,
                 w0: int, w1: int, t0: int, t1: int):
    """Packed membership sweep without the compiled kernel.

    Candidates are the ``sel`` columns of the full context arrays (no
    gathered copies); accepts in ``[t0, t1)`` (word range ``[w0, w1)``)
    are tested.  The bucket rows are ANDed across dimensions - one
    ``uint64`` word per 64 accepts - and only *flagged* candidates
    (nonzero AND: some accept is bucket-below on every dimension, which
    is almost always a real dominator) fall back to the numpy backend's
    exact staged scan over the matching accept slice.  Returns the
    per-candidate dead mask aligned with ``sel``.
    """
    from repro.engine.numpy_backend import _Cols, _dominated_any

    dead = np.zeros(sel.shape[0], dtype=bool)
    if not sel.shape[0] or t1 <= t0:
        return dead
    buckets = ctx.buckets_t[:, sel]
    m = state.tb[0, buckets[0], w0:w1].copy()
    for j in range(1, state.num_dims):
        m &= state.tb[j, buckets[j], w0:w1]
    shift = t0 - (w0 << 6)
    if shift > 0:  # already-swept bits of the boundary word
        m[:, 0] &= np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(shift)
    flagged = np.nonzero(m.any(axis=1))[0]
    if not flagged.size:
        return dead
    lo, hi = t0, min(t1, w1 << 6)
    window = _Cols(
        state.ranks[:, lo:hi], state.values[:, lo:hi], state.scores[lo:hi]
    )
    csel = sel[flagged]
    cand = _Cols(ctx.ranks_t[:, csel], ctx.values_t[:, csel], ctx.scores[csel])
    dead[flagged] = _dominated_any(np, nominal, window, cand)
    return dead


# ---------------------------------------------------------------------------
# python-int tier
# ---------------------------------------------------------------------------


class _PyBitsetContext:
    """Inputs plus the lazily built python-int packing."""

    __slots__ = ("rows", "table", "_rank_cache")

    def __init__(self, rows, table) -> None:
        self.rows = rows
        self.table = table
        self._rank_cache = {}

    def rank_vector(self, i: int):
        cached = self._rank_cache.get(i)
        if cached is None:
            cached = self._rank_cache[i] = self.table.rank_vector(
                self.rows[i]
            )
        return cached


def _py_cuts(sorted_ids, ctx: _PyBitsetContext) -> List[List[float]]:
    """Per-dimension quantile cut lists from a strided rank sample."""
    if not sorted_ids:
        return []
    stride = max(1, len(sorted_ids) // _SAMPLE)
    sample = [ctx.rank_vector(i) for i in sorted_ids[::stride]]
    num_dims = len(sample[0])
    cuts: List[List[float]] = []
    for j in range(num_dims):
        column = sorted(rv[j] for rv in sample)
        picks = []
        for level in range(1, PY_NUM_BUCKETS):
            value = column[min(
                len(column) - 1, (level * len(column)) // PY_NUM_BUCKETS
            )]
            if not picks or value > picks[-1]:
                picks.append(value)
        cuts.append(picks)
    return cuts


def _py_bucket(cuts: List[float], value: float) -> int:
    """Monotone bucket id of ``value`` under one dimension's cuts."""
    from bisect import bisect_right

    return bisect_right(cuts, value)


class _PyWindow:
    """Python-int packed window: threshold ints + shrink bounds."""

    __slots__ = ("tb", "acc_ids", "cur_min", "num_dims", "levels")

    def __init__(self, num_dims: int, cuts) -> None:
        self.num_dims = num_dims
        self.levels = [len(c) + 1 for c in cuts]
        self.tb = [[0] * levels for levels in self.levels]
        self.acc_ids: List[int] = []
        self.cur_min = [float("inf")] * num_dims

    def dominator_of(self, ctx: _PyBitsetContext, row, buckets) -> bool:
        """Is some accepted point dominating ``row``?"""
        mask = self.tb[0][buckets[0]]
        for j in range(1, self.num_dims):
            if not mask:
                return False
            mask &= self.tb[j][buckets[j]]
        dominates = ctx.table.dominates
        rows = ctx.rows
        while mask:
            low = mask & -mask
            mask ^= low
            if dominates(rows[self.acc_ids[low.bit_length() - 1]], row):
                return True
        return False

    def accept(self, i: int, ranks, buckets) -> None:
        bit = 1 << len(self.acc_ids)
        self.acc_ids.append(i)
        for j in range(self.num_dims):
            row = self.tb[j]
            for k in range(buckets[j], self.levels[j]):
                row[k] |= bit
            if ranks[j] < self.cur_min[j]:
                self.cur_min[j] = ranks[j]


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class BitsetBackend(Backend):
    """Bit-parallel packed implementation of the kernel contract.

    Parameters
    ----------
    packed:
        ``"auto"`` (default) picks the ``uint64``-lane tier when NumPy
        is importable and the python-int tier otherwise; ``"numpy"`` /
        ``"python"`` force a tier (tests exercise the int tier with
        NumPy installed; forcing ``"numpy"`` without NumPy raises).
    kernel:
        ``"auto"`` (default) honours ``REPRO_BITSET_KERNEL``; ``"off"``
        disables the compiled sweep for this instance (the A/B axis of
        the benchmark and the kernel-equivalence tests).
    """

    name = "bitset"

    #: Bound on the per-instance packing cache (mirrors
    #: :attr:`RankTable.REMAP_CACHE_SIZE`).
    PACK_CACHE_SIZE = 4

    def __init__(self, packed: str = "auto", kernel: str = "auto") -> None:
        if packed not in ("auto", "numpy", "python"):
            raise EngineError(
                f"invalid packed tier {packed!r}; use 'auto', 'numpy' "
                "or 'python'"
            )
        if kernel not in ("auto", "off"):
            raise EngineError(
                f"invalid kernel setting {kernel!r}; use 'auto' or 'off'"
            )
        if packed == "auto":
            packed = "numpy" if numpy_available() else "python"
        self.packed = packed
        self.vectorized = packed == "numpy"
        if self.vectorized:
            from repro.engine.numpy_backend import NumpyBackend

            self._inner: Backend = NumpyBackend()
            self._sweep, self._kernel_status = (
                load_kernel() if kernel == "auto" else (None, "disabled")
            )
        else:
            self._inner = PythonBackend()
            self._sweep, self._kernel_status = (
                None, "python-int tier (compiled kernel needs NumPy)"
            )
        self._pack_cache: dict = {}

    def availability_detail(self) -> str:
        """One-line tier report for the registry's status surface."""
        if not self.vectorized:
            return "python-int packed tier (NumPy absent or tier forced)"
        if self._sweep is not None:
            return "numpy uint64 lanes + compiled C sweep"
        return f"numpy uint64 lanes ({self._kernel_status})"

    @property
    def compiled(self) -> bool:
        """True when the compiled C sweep is active."""
        return self._sweep is not None

    # -- context ----------------------------------------------------------
    def prepare(self, rows: Sequence[tuple], table, store=None):
        if not self.vectorized:
            return _PyBitsetContext(rows, table)
        np = require_numpy()
        # Whole contexts are cached per (table, store): both are
        # immutable, so the packed columns, the rank remap AND the
        # materialised score order all stay valid for the pair's
        # lifetime (same contract as RankTable's remap cache).
        key = (
            (id(table), id(store))
            if store is not None and len(store) == len(rows)
            else None
        )
        if key is not None:
            hit = self._pack_cache.get(key)
            if hit is not None and hit[0] is table and hit[1] is store:
                return hit[2]
        inner = self._inner.prepare(rows, table, store=store)
        buckets_t, cuts = self._pack(np, inner.ranks_t)
        ctx = _BitsetContext(inner, buckets_t, cuts)
        if key is not None:
            self._pack_cache[key] = (table, store, ctx)
            while len(self._pack_cache) > self.PACK_CACHE_SIZE:
                self._pack_cache.pop(next(iter(self._pack_cache)), None)
        return ctx

    def _pack(self, np, ranks_t):
        """Quantile cuts + the ``(d, n) uint8`` bucket matrix."""
        num_dims, n = ranks_t.shape
        buckets_t = np.empty((num_dims, n), dtype=np.uint8)
        cuts = []
        stride = max(1, n // _SAMPLE)
        for j in range(num_dims):
            sample = np.sort(ranks_t[j, ::stride])
            if sample.size:
                positions = (
                    np.arange(1, NUM_BUCKETS) * sample.size
                ) // NUM_BUCKETS
                dim_cuts = np.unique(sample[positions])
            else:
                dim_cuts = np.empty(0, dtype=np.float64)
            cuts.append(dim_cuts)
            buckets_t[j] = np.searchsorted(
                dim_cuts, ranks_t[j], side="right"
            ).astype(np.uint8)
        return buckets_t, cuts

    # -- delegating primitive kernels --------------------------------------
    def scores(self, ctx, ids: Sequence[int]) -> List[float]:
        """Delegates to the packed tier's base backend."""
        return self._inner.scores(ctx, ids)

    def score_rows(self, table, rows: Sequence[tuple]) -> List[float]:
        """Delegates to the packed tier's base backend."""
        return self._inner.score_rows(table, rows)

    def sort_by_score(self, ctx, ids: Sequence[int]) -> List[int]:
        """Delegates to the packed tier's base backend."""
        return self._inner.sort_by_score(ctx, ids)

    def dominates_mask(self, ctx, p: int, block: Sequence[int]) -> List[bool]:
        """Delegates to the packed tier's base backend."""
        return self._inner.dominates_mask(ctx, p, block)

    def dominated_mask(self, ctx, p: int, block: Sequence[int]) -> List[bool]:
        """Delegates to the packed tier's base backend."""
        return self._inner.dominated_mask(ctx, p, block)

    def any_dominates(self, ctx, p: int, block: Sequence[int]) -> bool:
        """Delegates to the packed tier's base backend."""
        return self._inner.any_dominates(ctx, p, block)

    def compare_many(self, ctx, p: int, block: Sequence[int]) -> List:
        """Delegates to the packed tier's base backend."""
        return self._inner.compare_many(ctx, p, block)

    def dim_ranks(self, ctx, ids: Sequence[int], dim: int) -> List[float]:
        """Delegates to the packed tier's base backend."""
        return self._inner.dim_ranks(ctx, ids, dim)

    def dominated_any(
        self, ctx, targets: Sequence[int], against: Sequence[int]
    ) -> List[bool]:
        """Delegates to the packed tier's base backend."""
        return self._inner.dominated_any(ctx, targets, against)

    # -- packed composite kernels ------------------------------------------
    def skyline(self, ctx, ids: Sequence[int]) -> List[int]:
        """Accept-then-sweep skyline on the packed window."""
        if not self.vectorized:
            return self._skyline_python(ctx, ids)
        return self._skyline_numpy(ctx, ids)

    # -- numpy tier --------------------------------------------------------
    def _run_sweep(self, np, state, nominal_u8, nominal, ctx, sel,
                   w0, w1, t0, t1):
        """Dead mask of candidates ``sel`` vs accepts ``[t0, t1)``."""
        if self._sweep is not None:
            dead = np.zeros(sel.shape[0], dtype=np.uint8)
            self._sweep(
                np, state, nominal_u8, ctx, sel, w0, w1, t0, t1, dead
            )
            return dead.view(bool)
        return _numpy_sweep(np, state, nominal, ctx, sel, w0, w1, t0, t1)

    def _gather_block(self, np, ctx, block_ids):
        """Contiguous column block of a (small) id array."""
        return (
            np.ascontiguousarray(ctx.ranks_t[:, block_ids]),
            np.ascontiguousarray(ctx.values_t[:, block_ids]),
            np.ascontiguousarray(ctx.scores[block_ids]),
            np.ascontiguousarray(ctx.buckets_t[:, block_ids]),
        )

    def _skyline_numpy(self, ctx, ids: Sequence[int]) -> List[int]:
        from repro.engine.numpy_backend import _Cols, _dominates_matrix

        np = ctx.np
        idx = self._inner._ids_array(ctx, ids)
        if idx.size == 0:
            return []
        n_all = ctx.scores.shape[0]
        if idx.size == n_all and (idx == np.arange(n_all)).all():
            # Full-set scan: materialise the score order once per
            # context (see _BitsetContext.full_order).
            if ctx.full_order is None:
                ctx.full_order = np.argsort(ctx.scores, kind="stable")
            sorted_ids = ctx.full_order
        else:
            order = np.argsort(ctx.scores[idx], kind="stable")
            sorted_ids = idx[order]
        num_dims = len(ctx.nominal)
        nominal_u8 = np.asarray(ctx.nominal, dtype=np.uint8)
        state = _AcceptState(np, num_dims)
        # `rest` holds original ids in score order; only small per-block
        # gathers copy columns - the sweeps address the context arrays
        # through the id array directly.
        rest = sorted_ids
        out: List[int] = []
        while rest.size:
            block_ids = rest[:_BLOCK]
            rest = rest[_BLOCK:]
            ranks, values, scores, buckets = self._gather_block(
                np, ctx, block_ids
            )
            if block_ids.size > 1:
                # Intra-block pairwise resolution: sound because every
                # remaining candidate is undominated by all previous
                # accepts (loop invariant) and score order means only
                # earlier block members can dominate later ones.
                cols = _Cols(ranks, values, scores)
                peer = _dominates_matrix(np, ctx.nominal, cols, cols)
                keep = ~peer.any(axis=0)
                if not keep.all():
                    block_ids = block_ids[keep]
                    ranks = np.ascontiguousarray(ranks[:, keep])
                    values = np.ascontiguousarray(values[:, keep])
                    scores = np.ascontiguousarray(scores[keep])
                    buckets = np.ascontiguousarray(buckets[:, keep])
            out.extend(block_ids.tolist())
            t0 = state.count
            state.extend(ranks, values, scores, buckets)
            t1 = state.count
            if rest.size:
                dead = self._run_sweep(
                    np, state, nominal_u8, ctx.nominal, ctx, rest,
                    t0 >> 6, ((t1 - 1) >> 6) + 1, t0, t1,
                )
                rest = rest[~dead]
        return out

    # -- python-int tier ---------------------------------------------------
    def _sorted_by_score(self, ctx, ids: Sequence[int]) -> List[int]:
        score = ctx.table.score
        rows = ctx.rows
        return sorted(ids, key=lambda i: score(rows[i]))

    def _skyline_python(self, ctx, ids: Sequence[int]) -> List[int]:
        sorted_ids = self._sorted_by_score(ctx, ids)
        if not sorted_ids:
            return []
        cuts = _py_cuts(sorted_ids, ctx)
        num_dims = len(cuts)
        window = _PyWindow(num_dims, cuts)
        out: List[int] = []
        rows = ctx.rows
        for i in sorted_ids:
            ranks = ctx.rank_vector(i)
            buckets = [
                _py_bucket(cuts[j], ranks[j]) for j in range(num_dims)
            ]
            fresh = any(
                ranks[j] < window.cur_min[j] for j in range(num_dims)
            )
            if not fresh and window.dominator_of(ctx, rows[i], buckets):
                continue
            window.accept(i, ranks, buckets)
            out.append(i)
        return out


def make_bitset_backend(
    packed: str = "auto", kernel: str = "auto"
) -> BitsetBackend:
    """Build a configured :class:`BitsetBackend` (tier/kernel knobs).

    The registry's ``"bitset"`` entry is the all-auto instance; tests
    and benchmarks use this factory to force tiers for A/B runs.
    """
    return BitsetBackend(packed=packed, kernel=kernel)
