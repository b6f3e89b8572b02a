"""Metamorphic (hypothesis) properties of incremental skyline maintenance.

Three relations that must hold for *any* data and *any* implicit
preference, each relating a maintained state to an independently
computed one:

1. **insert-then-delete is identity** - absorbing a row and then
   deleting it returns the maintained skyline to exactly its previous
   membership;
2. **N single inserts equal one rebuild** - feeding rows one by one
   through the maintainer lands on the same skyline as computing it
   from scratch over the extended dataset;
3. **deleting a non-skyline point never changes the skyline** - a
   dominated point disqualifies nothing, so removing it is invisible.

Two more pin the batched write path against tuple-wise references:

4. **the refinement short-circuit is exact** - the service runs the
   template maintainer on base-skyline entrants only, patches cached
   answers with template-skyline entrants only and scans the cache on
   a delete for deleted template-skyline members only; every cached
   entry must still equal the pure-Python skyline at the stamped
   version, and the ``(retained, patched, invalidated)`` counts must
   equal a brute-force diff of the cache;
5. **rank-matrix sweeps equal ``RankTable.dominates``** - the chunked
   broadcasts behind ``dominators_exist``, the slot-range shadow sweep
   and batched inserts/deletes agree with the tuple-at-a-time test,
   dead slots and unlisted-value ties included.

Small integer numeric values and small nominal domains force the tie
and duplicate regimes where maintenance bugs hide (shared scores,
incomparable unlisted values, exclusive-vs-shared dominance regions).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import (
    ImplicitPreference,
    Preference,
    canonical_cache_key,
)
from repro.core.skyline import skyline
from repro.engine import available_backends
from repro.engine.columnar import numpy_available
from repro.serve import SkylineService
from repro.updates import DynamicDataset, IncrementalSkyline
from repro.updates.incremental import RankMatrix

DOMAIN_A = ("a0", "a1", "a2", "a3")
DOMAIN_B = ("b0", "b1", "b2")

SCHEMA = Schema(
    [
        numeric_min("x"),
        numeric_min("y"),
        nominal("A", DOMAIN_A),
        nominal("B", DOMAIN_B),
    ]
)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

row_strategy = st.tuples(
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(DOMAIN_A),
    st.sampled_from(DOMAIN_B),
)

rows = st.lists(row_strategy, min_size=1, max_size=30)


@st.composite
def chains(draw, domain):
    """A duplicate-free preference chain over ``domain``."""
    length = draw(st.integers(0, len(domain)))
    return tuple(draw(st.permutations(list(domain))))[:length]


@st.composite
def preferences(draw):
    """A random implicit preference over both nominal dimensions."""
    return Preference(
        {
            "A": ImplicitPreference(draw(chains(DOMAIN_A))),
            "B": ImplicitPreference(draw(chains(DOMAIN_B))),
        }
    )


def maintainer_for(base_rows, pref, backend):
    data = DynamicDataset(SCHEMA, base_rows)
    return data, IncrementalSkyline(data, pref, backend=backend)


@pytest.mark.parametrize("backend", available_backends())
class TestMetamorphic:
    @SETTINGS
    @given(base=rows, extra=row_strategy, pref=preferences())
    def test_insert_then_delete_is_identity(self, backend, base, extra, pref):
        data, sky = maintainer_for(base, pref, backend)
        before = sky.ids
        pid = data.append([extra])[0]
        insert_effect = sky.insert([pid])
        data.delete([pid])
        delete_effect = sky.delete([pid])
        assert sky.ids == before
        # The two effects must also be inverse in membership terms.
        assert insert_effect.changed == delete_effect.changed

    @SETTINGS
    @given(base=rows, extras=st.lists(row_strategy, max_size=10),
           pref=preferences())
    def test_n_inserts_equal_one_rebuild(self, backend, base, extras, pref):
        data, sky = maintainer_for(base, pref, backend)
        for row in extras:
            sky.insert(data.append([row]))
        extended = Dataset(SCHEMA, list(base) + list(extras))
        fresh = IncrementalSkyline(
            DynamicDataset.from_dataset(extended), pref, backend=backend
        )
        assert sky.ids == fresh.ids
        # ... and equal the maintainer's own from-scratch rebuild.
        assert sky.ids == sky.rebuild()

    @SETTINGS
    @given(base=rows, pref=preferences())
    def test_delete_of_non_skyline_point_changes_nothing(
        self, backend, base, pref
    ):
        data, sky = maintainer_for(base, pref, backend)
        outside = [i for i in data.ids if i not in sky]
        if not outside:
            return  # every point is in the skyline; nothing to test
        before = sky.ids
        victim = outside[len(outside) // 2]
        data.delete([victim])
        effect = sky.delete([victim])
        assert not effect.changed
        assert sky.ids == before
        assert sky.ids == sky.rebuild()


# -- 4. the refinement short-circuit -----------------------------------------

#: The template every cached key refines: ``a0`` beats the rest of A.
TEMPLATE = Preference({"A": "a0"})


@st.composite
def refining_preferences(draw):
    """A random preference refining :data:`TEMPLATE`."""
    tail = draw(chains(DOMAIN_A[1:]))
    return Preference(
        {
            "A": ImplicitPreference(("a0",) + tail),
            "B": ImplicitPreference(draw(chains(DOMAIN_B))),
        }
    )


@st.composite
def insert_batches(draw, base):
    """Insert batches mixing the regimes the short-circuit must get right.

    * a *twin* of a live row with another A value enters the base
      skyline (distinct unlisted values are incomparable under the empty
      order) but, when the original holds ``a0``, not the template's;
    * a *better* row (one step down on both numerics) tends to enter
      both skylines;
    * an *unlisted pair* - equal numerics, two distinct unlisted A
      values - can enter together, neither dominating the other;
    * plus a fresh random row.
    """
    batches = []
    pool = list(base)
    for _ in range(draw(st.integers(1, 4))):
        x, y, a, b = draw(st.sampled_from(pool))
        other = draw(st.sampled_from([v for v in DOMAIN_A if v != a]))
        twin = (x, y, other, b)
        better = (x - 1, y - 1, a, b)
        pair_x, pair_y = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
        unlisted = [
            (pair_x, pair_y, value, b) for value in draw(
                st.permutations(list(DOMAIN_A[1:]))
            )[:2]
        ]
        batch = [twin, better] + unlisted + [draw(row_strategy)]
        batches.append(draw(st.permutations(batch)))
        pool.extend(batch)
    return batches


def cached_entries(service):
    """The cache's ``{key: ids}`` map, read without touching recency."""
    return dict(service.cache._entries)


def python_skyline(service, key):
    """The pure-Python skyline for a canonical cache key, over live rows."""
    dyn = service._dynamic
    pref = Preference(
        {name: ImplicitPreference(chain) for name, chain in key}
    )
    data = Dataset(SCHEMA, dyn.raw_rows)
    return skyline(data, pref, ids=dyn.ids, backend="python").ids


def check_cache_revision(service, before, report):
    """Every entry exact at the stamped version; counts = brute-force diff."""
    after = cached_entries(service)
    assert service.cache.version == report.version
    for key, ids in after.items():
        assert ids == python_skyline(service, key), key
    assert set(after) <= set(before)
    patched = sum(after[k] != before[k] for k in after)
    assert report.cache_patched == patched
    assert report.cache_invalidated == len(before) - len(after)
    assert report.cache_retained == len(after) - patched


@pytest.mark.parametrize("backend", available_backends())
class TestRefinementShortCircuit:
    @SETTINGS
    @given(st.data())
    def test_cached_answers_and_counts_stay_exact(self, backend, data):
        base = data.draw(rows)
        prefs = data.draw(st.lists(refining_preferences(), min_size=1,
                                   max_size=8))
        service = SkylineService(
            Dataset(SCHEMA, base), TEMPLATE, backend=backend,
            cache_capacity=64,
        )
        template_key = canonical_cache_key(SCHEMA, None, TEMPLATE)
        for batch in data.draw(insert_batches(base)):
            for pref in prefs:
                service.query(pref)
            before = cached_entries(service)
            report = service.insert_rows(batch)
            check_cache_revision(service, before, report)
            assert report.cache_invalidated == 0  # inserts never drop
            # Both maintainers stay exact although the template one only
            # saw the base skyline's entrants.
            assert service._maintainer.ids == python_skyline(
                service, template_key
            )
            assert service._base_maintainer.ids == python_skyline(
                service, ()
            )
            # Deletes: a template-skyline member and a random live row
            # (usually outside every cached answer).
            victims = {
                data.draw(st.sampled_from(service._maintainer.ids)),
                data.draw(st.sampled_from(service._dynamic.ids)),
            }
            if len(victims) == len(service._dynamic):
                continue
            for pref in prefs:
                service.query(pref)
            before = cached_entries(service)
            report = service.delete_rows(sorted(victims))
            check_cache_revision(service, before, report)
            assert report.cache_patched == 0  # deletes never patch
            assert service._maintainer.ids == python_skyline(
                service, template_key
            )


# -- 5. rank-matrix sweeps ---------------------------------------------------

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the rank matrix needs NumPy"
)


def matrix_for(slot_rows, pref):
    """A synced rank matrix plus the tuple-wise reference test."""
    data = Dataset(SCHEMA, slot_rows)
    table = RankTable.compile(SCHEMA, pref)
    matrix = RankMatrix(table, SCHEMA)
    matrix.sync(data.canonical_rows)
    return matrix, data.canonical_rows, table.dominates


def reference_dominated(rows, dominates, dominators, targets):
    return [any(dominates(rows[d], rows[t]) for d in dominators)
            for t in targets]


@needs_numpy
class TestRankMatrix:
    @SETTINGS
    @given(st.data())
    def test_sweeps_equal_tuplewise_dominance(self, data):
        slot_rows = data.draw(rows)
        matrix, canon, dominates = matrix_for(slot_rows, data.draw(preferences()))
        slots = range(len(slot_rows))
        targets = data.draw(st.lists(st.sampled_from(slots), max_size=12))
        ids = data.draw(st.lists(st.sampled_from(slots), max_size=12))
        assert matrix.dominators_exist(targets, ids) == reference_dominated(
            canon, dominates, ids, targets
        )
        assert matrix.dominated_by(ids, targets) == [
            t for t, hit in zip(
                targets, reference_dominated(canon, dominates, ids, targets)
            ) if hit
        ]
        assert matrix.shadowed_by(ids) == [
            s for s, hit in zip(
                slots, reference_dominated(canon, dominates, ids, slots)
            ) if hit
        ]

    def test_chunk_loop_runs_more_than_once(self):
        # 400 rows over tiny domains: heavy rank ties, distinct unlisted
        # A values (the preference lists only a0) and exact duplicates.
        rng = random.Random(3)
        slot_rows = [
            (rng.randrange(4), rng.randrange(4), rng.choice(DOMAIN_A),
             rng.choice(DOMAIN_B))
            for _ in range(400)
        ]
        matrix, canon, dominates = matrix_for(
            slot_rows, Preference({"A": "a0", "B": "b1 < b0"})
        )
        everything = list(range(len(slot_rows)))
        assert len(everything) ** 2 > 2 * RankMatrix.SWEEP_CELLS
        expected = reference_dominated(canon, dominates, everything, everything)
        assert any(expected) and not all(expected)
        assert matrix.dominators_exist(everything, everything) == expected
        assert matrix.shadowed_by(everything) == [
            s for s, hit in zip(everything, expected) if hit
        ]

    @SETTINGS
    @given(base=rows, extras=st.lists(row_strategy, min_size=1, max_size=8),
           pref=preferences(), data=st.data())
    def test_batches_equal_one_row_at_a_time(self, base, extras, pref, data):
        batched_data, batched = maintainer_for(base, pref, None)
        single_data, single = maintainer_for(base, pref, None)
        # Dead slots first: tombstoned rows must never re-enter.
        dead = data.draw(st.lists(st.sampled_from(range(len(base))),
                                  unique=True, max_size=len(base) // 2))
        for dyn in (batched_data, single_data):
            dyn.delete(dead)
        batched.delete(dead)
        for point_id in dead:
            single.delete([point_id])
        assert batched.ids == single.ids == batched.rebuild()

        new_ids = batched_data.append(extras)
        effect = batched.insert(new_ids)
        for point_id in single_data.append(extras):
            single.insert([point_id])
        assert batched.ids == single.ids == single.rebuild()
        assert set(effect.entered) <= set(new_ids)

        victims = data.draw(st.lists(st.sampled_from(batched_data.ids),
                                     unique=True, max_size=6))
        batched_data.delete(victims)
        single_data.delete(victims)
        batched.delete(victims)
        for point_id in victims:
            single.delete([point_id])
        assert batched.ids == single.ids == batched.rebuild()
