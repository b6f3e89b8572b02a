"""Batched evaluation: positional answers, dedup, cache interplay."""

from __future__ import annotations

import pytest

from repro.core.preferences import Preference
from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.datagen.queries import generate_preferences
from repro.serve.driver import replay
from repro.serve.service import BatchReport, SkylineService


@pytest.fixture(scope="module")
def dataset():
    return generate(
        SyntheticConfig(
            num_points=600,
            num_numeric=2,
            num_nominal=2,
            cardinality=5,
            seed=13,
        )
    )


@pytest.fixture(scope="module")
def template(dataset):
    return frequent_value_template(dataset)


def fresh_service(dataset, template, **kwargs) -> SkylineService:
    kwargs.setdefault("cache_capacity", 32)
    return SkylineService(dataset, template, **kwargs)


def sample_preferences(dataset, template, n=10, seed=3):
    return generate_preferences(
        dataset, 2, n, template=template, seed=seed
    )


class TestBatchAnswers:
    def test_positional_equivalence_with_sequential(self, dataset, template):
        service = fresh_service(dataset, template)
        prefs = sample_preferences(dataset, template) + [
            None,
            Preference.empty(),
        ]
        expected = [
            service.query(p, use_cache=False).ids for p in prefs
        ]
        batch = service.evaluate_batch(prefs, use_cache=False)
        assert [r.ids for r in batch] == expected

    def test_duplicates_share_one_execution(self, dataset, template):
        service = fresh_service(dataset, template)
        prefs = sample_preferences(dataset, template, n=4)
        stream = prefs * 3  # every query three times
        report = service.submit_batch(stream, use_cache=False)
        assert isinstance(report, BatchReport)
        assert report.unique_queries == 4
        assert report.duplicate_queries == 8
        assert report.executed_queries == 4
        routes = [r.route for r in report.results]
        assert routes.count("batch") == 8
        # Duplicates carry the identical answer.
        for result in report.results:
            first = next(
                r for r in report.results if r.key == result.key
            )
            assert result.ids == first.ids

    def test_aliased_spellings_deduplicate(self, dataset, template):
        # A full-domain chain and its dropped-tail prefix are the same
        # partial order; canonicalizing up front must merge them.
        name = dataset.schema.nominal_names[0]
        domain = dataset.schema.spec(name).domain
        full = Preference({name: tuple(domain)})
        prefix = Preference({name: tuple(domain[:-1])})
        service = fresh_service(dataset, template=None)
        report = service.submit_batch([full, prefix], use_cache=False)
        assert report.unique_queries == 1
        assert report.duplicate_queries == 1
        assert report.results[0].ids == report.results[1].ids


class TestBatchCacheInterplay:
    def test_second_batch_is_all_cache_hits(self, dataset, template):
        service = fresh_service(dataset, template)
        prefs = sample_preferences(dataset, template, n=6)
        first = service.submit_batch(prefs)
        assert first.cache_hits == 0
        second = service.submit_batch(prefs)
        assert second.cache_hits == 6
        assert [r.ids for r in first.results] == [
            r.ids for r in second.results
        ]
        assert all(r.route == "cache" for r in second.results)

    def test_one_lookup_per_unique_key(self, dataset, template):
        service = fresh_service(dataset, template)
        prefs = sample_preferences(dataset, template, n=3) * 4
        service.submit_batch(prefs)
        stats = service.stats()
        # 3 unique keys -> 3 misses, no matter how many duplicates.
        assert stats.cache.misses == 3
        assert stats.cache.hits == 0

    def test_use_cache_false_records_bypass_per_unique(
        self, dataset, template
    ):
        service = fresh_service(dataset, template)
        prefs = sample_preferences(dataset, template, n=5) * 2
        service.submit_batch(prefs, use_cache=False)
        stats = service.stats()
        assert stats.cache.bypasses == 5
        assert stats.cache.lookups == 0

    def test_batch_counts_in_service_stats(self, dataset, template):
        service = fresh_service(dataset, template)
        prefs = sample_preferences(dataset, template, n=2) * 3
        service.submit_batch(prefs, use_cache=False)
        stats = service.stats()
        assert stats.queries == 6
        assert stats.route_counts.get("batch") == 4


class TestForcedRouteBatches:
    def test_forced_route_is_never_served_from_cache(self, dataset, template):
        # Mirrors query()'s contract: a configured forced route must
        # actually execute, even for keys the cache already holds.
        from repro.serve.planner import PlannerConfig

        prefs = sample_preferences(dataset, template, n=4)
        warm = fresh_service(dataset, template)
        forced = fresh_service(
            dataset,
            template,
            planner_config=PlannerConfig(forced_route="kernel"),
        )
        forced.submit_batch(prefs)  # warm the cache
        report = forced.submit_batch(prefs)
        assert all(r.route == "kernel" for r in report.results)
        assert report.cache_hits == 0
        expected = [warm.query(p, use_cache=False).ids for p in prefs]
        assert [r.ids for r in report.results] == expected

    def test_forced_answers_still_stored_for_planned_queries(
        self, dataset, template
    ):
        from repro.serve.planner import PlannerConfig

        pref = sample_preferences(dataset, template, n=1)[0]
        service = fresh_service(dataset, template)
        service.planner.config = PlannerConfig(forced_route="kernel")
        service.submit_batch([pref])
        service.planner.config = PlannerConfig()
        follow_up = service.query(pref)
        assert follow_up.cached and follow_up.route == "cache"


class TestBatchedReplay:
    def test_driver_batch_mode_matches_routes(self, dataset, template):
        service = fresh_service(dataset, template)
        prefs = sample_preferences(dataset, template, n=8) * 2
        report = replay(
            service,
            prefs,
            name="batched",
            concurrency=2,
            batch_size=4,
            use_cache=False,
        )
        assert report.queries == 16
        assert sum(report.route_counts.values()) == 16
        assert report.throughput_qps > 0

    def test_batch_size_validation(self, dataset, template):
        service = fresh_service(dataset, template)
        with pytest.raises(ValueError):
            replay(service, [], batch_size=0)
