"""Planner decision rules: each route forced via its signals."""

from __future__ import annotations

import pytest

from repro.core.preferences import Preference
from repro.datagen.generator import SyntheticConfig, generate
from repro.exceptions import ReproError
from repro.net.config import ConfigError, ServerConfig
from repro.serve.planner import Planner, PlannerConfig, PlanSignals, ROUTES
from repro.serve.service import SkylineService


def signals(**overrides) -> PlanSignals:
    """A fully-equipped service's signals; override per test."""
    base = dict(
        dataset_rows=5000,
        preference_order=2,
        tree_available=True,
        tree_covers_query=True,
        adaptive_available=True,
        affected_members=5,
        template_skyline_size=100,
        mdc_available=True,
        backend_vectorized=False,
    )
    base.update(overrides)
    return PlanSignals(**base)


class TestDecisionRules:
    def test_small_dataset_routes_to_kernel(self):
        plan = Planner().plan(signals(dataset_rows=10))
        assert plan.route == "kernel"
        assert "10 rows" in plan.reason

    def test_covered_query_routes_to_tree(self):
        plan = Planner().plan(signals())
        assert plan.route == "ipo"

    def test_uncovered_query_skips_tree(self):
        plan = Planner().plan(signals(tree_covers_query=False))
        assert plan.route == "adaptive"

    def test_few_affected_members_routes_to_adaptive(self):
        plan = Planner().plan(
            signals(tree_available=False, affected_members=10)
        )
        assert plan.route == "adaptive"

    def test_many_affected_members_routes_to_mdc(self):
        plan = Planner().plan(
            signals(tree_available=False, affected_members=80)
        )
        assert plan.route == "mdc"

    def test_affected_threshold_is_configurable(self):
        lenient = Planner(PlannerConfig(max_affected_fraction=1.0))
        strict = Planner(PlannerConfig(max_affected_fraction=0.0))
        sig = signals(tree_available=False, affected_members=80)
        assert lenient.plan(sig).route == "adaptive"
        assert strict.plan(sig).route == "mdc"

    def test_adaptive_fallback_without_mdc(self):
        plan = Planner().plan(
            signals(
                tree_available=False,
                mdc_available=False,
                affected_members=80,
            )
        )
        assert plan.route == "adaptive"

    def test_kernel_when_nothing_available(self):
        plan = Planner().plan(
            signals(
                tree_available=False,
                adaptive_available=False,
                mdc_available=False,
            )
        )
        assert plan.route == "kernel"

    def test_forced_route_wins(self):
        for route in ROUTES:
            plan = Planner(PlannerConfig(forced_route=route)).plan(signals())
            assert plan.route == route
            assert "forced" in plan.reason

    def test_empty_template_skyline_counts_as_unaffected(self):
        sig = signals(
            tree_available=False, affected_members=0, template_skyline_size=0
        )
        assert sig.affected_fraction == 0.0
        assert Planner().plan(sig).route == "adaptive"


def bare_scan_signals(**overrides) -> PlanSignals:
    """No auxiliary structure: the planner must pick a base-data scan."""
    base = dict(
        tree_available=False,
        tree_covers_query=False,
        adaptive_available=False,
        affected_members=0,
        mdc_available=False,
        backend_vectorized=True,
        dataset_rows=200_000,
        dimensions=6,
    )
    base.update(overrides)
    return signals(**base)


class TestRetiredParallelRoute:
    """``"parallel"`` survives only as a label in ROUTES: no rule emits
    it, no service offers it and old configs naming its knobs fail."""

    def test_million_row_scan_without_bitset_plans_kernel(self):
        plan = Planner().plan(
            bare_scan_signals(dataset_rows=1_000_000, bitset_available=False)
        )
        assert plan.route == "kernel"

    def test_forcing_parallel_is_an_unknown_route(self):
        service = SkylineService(
            generate(SyntheticConfig(num_points=200, seed=5)),
            cache_capacity=0,
        )
        assert "parallel" not in service.available_routes()
        with pytest.raises(ReproError, match="unknown route 'parallel'"):
            service.query(None, route="parallel")

    def test_old_planner_override_fails_config_load(self):
        with pytest.raises(ConfigError, match="parallel_min_rows"):
            ServerConfig(planner={"parallel_min_rows": 10000})

    def test_documented_planner_override_loads(self):
        config = ServerConfig(planner={"bitset_min_rows": 50000})
        assert config.planner_config().bitset_min_rows == 50000


class TestConfigValidation:
    def test_unknown_forced_route_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(forced_route="teleport")

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            PlannerConfig(max_affected_fraction=1.5)

    def test_negative_small_dataset_rows(self):
        with pytest.raises(ValueError):
            PlannerConfig(small_dataset_rows=-1)


class TestEndToEndRouting:
    """The service's signal gathering drives the expected routes."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate(
            SyntheticConfig(
                num_points=400,
                num_numeric=2,
                num_nominal=2,
                cardinality=6,
                seed=3,
            )
        )

    def test_tiny_dataset_served_by_kernel(self, vacation_data):
        service = SkylineService(vacation_data, cache_capacity=0)
        result = service.query(Preference({"Hotel-group": "T < *"}))
        assert result.route == "kernel"

    def test_covered_query_served_by_tree(self, dataset):
        service = SkylineService(dataset, cache_capacity=0)
        result = service.query()
        assert result.route == "ipo"

    def test_truncated_tree_falls_back(self, dataset):
        # IPO Tree-1 materialises one value per dimension: a query on a
        # rare value cannot be answered by lookup.
        service = SkylineService(dataset, ipo_k=1, cache_capacity=0)
        rare = dataset.most_frequent("nom0", 6)[-1]
        result = service.query(Preference({"nom0": (rare,)}))
        assert result.route in ("adaptive", "mdc")

    def test_routes_disabled_structures_never_chosen(self, dataset):
        service = SkylineService(
            dataset,
            with_tree=False,
            with_adaptive=False,
            with_mdc=False,
            cache_capacity=0,
        )
        expected = (
            ("bitset", "kernel") if service.bitset is not None else ("kernel",)
        )
        assert service.available_routes() == expected
        result = service.query(Preference({"nom0": "d0_v0 < *"}))
        # 300 rows sit far below bitset_min_rows, so the planner still
        # picks the plain kernel even though the route is available.
        assert result.route == "kernel"

    def test_large_scan_routes_to_bitset_when_available(self, dataset):
        # Lowered threshold stands in for a 100k+ dataset; with no
        # auxiliary structures the scan regime picks the packed kernel.
        service = SkylineService(
            dataset,
            planner_config=PlannerConfig(bitset_min_rows=100),
            with_tree=False,
            with_adaptive=False,
            with_mdc=False,
            cache_capacity=0,
        )
        if service.bitset is None:
            pytest.skip("vectorized bitset tier unavailable (no NumPy)")
        result = service.query(Preference({"nom0": "d0_v0 < *"}))
        assert result.route == "bitset"
        kernel = service.query(
            Preference({"nom0": "d0_v0 < *"}), use_cache=False,
            route="kernel",
        )
        assert result.ids == kernel.ids

    def test_plan_reason_is_surfaced(self, dataset):
        service = SkylineService(dataset, cache_capacity=0)
        result = service.query()
        assert result.reason


class TestTreeAutoBuild:
    def test_huge_tree_estimate_skips_build(self):
        dataset = generate(
            SyntheticConfig(
                num_points=200,
                num_numeric=1,
                num_nominal=3,
                cardinality=10,
                seed=1,
            )
        )
        service = SkylineService(
            dataset, max_tree_nodes=100, cache_capacity=0
        )
        assert service.tree is None
        assert "ipo" not in service.available_routes()

    def test_forced_build_overrides_estimate(self, vacation_data):
        service = SkylineService(
            vacation_data, with_tree=True, max_tree_nodes=0, cache_capacity=0
        )
        assert service.tree is not None


class TestIncrementalGate:
    """The churn gate routing to the maintained template skyline."""

    def test_churn_heavy_routes_to_incremental(self):
        plan = Planner().plan(
            signals(incremental_available=True, update_query_ratio=0.5)
        )
        assert plan.route == "incremental"
        assert "churn-heavy" in plan.reason

    def test_low_churn_keeps_index_routes(self):
        plan = Planner().plan(
            signals(incremental_available=True, update_query_ratio=0.1)
        )
        assert plan.route == "ipo"

    def test_requires_a_maintainer(self):
        plan = Planner().plan(
            signals(incremental_available=False, update_query_ratio=9.0)
        )
        assert plan.route == "ipo"

    def test_tiny_datasets_still_go_to_kernel(self):
        plan = Planner().plan(
            signals(
                dataset_rows=10,
                incremental_available=True,
                update_query_ratio=9.0,
            )
        )
        assert plan.route == "kernel"

    def test_ratio_threshold_configurable(self):
        eager = Planner(PlannerConfig(incremental_update_ratio=0.0))
        sig = signals(incremental_available=True, update_query_ratio=0.0)
        assert eager.plan(sig).route == "incremental"
        with pytest.raises(ValueError):
            PlannerConfig(incremental_update_ratio=-0.1)

    def test_incremental_is_a_known_route(self):
        assert "incremental" in ROUTES
        assert PlannerConfig(forced_route="incremental").forced_route == \
            "incremental"
