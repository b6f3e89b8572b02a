"""Unit tests for the skyline algorithms: SFS and the brute-force oracle."""

import pytest

from repro.algorithms import ALGORITHMS, bruteforce_skyline
from repro.algorithms.sfs import sfs_scan, sort_by_score
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import Preference
from repro.core.skyline import skyline
from repro.datagen.generator import SyntheticConfig, generate
from repro.exceptions import ReproError

ALL_NAMES = sorted(ALGORITHMS)


def _table(dataset, preference=None):
    return RankTable.compile(dataset.schema, preference)


class TestAgainstPaperTable2:
    """Every algorithm must reproduce the customers' skylines."""

    CASES = [
        (Preference({"Hotel-group": "T < M < *"}), {0, 2}),  # Alice
        (None, {0, 2, 4, 5}),  # Bob
        (Preference({"Hotel-group": "H < M < *"}), {0, 2, 4}),  # Chris
        (Preference({"Hotel-group": "H < M < T"}), {0, 2, 4}),  # David
        (Preference({"Hotel-group": "H < T < *"}), {0, 2}),  # Emily
        (Preference({"Hotel-group": "M < *"}), {0, 2, 4, 5}),  # Fred
    ]

    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_customer_skylines(self, vacation_data, algorithm, case):
        preference, expected = self.CASES[case]
        table = _table(vacation_data, preference)
        result = ALGORITHMS[algorithm](
            vacation_data.canonical_rows, vacation_data.ids, table
        )
        assert set(result) == expected


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("distribution", ["independent", "correlated", "anticorrelated"])
    @pytest.mark.parametrize("algorithm", ["sfs"])
    def test_matches_bruteforce_on_synthetic(self, distribution, algorithm):
        data = generate(
            SyntheticConfig(
                num_points=200,
                num_numeric=2,
                num_nominal=2,
                cardinality=4,
                distribution=distribution,
                seed=7,
            )
        )
        pref = Preference({"nom0": ["d0_v1", "d0_v0"], "nom1": ["d1_v2"]})
        table = _table(data, pref)
        truth = set(
            bruteforce_skyline(data.canonical_rows, data.ids, table)
        )
        got = set(
            ALGORITHMS[algorithm](data.canonical_rows, data.ids, table)
        )
        assert got == truth

    def test_empty_input(self, vacation_data):
        table = _table(vacation_data)
        for name in ALL_NAMES:
            assert ALGORITHMS[name](vacation_data.canonical_rows, [], table) == []

    def test_single_point(self, vacation_data):
        table = _table(vacation_data)
        for name in ALL_NAMES:
            assert ALGORITHMS[name](
                vacation_data.canonical_rows, [3], table
            ) == [3]

    def test_all_duplicates_survive(self, vacation_schema):
        data = Dataset(vacation_schema, [(1, 5, "T")] * 4)
        table = _table(data)
        for name in ALL_NAMES:
            assert sorted(
                ALGORITHMS[name](data.canonical_rows, data.ids, table)
            ) == [0, 1, 2, 3]

    def test_subset_ids_only(self, vacation_data):
        # Restricting to {b, d, f}: b dominates nothing here; d vs f and
        # b vs d/f are nominal-incomparable without preferences; b vs d:
        # 2400<3600 price, 1<4 class -> incomparable. All three survive?
        # b=(2400,1,T) d=(3600,4,H) f=(3000,3,M): pairwise incomparable.
        table = _table(vacation_data)
        for name in ALL_NAMES:
            assert sorted(
                ALGORITHMS[name](vacation_data.canonical_rows, [1, 3, 5], table)
            ) == [1, 3, 5]


class TestSFSInternals:
    def test_sort_by_score_is_monotone_visit_order(self, small_synthetic):
        table = _table(small_synthetic)
        order = sort_by_score(
            small_synthetic.canonical_rows, small_synthetic.ids, table
        )
        scores = [table.score(small_synthetic.canonical(i)) for i in order]
        assert scores == sorted(scores)

    def test_sfs_scan_is_progressive(self, small_synthetic):
        """Every prefix of the scan output is a subset of the skyline."""
        table = _table(small_synthetic)
        rows = small_synthetic.canonical_rows
        truth = set(bruteforce_skyline(rows, small_synthetic.ids, table))
        seen = []
        for point_id in sfs_scan(
            rows, sort_by_score(rows, small_synthetic.ids, table), table
        ):
            seen.append(point_id)
            assert point_id in truth
        assert set(seen) == truth


class TestSkylineDispatch:
    def test_unknown_algorithm_raises(self, vacation_data):
        # Deleted algorithm names get no alias.
        for name in ("quantum", "bnl"):
            with pytest.raises(ReproError):
                skyline(vacation_data, algorithm=name)

    def test_result_container(self, vacation_data):
        result = skyline(vacation_data)
        assert len(result) == 4
        assert 0 in result
        assert 1 not in result
        assert result.rows()[0] == (1600, 4, "T")
        assert result.to_set() == frozenset({0, 2, 4, 5})
        assert list(iter(result)) == sorted(result.ids)

    def test_ids_restriction(self, vacation_data):
        result = skyline(vacation_data, ids=[1, 3, 5])
        assert result.ids == (1, 3, 5)

    def test_template_applies(self, vacation_data):
        template = Preference({"Hotel-group": "H < *"})
        result = skyline(vacation_data, template=template)
        assert set(result.ids) == {0, 2, 4}  # Chris-like first-order H<*?
        # H < * disqualifies f (dominated by c via H<M) but keeps e?
        # e=(2400,2,M): a dominates on numerics but T vs M incomparable;
        # c=(3000,5,H) vs e: price worse. e stays.
