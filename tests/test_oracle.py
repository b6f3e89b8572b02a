"""The differential oracle: every algorithm x backend vs brute force.

One parametrized harness is the single correctness authority for the
skyline computation layer, replacing scattered pairwise equivalence
checks: ~50 seeded cases (randomized nominal datasets x randomized
implicit-preference partial orders), each evaluated by **every**
algorithm (bnl, sfs, sfs_d, dandc, bitmap, bbs, bruteforce) on
**every** available engine backend (python, numpy, bitset) and
compared against the brute-force result computed on the pure-Python
reference backend.

The brute-force/python pairing is the executable definition of the
paper's dominance semantics (Definition 3 over the partial orders of
Definition 2, unlisted values mutually incomparable); everything else
must agree with it exactly, as an id *set*.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import ALGORITHMS, SFSDirect
from repro.algorithms.bruteforce import bruteforce_skyline
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.datagen import SyntheticConfig, generate
from repro.datagen.queries import generate_preference
from repro.engine import get_backend, numpy_available
from repro.exceptions import EngineError

#: Backends under audit; unavailable ones are skipped per-environment
#: (the CI matrix runs the suite both with and without NumPy).
#: ``bitset-python`` is the bit-packed backend with its python-int
#: tier forced, so the fallback stays under the oracle even on
#: NumPy-equipped hosts.
BACKENDS = ("python", "numpy", "bitset", "bitset-python")

#: Algorithm names under audit (ALGORITHMS plus the SFS-D wrapper).
ALGORITHM_NAMES = tuple(sorted(ALGORITHMS)) + ("sfs_d",)

#: ~50 seeded cases: (dataset seed, preference seed, shape knobs).
CASES = [
    pytest.param(
        {
            "data_seed": data_seed,
            "pref_seed": 1000 * data_seed + variant,
            "num_points": 40 + 17 * (data_seed % 5),
            "num_numeric": 1 + (data_seed % 2),
            "num_nominal": 1 + (variant % 2) + (data_seed % 2),
            "cardinality": 3 + (data_seed % 4),
            "order": variant % 4,
            "distribution": ("anticorrelated", "independent", "correlated")[
                data_seed % 3
            ],
        },
        id=f"case{data_seed:02d}-{variant}",
    )
    for data_seed in range(10)
    for variant in range(5)
]


def _build_case(params):
    """Dataset + preference + reference answer for one seeded case."""
    data = generate(
        SyntheticConfig(
            num_points=params["num_points"],
            num_numeric=params["num_numeric"],
            num_nominal=params["num_nominal"],
            cardinality=params["cardinality"],
            distribution=params["distribution"],
            seed=params["data_seed"],
        )
    )
    rng = random.Random(params["pref_seed"])
    if params["order"] == 0:
        preference = None  # the empty partial order is a case too
    else:
        preference = generate_preference(
            data,
            params["order"],
            rng=rng,
            weighting="uniform" if params["pref_seed"] % 2 else "frequency",
        )
    table = RankTable.compile(data.schema, preference)
    reference = frozenset(
        bruteforce_skyline(
            data.canonical_rows,
            data.ids,
            table,
            backend=get_backend("python"),
        )
    )
    return data, preference, table, reference


def _make_backend(backend_name):
    """Instantiate one audited backend (may raise EngineError)."""
    if backend_name == "bitset-python":
        from repro.engine import make_bitset_backend

        return make_bitset_backend(packed="python")
    return get_backend(backend_name)


def _resolve(backend_name):
    """The backend instance, or a skip when its dependency is absent."""
    if backend_name in ("numpy",) and not numpy_available():
        pytest.skip("NumPy not installed")
    try:
        return _make_backend(backend_name)
    except EngineError as exc:  # pragma: no cover - environment dependent
        pytest.skip(str(exc))


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("params", CASES)
def test_every_algorithm_matches_bruteforce(params, backend_name):
    """All algorithms on this backend agree with the reference answer."""
    backend = _resolve(backend_name)
    data, preference, table, reference = _build_case(params)
    store = data.columns if backend.vectorized else None
    for name in sorted(ALGORITHMS):
        got = frozenset(
            ALGORITHMS[name](
                data.canonical_rows,
                data.ids,
                table,
                backend=backend,
                store=store,
            )
        )
        assert got == reference, (
            f"{name} on backend {backend_name!r} diverged from brute "
            f"force: extra={sorted(got - reference)}, "
            f"missing={sorted(reference - got)}"
        )
    sfs_d = frozenset(SFSDirect(data, backend=backend).query(preference))
    assert sfs_d == reference, (
        f"sfs_d on backend {backend_name!r} diverged from brute force: "
        f"extra={sorted(sfs_d - reference)}, "
        f"missing={sorted(reference - sfs_d)}"
    )


@pytest.mark.parametrize("params", CASES)
def test_bbs_matches_bruteforce(params):
    """BBS, pinned by name, agrees with the reference on every case.

    The matrix above already exercises ``bbs`` through the ALGORITHMS
    registry; this direct test keeps the spatial family (the R-tree +
    branch-and-bound pair) under the oracle even if the registry entry
    is ever reshuffled, and it is where the partial-order adaptation
    (rank ties never prune) earns its keep - the seeded cases include
    multi-nominal datasets full of incomparable unlisted values.
    """
    from repro.algorithms.bbs import bbs_skyline

    data, _preference, table, reference = _build_case(params)
    got = frozenset(
        bbs_skyline(data.canonical_rows, data.ids, table)
    )
    assert got == reference, (
        f"bbs diverged from brute force: "
        f"extra={sorted(got - reference)}, "
        f"missing={sorted(reference - got)}"
    )


@pytest.mark.parametrize("params", CASES[::5])
def test_rtree_invariants_on_oracle_rank_vectors(params):
    """The R-tree BBS searches is structurally sound on real rank data.

    Checked per seeded case, over the exact rank vectors BBS indexes:
    every payload appears exactly once, every point lies inside its
    leaf's MBR, every child MBR nests inside its parent's, and
    ``min_score`` (the heap key) is monotone - a child can never score
    below its parent, which is what makes the best-first pop order of
    the branch-and-bound sound.
    """
    from repro.spatial.rtree import bulk_load

    data, _preference, table, _reference = _build_case(params)
    items = [(table.rank_vector(data.canonical(i)), i) for i in data.ids]
    tree = bulk_load(items, capacity=4)
    assert tree.size == len(items)
    assert sorted(tree.all_payloads()) == sorted(i for _point, i in items)

    def check(node):
        assert node.min_score() == sum(node.mbr_min)
        if node.is_leaf:
            assert node.entries
            for point, _payload in node.entries:
                assert all(
                    lo <= x <= hi
                    for lo, x, hi in zip(node.mbr_min, point, node.mbr_max)
                )
        else:
            assert node.children
            for child in node.children:
                assert all(
                    plo <= clo and chi <= phi
                    for plo, clo, chi, phi in zip(
                        node.mbr_min, child.mbr_min,
                        child.mbr_max, node.mbr_max,
                    )
                )
                assert child.min_score() >= node.min_score()
                check(child)

    check(tree.root)


@pytest.mark.parametrize("params", CASES[::7])
def test_reference_is_backend_independent(params):
    """Brute force itself agrees across backends (anchors the oracle)."""
    data, _preference, table, reference = _build_case(params)
    for backend_name in BACKENDS:
        if backend_name == "numpy" and not numpy_available():
            continue
        backend = _make_backend(backend_name)
        store = data.columns if backend.vectorized else None
        got = frozenset(
            bruteforce_skyline(
                data.canonical_rows,
                data.ids,
                table,
                backend=backend,
                store=store,
            )
        )
        assert got == reference
