"""Ablation benchmarks for the implementation choices of the structures.

Not figures of the paper - these quantify the implementation-level
alternatives the paper sketches in prose:

* MDC-based vs direct (skyline-per-node) IPO-tree construction
  (Section 3.1 "Implementation"),
* set vs bitmap node payloads at query time (Section 3.2's "another
  efficient implementation ... efficient bitwise operations"),
* the affected-window SFS-A scan vs the plain full re-scan
  (Section 4.2's optimised last step),
* hybrid routing overhead vs querying the components directly.
"""

import pytest

from benchmarks.conftest import synthetic_bundle
from repro.hybrid.hybrid import HybridIndex
from repro.ipo.tree import IPOTree


def _bundle():
    return synthetic_bundle(
        num_points=1000, cardinality=8, ipo_k=4, order=3
    )


def bench_construction_mdc(benchmark):
    bundle = _bundle()
    benchmark.pedantic(
        lambda: IPOTree.build(bundle.dataset, bundle.template, engine="mdc"),
        rounds=1,
        iterations=1,
    )


def bench_construction_direct(benchmark):
    bundle = _bundle()
    benchmark.pedantic(
        lambda: IPOTree.build(
            bundle.dataset, bundle.template, engine="direct"
        ),
        rounds=1,
        iterations=1,
    )


def bench_query_payload_set(benchmark):
    bundle = _bundle()
    benchmark(bundle.tree.query, bundle.preference())


def bench_query_payload_bitmap(benchmark):
    bundle = _bundle()
    bitmap_tree = IPOTree.build(
        bundle.dataset, bundle.template, engine="mdc", payload="bitmap"
    )
    benchmark(bitmap_tree.query, bundle.preference())


def bench_sfs_a_window_scan(benchmark):
    bundle = _bundle()
    benchmark(bundle.adaptive.query, bundle.preference())


def bench_sfs_a_full_scan(benchmark):
    bundle = _bundle()
    benchmark(bundle.adaptive.query_scan, bundle.preference())


def bench_hybrid_routing(benchmark):
    bundle = _bundle()
    hybrid = HybridIndex(
        bundle.dataset, bundle.template, values_per_attribute=4
    )
    benchmark(hybrid.query, bundle.preference())


def bench_query_mdc_filter(benchmark):
    """The no-materialisation MDC evaluator ([21]-style) on the same query."""
    from repro.mdc.filter import MDCFilter

    bundle = _bundle()
    index = MDCFilter(bundle.dataset, bundle.template)
    benchmark(index.query, bundle.preference())


def bench_construction_mdc_filter(benchmark):
    from repro.mdc.filter import MDCFilter

    bundle = _bundle()
    benchmark.pedantic(
        lambda: MDCFilter(bundle.dataset, bundle.template),
        rounds=1,
        iterations=1,
    )


def bench_construction_full_materialisation(benchmark):
    """Section 3's strawman at a deliberately tiny parameterisation.

    Even at c=4/m'=2/order<=2 the enumeration dwarfs the IPO-tree; the
    measured build time and entry count make the paper's dismissal
    concrete.
    """
    from repro.materialize.full import FullMaterialization

    small = synthetic_bundle(
        num_points=500, cardinality=4, ipo_k=4, order=2
    )
    result = {}

    def build():
        index = FullMaterialization(small.dataset, max_order=2)
        result["entries"] = index.num_entries
        return index

    benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["materialised_entries"] = result["entries"]
