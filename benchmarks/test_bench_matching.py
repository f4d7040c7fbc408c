"""Benchmark P2: matcher scaling and matcher-strategy comparison.

Shape claims measured here:

* the production matcher (most-constrained-first + adjacency pruning)
  beats the naive enumerate-then-check matcher, increasingly so as the
  instance grows — the naive matcher is the baseline that motivates
  pattern-driven candidate propagation;
* anchored patterns (a constant in the pattern) match in near-constant
  time regardless of instance size, thanks to the print index.
"""

import random

import pytest

from repro.core import Pattern, count_matchings, find_matchings
from repro.hypermedia import build_scheme
from repro.testing import find_matchings_naive
from repro.workloads import scale_free_instance


def linked_pattern(scheme, hops):
    pattern = Pattern(scheme)
    nodes = [pattern.node("Info") for _ in range(hops + 1)]
    for left, right in zip(nodes, nodes[1:]):
        pattern.edge(left, "links-to", right)
    return pattern


@pytest.mark.parametrize("n_nodes", [50, 200, 800])
def test_two_hop_pattern_scaling(benchmark, n_nodes):
    scheme = build_scheme()
    rng = random.Random(7)
    instance, _ = scale_free_instance(rng, scheme, n_nodes)
    pattern = linked_pattern(scheme, hops=2)
    count = benchmark(lambda: count_matchings(pattern, instance))
    assert count > 0


@pytest.mark.parametrize("hops", [1, 3, 5])
def test_pattern_size_scaling(benchmark, hops):
    scheme = build_scheme()
    rng = random.Random(7)
    instance, _ = scale_free_instance(rng, scheme, 300)
    pattern = linked_pattern(scheme, hops)
    count = benchmark(lambda: count_matchings(pattern, instance))
    assert count >= 0


@pytest.mark.parametrize("matcher", ["ordered", "naive"])
def test_matcher_strategies(benchmark, matcher):
    """Who wins: the ordered matcher should beat naive by a growing
    factor (naive enumerates label-candidates blindly)."""
    scheme = build_scheme()
    rng = random.Random(7)
    instance, nodes = scale_free_instance(rng, scheme, 120)
    # anchor the pattern with a name so naive has a fighting chance
    anchored = nodes[0]
    instance.add_edge(anchored, "name", instance.printable("String", "root"))
    pattern = Pattern(scheme)
    a = pattern.node("Info")
    b = pattern.node("Info")
    c = pattern.node("Info")
    pattern.edge(a, "name", pattern.node("String", "root"))
    pattern.edge(b, "links-to", a)
    pattern.edge(c, "links-to", b)
    finder = find_matchings if matcher == "ordered" else find_matchings_naive
    result = benchmark(lambda: sum(1 for _ in finder(pattern, instance)))
    assert result == sum(1 for _ in find_matchings(pattern, instance))


@pytest.mark.parametrize("n_nodes", [100, 400, 1600])
def test_anchored_pattern_constant_time(benchmark, n_nodes):
    """A constant in the pattern pins the search: near-flat scaling."""
    scheme = build_scheme()
    rng = random.Random(7)
    instance, nodes = scale_free_instance(rng, scheme, n_nodes)
    special = nodes[n_nodes // 2]
    instance.add_edge(special, "name", instance.printable("String", "needle"))
    pattern = Pattern(scheme)
    info = pattern.node("Info")
    target = pattern.node("Info")
    pattern.edge(info, "name", pattern.node("String", "needle"))
    pattern.edge(info, "links-to", target)
    count = benchmark(lambda: count_matchings(pattern, instance))
    assert count == len(instance.out_neighbours(special, "links-to"))
