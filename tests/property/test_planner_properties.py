"""Property tests for the cost-based planner (repro.plan).

Three guarantees:

* the planner-backed executor, the backtracking matcher and the naive
  oracle enumerate *identical* matching sets on random patterns;
* the planner is deterministic — same pattern, same instance, same
  plan text and same enumeration order;
* the graph store's incremental cardinality statistics stay *exact*
  under arbitrary add/remove interleavings (they are what plans cost
  against, so drift would silently degrade every future plan).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan import compile_plan, execute_plan, plan_for, planned_matchings
from repro.testing import find_matchings_backtracking, find_matchings_naive

from tests.property.strategies import instances_with_patterns, seeds

SETTINGS = settings(max_examples=60, deadline=None)


def canonical(matchings):
    return sorted(tuple(sorted(m.items())) for m in matchings)


@given(instances_with_patterns())
@SETTINGS
def test_planner_equals_backtracking_equals_naive(data):
    scheme, instance, pattern = data
    planned = canonical(planned_matchings(pattern, instance))
    backtracked = canonical(find_matchings_backtracking(pattern, instance))
    naive = canonical(find_matchings_naive(pattern, instance))
    assert planned == backtracked == naive


@given(instances_with_patterns())
@SETTINGS
def test_planner_is_deterministic(data):
    scheme, instance, pattern = data
    first_plan = compile_plan(pattern, instance)
    second_plan = compile_plan(pattern, instance)
    assert first_plan.explain() == second_plan.explain()
    first = [tuple(sorted(m.items())) for m in execute_plan(first_plan, pattern, instance)]
    second = [tuple(sorted(m.items())) for m in execute_plan(second_plan, pattern, instance)]
    assert first == second
    assert len(first) == len(set(first))


@given(instances_with_patterns())
@SETTINGS
def test_cached_plans_answer_like_fresh_plans(data):
    scheme, instance, pattern = data
    fresh = canonical(execute_plan(compile_plan(pattern, instance), pattern, instance))
    plan_for(pattern, instance)  # populate
    cached_plan, hit = plan_for(pattern, instance)
    assert canonical(execute_plan(cached_plan, pattern, instance)) == fresh


@given(instances_with_patterns(), seeds)
@SETTINGS
def test_fixed_planned_matchings_agree_with_oracle(data, seed):
    scheme, instance, pattern = data
    nodes = sorted(pattern.nodes())
    if not nodes or instance.node_count == 0:
        return
    rng = random.Random(seed)
    fixed_node = rng.choice(nodes)
    target = rng.choice(sorted(instance.nodes()))
    fixed = {fixed_node: target}
    planned = canonical(planned_matchings(pattern, instance, fixed=fixed))
    backtracked = canonical(find_matchings_backtracking(pattern, instance, fixed=fixed))
    assert planned == backtracked


@given(seeds, st.integers(min_value=1, max_value=40))
@SETTINGS
def test_statistics_stay_exact_under_mutation(seed, steps):
    """Interleave random node/edge adds and removes, then recompute the
    cardinality statistics from scratch and compare with the store's
    incrementally maintained ones."""
    from repro.graph import GraphStore

    rng = random.Random(seed)
    store = GraphStore()
    labels = ["A", "B", "C"]
    edge_labels = ["e", "f"]
    epoch = store.stats_epoch
    for _ in range(steps):
        action = rng.random()
        nodes = sorted(store.nodes())
        if action < 0.4 or len(nodes) < 2:
            store.add_node(rng.choice(labels))
        elif action < 0.7:
            source, target = rng.choice(nodes), rng.choice(nodes)
            store.add_edge(source, rng.choice(edge_labels), target)
        elif action < 0.85:
            victim = rng.choice(nodes)
            store.remove_node(victim)
        else:
            edges = list(store.edges())
            if edges:
                edge = rng.choice(edges)
                store.remove_edge(edge.source, edge.label, edge.target)
        assert store.stats_epoch >= epoch
        epoch = store.stats_epoch

    # recompute every statistic from first principles
    expected_by_edge_label = {}
    expected_out = {}
    expected_in = {}
    for edge in store.edges():
        expected_by_edge_label.setdefault(edge.label, set()).add((edge.source, edge.target))
        out_key = (store.label_of(edge.source), edge.label)
        expected_out[out_key] = expected_out.get(out_key, 0) + 1
        in_key = (store.label_of(edge.target), edge.label)
        expected_in[in_key] = expected_in.get(in_key, 0) + 1

    assert store.edge_labels_in_use() == frozenset(expected_by_edge_label)
    for label, pairs in expected_by_edge_label.items():
        assert store.edges_with_label(label) == frozenset(pairs)
        assert store.edge_label_count(label) == len(pairs)
    for label in labels:
        expected = sum(1 for n in store.nodes() if store.label_of(n) == label)
        assert store.label_count(label) == expected
        for edge_label in edge_labels:
            assert store.out_degree_total(label, edge_label) == expected_out.get(
                (label, edge_label), 0
            )
            assert store.in_degree_total(label, edge_label) == expected_in.get(
                (label, edge_label), 0
            )
