"""Unit tests for the worst-case-optimal join layer.

Covers the sorted-adjacency CSR indexes (:mod:`repro.graph.adjacency`),
the galloping k-way intersection (:mod:`repro.plan.leapfrog`), the
cyclicity/density strategy routing (:mod:`repro.plan.planner`), the
compiled multiway runner against the step interpreter, seeded runners,
delta sorted-view memoization and MVCC index sharing.
"""

import random
from array import array

import pytest

from repro.core import Instance, Pattern, Scheme, counters
from repro.graph.adjacency import EMPTY_SET, EMPTY_VIEW, AdjacencyIndex, SpanSets
from repro.graph.store import Delta, GraphStore
from repro.plan import (
    MULTIWAY_MIN_FANOUT,
    MultiwayIntersect,
    ScanNodes,
    choose_strategy,
    compile_plan,
    execute_plan,
    gallop,
    intersect_sorted,
    pattern_is_cyclic,
    plan_for,
    planned_matchings,
)
from repro.plan import executor as executor_module
from repro.plan.executor import seeded_runner
from repro.testing import find_matchings_backtracking, interpret_plan


def graph_scheme() -> Scheme:
    scheme = Scheme()
    scheme.declare("N", "e", "N", functional=False)
    return scheme


def dense_instance(n: int = 24, degree: int = 6, seed: int = 7) -> Instance:
    """A random multigraph dense enough to clear MULTIWAY_MIN_FANOUT."""
    rng = random.Random(seed)
    db = Instance(graph_scheme())
    nodes = [db.add_object("N") for _ in range(n)]
    for source in nodes:
        for target in rng.sample(nodes, degree):
            db.add_edge(source, "e", target)
    return db


def triangle_pattern(scheme: Scheme):
    pattern = Pattern(scheme)
    x = pattern.node("N")
    y = pattern.node("N")
    z = pattern.node("N")
    pattern.edge(x, "e", y)
    pattern.edge(y, "e", z)
    pattern.edge(x, "e", z)
    return pattern, (x, y, z)


def canonical(matchings):
    return sorted(tuple(sorted(m.items())) for m in matchings)


# ----------------------------------------------------------------------
# galloping intersection
# ----------------------------------------------------------------------
def test_gallop_finds_first_position_not_below_key():
    values = array("q", [2, 4, 4, 8, 16, 32])
    assert gallop(values, 4, 0, len(values)) == 1
    assert gallop(values, 5, 0, len(values)) == 3
    assert gallop(values, 1, 0, len(values)) == 0
    assert gallop(values, 33, 0, len(values)) == len(values)


def test_intersect_sorted_basics():
    a = array("q", [1, 3, 5, 7, 9])
    b = array("q", [3, 4, 5, 9, 12])
    c = array("q", [0, 3, 9])
    result, seeks = intersect_sorted([a, b, c])
    assert result == [3, 9]
    assert seeks > 0


def test_intersect_sorted_empty_operand_short_circuits():
    result, _ = intersect_sorted([array("q", [1, 2, 3]), array("q")])
    assert result == []


def test_intersect_sorted_singletons():
    one = array("q", [5])
    assert intersect_sorted([one, array("q", [1, 5, 9])])[0] == [5]
    assert intersect_sorted([one, array("q", [1, 9])])[0] == []
    assert intersect_sorted([one])[0] == [5]


# ----------------------------------------------------------------------
# sorted-adjacency CSR indexes
# ----------------------------------------------------------------------
def test_adjacency_index_spans_are_sorted_and_duplicate_free():
    index = AdjacencyIndex("e", [(2, 9), (1, 5), (2, 3), (1, 7), (2, 6)], epoch=0)
    assert list(index.targets_of(2)) == [3, 6, 9]
    assert list(index.targets_of(1)) == [5, 7]
    assert list(index.sources_of(5)) == [1]
    assert list(index.targets_of(99)) == []
    assert index.targets_of(99) is EMPTY_VIEW
    assert len(index) == 5
    assert list(index.sources()) == [1, 2]
    assert index.has_pair(2, 6) and not index.has_pair(2, 5)


def test_empty_label_builds_an_empty_index():
    store = GraphStore()
    index = store.sorted_adjacency("never-used")
    assert len(index) == 0
    assert list(index.targets_of(0)) == []
    assert not index.has_pair(0, 0)


def test_span_sets_memoize_and_share_the_empty_set():
    index = AdjacencyIndex("e", [(1, 5), (1, 7)], epoch=0)
    sets = index.targets_sets()
    assert isinstance(sets, SpanSets)
    first = sets[1]
    assert first == frozenset({5, 7})
    assert sets[1] is first  # memoized
    assert sets[42] is EMPTY_SET


def test_remove_edge_yields_duplicate_free_index_at_new_epoch():
    db = Instance(graph_scheme())
    a, b, c = (db.add_object("N") for _ in range(3))
    db.add_edge(a, "e", b)
    db.add_edge(a, "e", c)
    store = db.store
    before = store.sorted_adjacency("e")
    assert list(before.targets_of(a)) == sorted([b, c])
    db.remove_edge(a, "e", b)
    after = store.sorted_adjacency("e")
    assert after is not before  # epoch moved, fresh index
    assert list(after.targets_of(a)) == [c]
    db.add_edge(a, "e", b)
    again = store.sorted_adjacency("e")
    assert list(again.targets_of(a)) == sorted([b, c])  # no duplicate entries


def test_index_builds_are_charged():
    db = dense_instance(n=6, degree=2)
    with counters.collect() as tally:
        db.store.sorted_adjacency("e")
        db.store.sorted_adjacency("e")  # cached: no second build
    assert tally.index_builds == 1


# ----------------------------------------------------------------------
# strategy routing
# ----------------------------------------------------------------------
def test_pattern_is_cyclic_shapes():
    # triangle
    assert pattern_is_cyclic([1, 2, 3], [(1, "e", 2), (2, "e", 3), (1, "e", 3)])
    # chain
    assert not pattern_is_cyclic([1, 2, 3], [(1, "e", 2), (2, "e", 3)])
    # self-loops and parallel edges are residual Verify work, not cycles
    assert not pattern_is_cyclic([1], [(1, "e", 1)])
    assert not pattern_is_cyclic([1, 2], [(1, "e", 2), (2, "x", 1), (1, "y", 2)])
    # diamond (4-cycle)
    assert pattern_is_cyclic(
        [1, 2, 3, 4], [(1, "e", 2), (1, "e", 3), (2, "e", 4), (3, "e", 4)]
    )


def test_dense_cyclic_pattern_routes_to_multiway():
    db = dense_instance(degree=int(MULTIWAY_MIN_FANOUT) + 2)
    pattern, _ = triangle_pattern(db.scheme)
    assert choose_strategy(pattern, db) == "multiway"
    plan = compile_plan(pattern, db)
    assert plan.strategy == "multiway"


def test_acyclic_and_sparse_patterns_stay_left_deep():
    db = dense_instance(degree=6)
    chain = Pattern(db.scheme)
    x, y, z = chain.node("N"), chain.node("N"), chain.node("N")
    chain.edge(x, "e", y)
    chain.edge(y, "e", z)
    assert choose_strategy(chain, db) == "left-deep"

    sparse = Instance(graph_scheme())
    ring = [sparse.add_object("N") for _ in range(20)]
    for i, node in enumerate(ring):  # degree 1 << MULTIWAY_MIN_FANOUT
        sparse.add_edge(node, "e", ring[(i + 1) % len(ring)])
    tri, _ = triangle_pattern(sparse.scheme)
    assert choose_strategy(tri, sparse) == "left-deep"


def test_print_fixed_node_keeps_left_deep(tiny_scheme):
    db = Instance(tiny_scheme)
    people = [db.add_object("Person") for _ in range(12)]
    rng = random.Random(3)
    for person in people:
        for other in rng.sample(people, 6):
            db.add_edge(person, "knows", other)
    pattern = Pattern(tiny_scheme)
    x, y, z = (pattern.node("Person") for _ in range(3))
    pattern.edge(x, "knows", y)
    pattern.edge(y, "knows", z)
    pattern.edge(x, "knows", z)
    assert choose_strategy(pattern, db) == "multiway"
    name = pattern.node("String", "alice")
    pattern.edge(x, "name", name)
    assert choose_strategy(pattern, db) == "left-deep"


def test_epoch_bump_after_densification_flips_the_cached_strategy():
    """Satellite (b): the plan cache caches the *strategy* decision —
    densifying the graph bumps the epoch and recompilation flips a
    triangle from left-deep to multiway."""
    db = Instance(graph_scheme())
    ring = [db.add_object("N") for _ in range(16)]
    for i, node in enumerate(ring):
        db.add_edge(node, "e", ring[(i + 1) % len(ring)])
    pattern, _ = triangle_pattern(db.scheme)
    sparse_plan, _ = plan_for(pattern, db)
    assert sparse_plan.strategy == "left-deep"
    cached_plan, hit = plan_for(pattern, db)
    assert hit and cached_plan is sparse_plan

    rng = random.Random(11)
    for source in ring:  # densify well past MULTIWAY_MIN_FANOUT
        for target in rng.sample(ring, int(MULTIWAY_MIN_FANOUT) + 3):
            db.add_edge(source, "e", target)
    dense_plan, hit = plan_for(pattern, db)
    assert not hit  # epoch moved: the old cached plan is stranded
    assert dense_plan.strategy == "multiway"
    assert dense_plan.epoch > sparse_plan.epoch


# ----------------------------------------------------------------------
# multiway plan shape and execution
# ----------------------------------------------------------------------
def test_multiway_triangle_plan_shape_and_explain():
    db = dense_instance()
    pattern, (x, y, z) = triangle_pattern(db.scheme)
    plan = compile_plan(pattern, db, strategy="multiway")
    kinds = [type(step) for step in plan.steps]
    assert kinds == [ScanNodes, MultiwayIntersect, MultiwayIntersect]
    # the last variable is constrained by both of its pattern edges
    assert len(plan.steps[2].probes) == 2
    text = plan.explain()
    assert "strategy=multiway" in text
    assert "MultiwayIntersect" in text and "∩" in text
    assert plan.to_json()["strategy"] == "multiway"


def test_unknown_strategy_is_rejected():
    db = dense_instance(n=6, degree=2)
    pattern, _ = triangle_pattern(db.scheme)
    with pytest.raises(ValueError):
        compile_plan(pattern, db, strategy="bushy")


def test_multiway_equals_left_deep_equals_backtracking():
    db = dense_instance()
    pattern, _ = triangle_pattern(db.scheme)
    multiway = compile_plan(pattern, db, strategy="multiway")
    left_deep = compile_plan(pattern, db, strategy="left-deep")
    expected = canonical(find_matchings_backtracking(pattern, db))
    assert canonical(execute_plan(multiway, pattern, db)) == expected
    assert canonical(execute_plan(left_deep, pattern, db)) == expected


def test_compiled_runner_matches_interpreter():
    db = dense_instance()
    pattern, _ = triangle_pattern(db.scheme)
    plan = compile_plan(pattern, db, strategy="multiway")
    compiled = list(execute_plan(plan, pattern, db))
    interpreted = list(interpret_plan(plan, pattern, db))
    assert compiled == interpreted  # same matchings, same order


def test_multiway_execution_charges_wcoj_counters():
    db = dense_instance()
    pattern, _ = triangle_pattern(db.scheme)
    plan = compile_plan(pattern, db, strategy="multiway")
    with counters.collect() as tally:
        found = list(execute_plan(plan, pattern, db))
    assert found
    assert tally.index_probes > 0
    assert tally.intersections > 0

    with counters.collect() as tally:
        interpreted = list(interpret_plan(plan, pattern, db))
    assert interpreted == found
    assert tally.leapfrog_seeks > 0  # the galloping reference path


# ----------------------------------------------------------------------
# seeded runners (the semi-naive delta path)
# ----------------------------------------------------------------------
def test_seeded_runner_agrees_with_planned_matchings():
    db = dense_instance()
    pattern, (x, y, z) = triangle_pattern(db.scheme)
    plan, _ = plan_for(pattern, db, (x, y))
    run = seeded_runner(plan, pattern, db)
    store = db.store
    for source, target in sorted(store.edges_with_label("e"))[:10]:
        seed = {x: source, y: target}
        assert canonical(run(dict(seed))) == canonical(
            planned_matchings(pattern, db, fixed=seed)
        )


def test_seeded_left_deep_plans_compile():
    db = dense_instance()
    pattern, (x, y, z) = triangle_pattern(db.scheme)
    plan, _ = plan_for(pattern, db, (x, y))
    if plan.strategy == "left-deep":
        checks = executor_module._checks(plan, pattern, db.scheme)
        source, _ = executor_module._generate_runner(plan, checks)
        assert "def _runner(fixed" in source


# ----------------------------------------------------------------------
# delta memoization and MVCC sharing
# ----------------------------------------------------------------------
def test_delta_sorted_views_memoize_per_version():
    delta = Delta()
    delta.record_edge((3, "e", 1))
    delta.record_edge((1, "e", 2))
    edges = delta.sorted_edges()
    assert edges == [(1, "e", 2), (3, "e", 1)]
    assert delta.sorted_edges() is edges  # memoized until the next mutation
    delta.record_edge((0, "e", 0))
    fresh = delta.sorted_edges()
    assert fresh is not edges
    assert fresh[0] == (0, "e", 0)

    nodes_before = delta.sorted_nodes()
    other = Delta()
    other.record_node(9)
    delta.merge(other)
    assert delta.sorted_nodes() is not nodes_before  # merge invalidates
    assert 9 in delta.sorted_nodes()


def test_frozen_fork_shares_sorted_adjacency_by_identity():
    db = dense_instance(n=8, degree=3)
    store = db.store
    live_index = store.sorted_adjacency("e")
    snapshot = store.fork()
    assert snapshot.sorted_adjacency("e") is live_index
    # the live side mutates: it gets a fresh index, the snapshot keeps
    # hitting the entry pinned at its own epoch
    nodes = sorted(store.nodes_with_label("N"))
    store.add_edge(nodes[0], "e", nodes[1]) or store.remove_edge(nodes[0], "e", nodes[1])
    assert snapshot.sorted_adjacency("e") is live_index
