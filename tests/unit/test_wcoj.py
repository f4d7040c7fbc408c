"""Unit tests for the join on cyclic patterns.

Covers the CSR adjacency arrays and neighbour-set maps the executor
reads (:mod:`repro.graph.columns`), the plan a dense triangle compiles
to (one ``Extend`` per variable, the closing one intersecting both of
its probes), the compiled runner against the step interpreter, seeded
runners, delta sorted-view memoization and MVCC sharing.
"""

import random

from repro.core import Instance, Pattern, Scheme
from repro.graph.columns import EMPTY_SET, SpanSets, build_csr
from repro.graph.store import Delta, GraphStore
from repro.plan import (
    Extend,
    ScanNodes,
    compile_plan,
    execute_plan,
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
    """A random multigraph with ``degree`` out-edges per node."""
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
# CSR adjacency and neighbour sets
# ----------------------------------------------------------------------
def spans(store, label):
    """``source -> targets`` from the store's forward CSR arrays."""
    keys, offs, vals = store.out_csr(label)
    return {key: list(vals[offs[i] : offs[i + 1]]) for i, key in enumerate(keys)}


def test_adjacency_index_spans_are_sorted_and_duplicate_free():
    store = GraphStore()
    nodes = [store.add_node("N") for _ in range(10)]
    for source, target in [(2, 9), (1, 5), (2, 3), (1, 7), (2, 6)]:
        store.add_edge(nodes[source], "e", nodes[target])
    store.add_edge(nodes[2], "e", nodes[3])  # duplicate: refused
    assert spans(store, "e") == {
        nodes[1]: [nodes[5], nodes[7]],
        nodes[2]: [nodes[3], nodes[6], nodes[9]],
    }


def test_empty_label_builds_an_empty_index():
    keys, offs, vals = GraphStore().out_csr("never-used")
    assert (list(keys), list(offs), list(vals)) == ([], [0], [])


def test_span_sets_memoize_and_share_the_empty_set():
    sets = SpanSets(*build_csr([(1, 5), (1, 7)]))
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
    assert spans(store, "e") == {a: sorted([b, c])}
    epoch = store.stats_epoch
    db.remove_edge(a, "e", b)
    assert store.stats_epoch > epoch
    assert spans(store, "e") == {a: [c]}
    db.add_edge(a, "e", b)
    assert spans(store, "e") == {a: sorted([b, c])}  # no duplicate entries


# ----------------------------------------------------------------------
# plan shape and execution
# ----------------------------------------------------------------------
def test_dense_triangle_plans_as_scan_extend_extend():
    db = dense_instance()
    pattern, (x, y, z) = triangle_pattern(db.scheme)
    plan = compile_plan(pattern, db)
    assert [type(step) for step in plan.steps] == [ScanNodes, Extend, Extend]
    # the closing variable is constrained by both of its pattern edges
    assert plan.steps[2].node == z
    assert plan.steps[2].probes == (("out", "e", x), ("out", "e", y))
    text = plan.explain()
    assert "strategy=left-deep" in text
    assert f"Extend(?{z} via ?{x} -e-> ?{z} & ?{y} -e-> ?{z})" in text
    assert plan.to_json()["strategy"] == "left-deep"


def test_planned_triangle_equals_backtracking():
    db = dense_instance()
    pattern, _ = triangle_pattern(db.scheme)
    plan = compile_plan(pattern, db)
    expected = canonical(find_matchings_backtracking(pattern, db))
    assert expected
    assert canonical(execute_plan(plan, pattern, db)) == expected


def test_compiled_runner_matches_interpreter():
    db = dense_instance()
    pattern, _ = triangle_pattern(db.scheme)
    plan = compile_plan(pattern, db)
    compiled = list(execute_plan(plan, pattern, db))
    interpreted = list(interpret_plan(plan, pattern, db))
    assert compiled == interpreted  # same matchings, same order


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


def test_frozen_fork_shares_neighbour_sets_by_identity():
    db = dense_instance(n=8, degree=3)
    store = db.store
    live_sets = store.neighbour_sets("e", "out")
    snapshot = store.fork()
    assert snapshot.neighbour_sets("e", "out") is live_sets
    # the live side mutates: it clones the column and gets fresh maps,
    # the snapshot keeps the maps of its own (shared) column
    nodes = sorted(store.nodes_with_label("N"))
    store.add_edge(nodes[0], "e", nodes[1]) or store.remove_edge(nodes[0], "e", nodes[1])
    assert store.neighbour_sets("e", "out") is not live_sets
    assert snapshot.neighbour_sets("e", "out") is live_sets
