"""Property tests for the compiled plan executor on cyclic patterns.

Three guarantees, on random graphs and random small patterns (cyclic
and acyclic, with repeated use of variables, parallel edges,
self-loops, print-constant and predicate nodes):

* the planner's plan enumerates exactly the matchings of the
  backtracking oracle;
* the compiled runner and the reference step interpreter produce the
  same matchings in the same order, for node-seeded and edge-scan
  plans, with and without ``fixed`` bindings, over a scheme
  in which one edge label reaches two node labels (so some label
  checks must stay) and over label columns with a pending overlay;
* :func:`find_matchings_delta` yields exactly the full matchings that
  touch the delta — no more, no fewer.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Pattern, Scheme
from repro.core.matching import find_matchings, find_matchings_delta
from repro.core.pattern import PrintPredicate
from repro.io.serialize import instance_from_json, instance_to_json
from repro.plan import ScanEdges, compile_plan, execute_plan
from repro.plan.executor import binding_ok
from repro.testing import find_matchings_backtracking, interpret_plan

SETTINGS = settings(max_examples=50, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

IN_AB = PrintPredicate("in-ab", lambda value: value in ("a", "b"))


def graph_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["S"])
    scheme.declare("N", "e", "N", functional=False)
    scheme.declare("N", "f", "N", functional=False)
    scheme.declare("N", "p", "S")
    return scheme


def two_label_scheme() -> Scheme:
    """``g`` leaves an N towards an N *or* an M, and ``e`` reaches an N
    from an N or an M: probes along them cannot imply the label.  ``h``
    is rare, so patterns that use it seed on an edge scan."""
    scheme = graph_scheme()
    scheme.declare("N", "g", "N", functional=False)
    scheme.declare("N", "g", "M", functional=False)
    scheme.declare("M", "e", "N", functional=False)
    scheme.declare("N", "h", "N", functional=False)
    return scheme


def random_graph(rng: random.Random, scheme: Scheme) -> Instance:
    db = Instance(scheme)
    nodes = [db.add_object("N") for _ in range(rng.randint(3, 14))]
    for _ in range(rng.randint(0, 40)):
        db.add_edge(rng.choice(nodes), rng.choice(("e", "f")), rng.choice(nodes))
    for node in rng.sample(nodes, rng.randint(0, 3)):
        db.add_edge(node, "p", db.printable("S", rng.choice("abc")))
    return db


def random_small_pattern(rng: random.Random, scheme: Scheme) -> Pattern:
    """2-4 variables, random edges (self-loops and parallel edges
    allowed, so cyclic and acyclic shapes both occur), sometimes a
    print-constant node."""
    pattern = Pattern(scheme)
    variables = [pattern.node("N") for _ in range(rng.randint(2, 4))]
    for _ in range(rng.randint(1, 5)):
        pattern.edge(rng.choice(variables), rng.choice(("e", "f")), rng.choice(variables))
    if rng.random() < 0.3:
        constant = pattern.node("S", rng.choice("abc"))
        pattern.edge(rng.choice(variables), "p", constant)
    return pattern


def add_random_edges(rng: random.Random, db: Instance, count: int) -> None:
    """``count`` attempts at a random edge the scheme and GOOD's
    successor rules allow (a violating attempt is skipped)."""
    scheme = db.scheme
    nodes = sorted(db.nodes())
    for _ in range(count):
        source, target = rng.choice(nodes), rng.choice(nodes)
        labels = sorted(
            label
            for label in ("e", "f", "g", "h")
            if scheme.allows_edge(db.label_of(source), label, db.label_of(target))
        )
        if labels:
            label = rng.choice(labels)
            if db.edge_violation(source, label, target) is None:
                db.add_edge(source, label, target)


def two_label_graph(rng: random.Random) -> Instance:
    """A random graph over :func:`two_label_scheme`, bulk-loaded and then
    written to, so its label and edge columns carry a pending overlay."""
    db = Instance(two_label_scheme())
    for _ in range(rng.randint(4, 14)):
        db.add_object("N")
    for _ in range(rng.randint(1, 5)):
        db.add_object("M")
    add_random_edges(rng, db, rng.randint(5, 40))
    for node in rng.sample(sorted(db.nodes_with_label("N")), rng.randint(0, 3)):
        db.add_edge(node, "p", db.printable("S", rng.choice("abc")))
    db = instance_from_json(instance_to_json(db))
    db.remove_node(rng.choice(sorted(db.nodes())))
    db.add_object(rng.choice(("N", "M")))
    add_random_edges(rng, db, rng.randint(1, 6))
    assert any(column.adds or column.dels for column in db.store._members.values())
    return db


def two_label_pattern(rng: random.Random, scheme: Scheme) -> Pattern:
    """2-4 variables over N and M with random e/f/g/h edges, and
    sometimes a print constant and a print predicate."""
    pattern = Pattern(scheme)
    variables = [pattern.node(rng.choice("NNNM")) for _ in range(rng.randint(2, 4))]
    for _ in range(rng.randint(1, 5)):
        source, target = rng.choice(variables), rng.choice(variables)
        labels = sorted(
            label
            for label in ("e", "f", "g", "h")
            if scheme.allows_edge(pattern.label_of(source), label, pattern.label_of(target))
        )
        if labels:
            label = rng.choice(labels)
            if pattern.edge_violation(source, label, target) is None:
                pattern.edge(source, label, target)
    owners = [node for node in variables if pattern.label_of(node) == "N"]
    if owners and rng.random() < 0.3:
        constant = pattern.node("S", rng.choice("abc"))
        pattern.edge(owners.pop(rng.randrange(len(owners))), "p", constant)
    if owners and rng.random() < 0.3:
        valued = pattern.node("S")
        pattern.constrain(valued, IN_AB)
        pattern.edge(rng.choice(owners), "p", valued)
    return pattern


def canonical(matchings):
    return sorted(tuple(sorted(m.items())) for m in matchings)


@given(seeds)
@SETTINGS
def test_planned_equals_backtracking(seed):
    rng = random.Random(seed)
    scheme = graph_scheme()
    instance = random_graph(rng, scheme)
    pattern = random_small_pattern(rng, scheme)
    plan = compile_plan(pattern, instance)
    expected = canonical(find_matchings_backtracking(pattern, instance))
    assert canonical(execute_plan(plan, pattern, instance)) == expected


@given(seeds)
@SETTINGS
def test_compiled_runner_equals_interpreter(seed):
    rng = random.Random(seed)
    scheme = graph_scheme()
    instance = random_graph(rng, scheme)
    pattern = random_small_pattern(rng, scheme)
    plan = compile_plan(pattern, instance)
    compiled = list(execute_plan(plan, pattern, instance))
    interpreted = list(interpret_plan(plan, pattern, instance))
    assert compiled == interpreted  # identical matchings, identical order


@given(seeds)
@SETTINGS
def test_compiled_runner_equals_interpreter_with_label_checks_and_fixed_nodes(seed):
    rng = random.Random(seed)
    instance = two_label_graph(rng)
    pattern = two_label_pattern(rng, instance.scheme)
    nodes = sorted(pattern.nodes())
    expected = canonical(find_matchings_backtracking(pattern, instance))
    plan = compile_plan(pattern, instance)
    compiled = list(execute_plan(plan, pattern, instance))
    assert compiled == list(interpret_plan(plan, pattern, instance))
    assert canonical(compiled) == expected

    fixed_nodes = sorted(rng.sample(nodes, rng.randint(1, len(nodes))))
    plan = compile_plan(pattern, instance, fixed=fixed_nodes)
    candidates = sorted(instance.nodes())
    fixed = {node: rng.choice(candidates) for node in fixed_nodes}
    if expected and rng.random() < 0.5:  # often a binding that extends
        fixed = {node: dict(rng.choice(expected))[node] for node in fixed_nodes}
    compiled = list(execute_plan(plan, pattern, instance, fixed))
    if all(binding_ok(pattern, instance, node, image) for node, image in fixed.items()):
        assert compiled == list(interpret_plan(plan, pattern, instance, fixed))
        assert canonical(compiled) == [
            row for row in expected if all(dict(row)[node] == image for node, image in fixed.items())
        ]
    else:
        assert compiled == []


@given(seeds)
@SETTINGS
def test_edge_scan_runner_equals_interpreter(seed):
    rng = random.Random(seed)
    instance = two_label_graph(rng)
    store = instance.store
    pattern = Pattern(instance.scheme)
    source = pattern.node("N")
    target = source if rng.random() < 0.3 else pattern.node("N")
    pattern.edge(source, "h", target)
    if rng.random() < 0.5:
        other = pattern.node(rng.choice("NM"))
        pattern.edge(target, "g", other)
    plan = compile_plan(pattern, instance)
    cheapest_scan = min(store.label_count(pattern.label_of(node)) for node in pattern.nodes())
    if store.edge_label_count("h") < cheapest_scan:
        assert isinstance(plan.steps[0], ScanEdges)
    compiled = list(execute_plan(plan, pattern, instance))
    assert compiled == list(interpret_plan(plan, pattern, instance))
    assert canonical(compiled) == canonical(find_matchings_backtracking(pattern, instance))


@given(seeds)
@SETTINGS
def test_delta_matchings_are_exactly_the_touching_matchings(seed):
    rng = random.Random(seed)
    scheme = graph_scheme()
    instance = random_graph(rng, scheme)
    pattern = random_small_pattern(rng, scheme)
    nodes = sorted(instance.nodes_with_label("N"))

    with instance.track_changes() as delta:
        fresh = [instance.add_object("N") for _ in range(rng.randint(0, 2))]
        pool = nodes + fresh
        for _ in range(rng.randint(1, 6)):
            instance.add_edge(rng.choice(pool), rng.choice(("e", "f")), rng.choice(pool))

    def touches(matching) -> bool:
        if any(node in delta.nodes for node in matching.values()):
            return True
        return any(
            (matching[edge.source], edge.label, matching[edge.target]) in delta.edges
            for edge in pattern.edges()
        )

    expected = canonical(
        m for m in find_matchings(pattern, instance) if touches(m)
    )
    assert canonical(find_matchings_delta(pattern, instance, delta)) == expected
