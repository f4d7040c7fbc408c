"""Property tests for the worst-case-optimal multiway join layer.

Three guarantees, on random graphs and random small patterns (cyclic
and acyclic, with repeated use of variables, parallel edges, self-loops
and print-constant nodes):

* a plan forced through the ``multiway`` discipline enumerates exactly
  the matchings of the forced ``left-deep`` plan and of the
  backtracking oracle;
* the compiled multiway runner and the step interpreter produce the
  same matchings in the same order;
* :func:`find_matchings_delta` yields exactly the full matchings that
  touch the delta — no more, no fewer.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Pattern, Scheme
from repro.core.matching import find_matchings, find_matchings_delta
from repro.plan import compile_plan, execute_plan
from repro.plan import executor as executor_module
from repro.testing import find_matchings_backtracking

SETTINGS = settings(max_examples=50, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def graph_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["S"])
    scheme.declare("N", "e", "N", functional=False)
    scheme.declare("N", "f", "N", functional=False)
    scheme.declare("N", "p", "S")
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


def canonical(matchings):
    return sorted(tuple(sorted(m.items())) for m in matchings)


@given(seeds)
@SETTINGS
def test_forced_multiway_equals_left_deep_equals_backtracking(seed):
    rng = random.Random(seed)
    scheme = graph_scheme()
    instance = random_graph(rng, scheme)
    pattern = random_small_pattern(rng, scheme)
    multiway = compile_plan(pattern, instance, strategy="multiway")
    left_deep = compile_plan(pattern, instance, strategy="left-deep")
    expected = canonical(find_matchings_backtracking(pattern, instance))
    assert canonical(execute_plan(multiway, pattern, instance)) == expected
    assert canonical(execute_plan(left_deep, pattern, instance)) == expected


@given(seeds)
@SETTINGS
def test_compiled_runner_equals_interpreter(seed):
    rng = random.Random(seed)
    scheme = graph_scheme()
    instance = random_graph(rng, scheme)
    pattern = random_small_pattern(rng, scheme)
    plan = compile_plan(pattern, instance, strategy="multiway")
    compiled = list(execute_plan(plan, pattern, instance))
    interpreted = list(executor_module._interpret_plan(plan, pattern, instance, {}))
    assert compiled == interpreted  # identical matchings, identical order


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
