"""Unit tests for the compiled plan executor.

Runner caching per plan shape, the scheme-implied label checks, and
instantiation without reference cycles.  Content-and-order equality
with the reference step interpreter is a property test
(``tests/property/test_wcoj_properties.py``).
"""

import gc
import weakref
from collections import OrderedDict

import pytest

from repro.core import Instance, Pattern, Scheme, counters
from repro.graph.store import GraphStore
from repro.plan import compile_plan, execute_plan, plan_for
from repro.plan import executor as executor_module
from repro.rules import RuleProgram
from repro.testing import interpret_plan

from tests.unit.test_rules import closure_rules


@pytest.fixture
def fresh_runners(monkeypatch):
    """An empty runner cache, and the list of plans compiled into it."""
    monkeypatch.setattr(executor_module, "_runner_cache", OrderedDict())
    compiled = []
    generate = executor_module._generate_runner

    def counting(plan, checks):
        compiled.append((plan.shape, checks))
        return generate(plan, checks)

    monkeypatch.setattr(executor_module, "_generate_runner", counting)
    return compiled


def named_people(count: int):
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    db = Instance(scheme)
    people = []
    for index in range(count):
        person = db.add_object("Person")
        db.add_edge(person, "name", db.printable("String", f"p{index}"))
        people.append(person)
    for left, right in zip(people, people[1:]):
        db.add_edge(left, "knows", right)
    return db, people


def friends_of(scheme: Scheme, name: str):
    """``n: String = name; x -name-> n; x -knows->> y``."""
    pattern = Pattern(scheme)
    n = pattern.node("String", name)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "name", n)
    pattern.edge(x, "knows", y)
    return pattern, (n, x, y)


def test_implied_label_extend_never_reads_the_label_member_set(monkeypatch):
    db, people = named_people(6)
    pattern, (n, x, y) = friends_of(db.scheme, "p2")
    plan = compile_plan(pattern, db)
    assert [type(step).__name__ for step in plan.steps] == ["ScanNodes", "Extend", "Extend"]
    # P admits only Person behind a name edge and after a knows edge
    assert executor_module._checks(plan, pattern, db.scheme) == (None, "", "")

    def forbidden(self, label):
        raise AssertionError(f"nodes_with_label({label!r}) read by the executor")

    name = db.find_printable("String", "p2")
    monkeypatch.setattr(GraphStore, "nodes_with_label", forbidden)
    assert list(execute_plan(plan, pattern, db)) == [{n: name, x: people[2], y: people[3]}]


def test_label_check_stays_where_the_scheme_admits_two_labels():
    scheme = Scheme()
    scheme.declare("A", "to", "A", functional=False)
    scheme.declare("A", "to", "B", functional=False)
    db = Instance(scheme)
    a, a2, a3 = (db.add_object("A") for _ in range(3))
    b = db.add_object("B")
    db.add_edge(a, "to", a2)
    db.add_edge(a3, "to", b)
    pattern = Pattern(scheme)
    x = pattern.node("A")
    y = pattern.node("A")
    pattern.edge(x, "to", y)
    plan = compile_plan(pattern, db)
    assert [type(step).__name__ for step in plan.steps] == ["ScanEdges"]
    # only A sources a to edge, but its target may be an A or a B
    assert executor_module._checks(plan, pattern, scheme) == (("", "l"),)
    found = list(execute_plan(plan, pattern, db))
    assert found == list(interpret_plan(plan, pattern, db))
    assert found == [{x: a, y: a2}]  # a3 -to-> b is not an A-to-A edge

    seeded = compile_plan(pattern, db, fixed=(x,))
    assert [type(step).__name__ for step in seeded.steps] == ["Extend"]
    assert executor_module._checks(seeded, pattern, scheme) == ("l",)
    assert [list(execute_plan(seeded, pattern, db, {x: node})) for node in (a, a2, a3)] == [
        [{x: a, y: a2}], [], []
    ]


def test_plans_differing_in_constants_and_epoch_share_one_runner(fresh_runners):
    db, people = named_people(6)
    for index in range(4):
        pattern, (n, x, y) = friends_of(db.scheme, f"p{index}")
        plan, _ = plan_for(pattern, db)
        assert [m[x] for m in execute_plan(plan, pattern, db)] == [people[index]]
        db.add_object("Person")  # bump the statistics epoch
    assert len(fresh_runners) == 1


def test_fixpoint_rounds_compile_each_runner_once(tiny_scheme, fresh_runners):
    db = Instance(tiny_scheme)
    people = [db.add_object("Person") for _ in range(10)]
    for left, right in zip(people, people[1:]):
        db.add_edge(left, "knows", right)
    program = RuleProgram(closure_rules(tiny_scheme))
    with counters.collect() as tally:
        result, _ = program.run(db)
    assert program.last_stats.total_rounds >= 5
    # every round bumps stats_epoch and so plans afresh, but a plan
    # shape compiles once
    assert len(fresh_runners) == len(set(fresh_runners))
    assert len(fresh_runners) < tally.plan_cache_misses
    reached = {(s, t) for s in result.nodes() for t in result.out_neighbours(s, "reaches")}
    assert len(reached) == 45


def test_runner_instantiation_leaves_no_reference_cycle():
    db, people = named_people(4)
    pattern, _ = friends_of(db.scheme, "p1")
    plan = compile_plan(pattern, db)
    make, _ = executor_module._runner_factory(plan, executor_module._checks(plan, pattern, db.scheme))
    assert "_make" not in make.__globals__
    gc.collect()
    gc.disable()
    try:
        runner = executor_module.seeded_runner(plan, pattern, db)
        assert len(list(runner({}))) == 1
        alive = weakref.ref(runner)
        del runner
        assert alive() is None  # freed by reference counting alone
    finally:
        gc.enable()


def test_fixed_bindings_must_match_the_plan():
    db, people = named_people(4)
    pattern, (n, x, y) = friends_of(db.scheme, "p1")
    plan = compile_plan(pattern, db, fixed=(x,))
    assert [m[y] for m in execute_plan(plan, pattern, db, {x: people[1]})] == [people[2]]
    with pytest.raises(ValueError):
        execute_plan(plan, pattern, db, {y: people[2]})
    with pytest.raises(ValueError):
        execute_plan(plan, pattern, db)
