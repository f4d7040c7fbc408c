"""Unit tests for the cost-based match planner (repro.plan)."""

import pytest

from repro.core import Instance, Pattern
from repro.core.macros import value_between
from repro.core.pattern import NegatedPattern
from repro.plan import (
    MAX_CACHED_PLANS,
    Extend,
    ScanEdges,
    ScanNodes,
    Verify,
    cached_plan_count,
    compile_plan,
    execute_plan,
    explain_pattern,
    pattern_signature,
    plan_for,
    planned_matchings,
)

from tests.conftest import person_pattern


def knows_pattern(scheme):
    pattern = Pattern(scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "knows", y)
    return pattern, x, y


# ----------------------------------------------------------------------
# plan shapes
# ----------------------------------------------------------------------
def test_single_node_plan_is_one_scan(tiny_scheme, tiny_instance):
    pattern, person = person_pattern(tiny_scheme)
    plan = compile_plan(pattern, tiny_instance)
    assert len(plan.steps) == 1
    assert isinstance(plan.steps[0], ScanNodes)
    assert plan.steps[0].node == person


def test_print_node_seeds_the_plan(tiny_scheme, tiny_instance):
    """A print-constant node has estimated cardinality 1, so the plan
    must seed there and extend outward, not scan all Persons."""
    pattern, person = person_pattern(tiny_scheme, name="alice")
    plan = compile_plan(pattern, tiny_instance)
    seed = plan.steps[0]
    assert isinstance(seed, ScanNodes)
    assert seed.label == "String"
    assert "print" in seed.detail
    assert any(isinstance(step, Extend) and step.node == person for step in plan.steps)


def test_rare_edge_label_seeds_an_edge_scan(tiny_scheme, tiny_instance):
    """When the edge index is smaller than either endpoint scan, the
    plan seeds on ScanEdges and binds both endpoints at once."""
    scheme = tiny_scheme.copy()
    scheme.declare("Person", "mentors", "Person", functional=False)
    db = Instance(scheme)
    people = [db.add_object("Person") for _ in range(20)]
    for i in range(19):
        db.add_edge(people[i], "knows", people[i + 1])
    db.add_edge(people[0], "mentors", people[5])
    pattern = Pattern(scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "mentors", y)
    plan = compile_plan(pattern, db)
    assert isinstance(plan.steps[0], ScanEdges)
    assert plan.steps[0].label == "mentors"
    assert list(execute_plan(plan, pattern, db)) == [{x: people[0], y: people[5]}]


def test_fixed_fixed_edge_becomes_verify(tiny_scheme, tiny_instance):
    pattern, x, y = knows_pattern(tiny_scheme)
    plan = compile_plan(pattern, tiny_instance, fixed=(x, y))
    assert [type(step) for step in plan.steps] == [Verify]
    people = sorted(tiny_instance.nodes_with_label("Person"))
    hits = list(
        execute_plan(plan, pattern, tiny_instance, fixed={x: people[0], y: people[1]})
    )
    assert hits == [{x: people[0], y: people[1]}]
    assert list(
        execute_plan(plan, pattern, tiny_instance, fixed={x: people[1], y: people[0]})
    ) == []


def test_self_loop_edge_becomes_verify(tiny_scheme, tiny_instance):
    people = sorted(tiny_instance.nodes_with_label("Person"))
    tiny_instance.add_edge(people[2], "knows", people[2])
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    pattern.edge(x, "knows", x)
    plan = compile_plan(pattern, tiny_instance)
    assert any(isinstance(step, Verify) for step in plan.steps)
    assert [m[x] for m in execute_plan(plan, pattern, tiny_instance)] == [people[2]]


def test_predicate_halves_the_seed_estimate(tiny_scheme, tiny_instance):
    pattern = Pattern(tiny_scheme)
    age = pattern.node("Number")
    pattern.constrain(age, value_between(35, 50))
    plan = compile_plan(pattern, tiny_instance)
    count = len(tiny_instance.nodes_with_label("Number"))
    assert plan.steps[0].est == pytest.approx(count * 0.5)


def test_plans_are_deterministic(tiny_scheme, tiny_instance):
    pattern, _, _ = knows_pattern(tiny_scheme)
    first = compile_plan(pattern, tiny_instance)
    second = compile_plan(pattern, tiny_instance)
    assert first.explain() == second.explain()
    assert [type(s) for s in first.steps] == [type(s) for s in second.steps]


# ----------------------------------------------------------------------
# the plan cache
# ----------------------------------------------------------------------
def test_plan_cache_hits_until_mutation(tiny_scheme, tiny_instance):
    pattern, _, _ = knows_pattern(tiny_scheme)
    _, hit = plan_for(pattern, tiny_instance)
    assert not hit
    _, hit = plan_for(pattern, tiny_instance)
    assert hit
    assert cached_plan_count(tiny_instance) == 1


def test_plan_cache_invalidates_on_structural_change(tiny_scheme, tiny_instance):
    pattern, _, _ = knows_pattern(tiny_scheme)
    plan, _ = plan_for(pattern, tiny_instance)
    epoch = plan.epoch
    people = sorted(tiny_instance.nodes_with_label("Person"))
    tiny_instance.add_edge(people[2], "knows", people[0])
    replanned, hit = plan_for(pattern, tiny_instance)
    assert not hit  # the statistics epoch moved, so the entry is stale
    assert replanned.epoch > epoch
    # ... and the fresh entry serves hits again
    _, hit = plan_for(pattern, tiny_instance)
    assert hit


def test_plan_cache_survives_print_rewrites(tiny_scheme, tiny_instance):
    """set_print keeps every cardinality statistic intact, so cached
    plans stay optimal and must keep hitting."""
    pattern, _, _ = knows_pattern(tiny_scheme)
    plan_for(pattern, tiny_instance)
    alice_name = tiny_instance.find_printable("String", "alice")
    tiny_instance.store.set_print(alice_name, "alicia")
    _, hit = plan_for(pattern, tiny_instance)
    assert hit


def test_distinct_fixed_sets_cache_separately(tiny_scheme, tiny_instance):
    pattern, x, _ = knows_pattern(tiny_scheme)
    plan_free, _ = plan_for(pattern, tiny_instance)
    plan_fixed, hit = plan_for(pattern, tiny_instance, fixed=(x,))
    assert not hit
    assert cached_plan_count(tiny_instance) == 2
    assert tuple(plan_fixed.fixed) == (x,)
    assert plan_free.fixed == ()


def test_plan_cache_is_bounded(tiny_scheme, tiny_instance):
    for value in range(MAX_CACHED_PLANS + 10):
        pattern, _ = person_pattern(tiny_scheme, name=f"nobody-{value}")
        plan_for(pattern, tiny_instance)
    assert cached_plan_count(tiny_instance) == MAX_CACHED_PLANS


def test_unhashable_signatures_bypass_the_cache(tiny_scheme, tiny_instance, monkeypatch):
    """A pattern whose signature cannot be hashed still plans and
    executes — it just never enters the cache (defensive path; the
    normal Pattern API only admits hashable print values)."""
    from repro.plan import cache as cache_module

    def unhashable_signature(pattern, fixed=()):
        return (["not", "hashable"],)

    monkeypatch.setattr(cache_module, "pattern_signature", unhashable_signature)
    pattern, _, _ = knows_pattern(tiny_scheme)
    plan, hit = cache_module.plan_for(pattern, tiny_instance)
    assert not hit
    assert cached_plan_count(tiny_instance) == 0
    assert len(list(execute_plan(plan, pattern, tiny_instance))) == 3


def test_pattern_signature_distinguishes_structure(tiny_scheme):
    a, _, _ = knows_pattern(tiny_scheme)
    b, _, _ = knows_pattern(tiny_scheme)
    assert pattern_signature(a) == pattern_signature(b)
    b.edge(1, "knows", 0)
    assert pattern_signature(a) != pattern_signature(b)


def test_copy_does_not_share_the_plan_cache(tiny_scheme, tiny_instance):
    """Neither a copy of the live instance nor a copy of a published
    (frozen) fork of it plans into the live cache."""
    pattern, _, _ = knows_pattern(tiny_scheme)
    plan_for(pattern, tiny_instance)
    snapshot = Instance(tiny_scheme, _store=tiny_instance.store.fork())
    for source in (tiny_instance, snapshot):
        clone = source.copy()
        assert cached_plan_count(clone) == 0
        _, hit = plan_for(pattern, clone)
        assert not hit
        assert cached_plan_count(tiny_instance) == 1


# ----------------------------------------------------------------------
# EXPLAIN text
# ----------------------------------------------------------------------
def test_explain_text_shape(tiny_scheme, tiny_instance):
    pattern, x, y = knows_pattern(tiny_scheme)
    text = explain_pattern(pattern, tiny_instance)
    lines = text.splitlines()
    assert lines[0].startswith("PlanPipeline(2 nodes, 1 edges;")
    assert all(line.startswith("  ") for line in lines[1:])
    assert "est=" in lines[1]


def test_explain_renders_fixed_bindings(tiny_scheme, tiny_instance):
    pattern, x, _ = knows_pattern(tiny_scheme)
    text = explain_pattern(pattern, tiny_instance, fixed=(x,))
    assert f"Fixed(?{x})" in text


def test_explain_crossed_pattern_lists_antijoins(tiny_scheme, tiny_instance):
    pattern, x, y = knows_pattern(tiny_scheme)
    negated = NegatedPattern(pattern)
    negated.forbid_edge(y, "knows", x)
    text = explain_pattern(negated, tiny_instance)
    assert "AntiJoin(crossed extension 0)" in text
    # the anti-join sub-plan runs with the positive nodes pre-bound
    assert "Fixed(" in text


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def test_counters_tally_cache_and_probes(tiny_scheme, tiny_instance):
    from repro.core import counters

    pattern, _, _ = knows_pattern(tiny_scheme)
    with counters.collect() as tally:
        list(planned_matchings(pattern, tiny_instance))
        list(planned_matchings(pattern, tiny_instance))
    assert tally.plan_cache_misses == 1
    assert tally.plan_cache_hits == 1
    assert tally.index_probes > 0
    payload = tally.to_json()
    for key in ("plan_cache_hits", "plan_cache_misses", "index_probes"):
        assert key in payload


def test_probes_charged_when_generator_abandoned(tiny_scheme, tiny_instance):
    """Closing the generator early must still charge the probes made."""
    from repro.core import counters

    pattern, _, _ = knows_pattern(tiny_scheme)
    with counters.collect() as tally:
        gen = planned_matchings(pattern, tiny_instance)
        next(gen)
        gen.close()
    assert tally.index_probes > 0
