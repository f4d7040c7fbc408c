"""Unit tests for pattern matching (Section 3)."""

from repro.core import Pattern, count_matchings, find_matchings, match_exists
from repro.core.matching import find_negated
from repro.core.pattern import NegatedPattern, empty_pattern
from repro.core.macros import value_between
from repro.testing import find_matchings_naive

from tests.conftest import person_pattern


def test_empty_pattern_has_one_matching(tiny_scheme, tiny_instance):
    matchings = list(find_matchings(empty_pattern(tiny_scheme), tiny_instance))
    assert matchings == [{}]


def test_single_node_pattern(tiny_scheme, tiny_instance):
    pattern, _ = person_pattern(tiny_scheme)
    assert count_matchings(pattern, tiny_instance) == 3


def test_print_value_narrows(tiny_scheme, tiny_instance):
    pattern, person = person_pattern(tiny_scheme, name="alice")
    matchings = list(find_matchings(pattern, tiny_instance))
    assert len(matchings) == 1
    assert tiny_instance.print_of(
        tiny_instance.functional_target(matchings[0][person], "name")
    ) == "alice"


def test_absent_constant_means_no_matchings(tiny_scheme, tiny_instance):
    pattern, _ = person_pattern(tiny_scheme, name="nobody")
    assert count_matchings(pattern, tiny_instance) == 0


def test_edge_preservation(tiny_scheme, tiny_instance):
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "knows", y)
    assert count_matchings(pattern, tiny_instance) == 3  # a->b, a->c, b->c


def test_matchings_are_homomorphisms_not_injections(tiny_scheme, tiny_instance):
    """Two pattern nodes may map to the same instance node."""
    pattern = Pattern(tiny_scheme)
    pattern.node("Person")
    pattern.node("Person")
    # no edges: all 9 pairs, including the 3 diagonal ones
    assert count_matchings(pattern, tiny_instance) == 9


def test_two_hop_pattern(tiny_scheme, tiny_instance):
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    z = pattern.node("Person")
    pattern.edge(x, "knows", y)
    pattern.edge(y, "knows", z)
    matchings = list(find_matchings(pattern, tiny_instance))
    assert len(matchings) == 1  # a->b->c only


def test_self_loop_pattern_edges(tiny_scheme, tiny_instance):
    """Regression: a self-loop constraint must not be dropped."""
    people = sorted(tiny_instance.nodes_with_label("Person"))
    tiny_instance.add_edge(people[2], "knows", people[2])
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    pattern.edge(x, "knows", x)
    matchings = list(find_matchings(pattern, tiny_instance))
    assert [m[x] for m in matchings] == [people[2]]


def test_fixed_bindings_restrict(tiny_scheme, tiny_instance):
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "knows", y)
    people = sorted(tiny_instance.nodes_with_label("Person"))
    alice = people[0]
    matchings = list(find_matchings(pattern, tiny_instance, fixed={x: alice}))
    assert len(matchings) == 2
    assert all(m[x] == alice for m in matchings)


def test_fixed_bindings_can_be_inconsistent(tiny_scheme, tiny_instance):
    pattern, person = person_pattern(tiny_scheme, name="alice")
    people = sorted(tiny_instance.nodes_with_label("Person"))
    bob = people[1]
    assert not match_exists(pattern, tiny_instance, fixed={person: bob})


def test_fixed_binding_to_missing_node(tiny_scheme, tiny_instance):
    pattern, person = person_pattern(tiny_scheme)
    assert not match_exists(pattern, tiny_instance, fixed={person: 10_000})


def test_predicate_filtering(tiny_scheme, tiny_instance):
    pattern = Pattern(tiny_scheme)
    person = pattern.node("Person")
    age = pattern.node("Number")
    pattern.constrain(age, value_between(35, 50))
    pattern.edge(person, "age", age)
    matchings = list(find_matchings(pattern, tiny_instance))
    assert len(matchings) == 1  # only bob (40)


def test_naive_matcher_agrees(tiny_scheme, tiny_instance):
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "knows", y)
    fast = sorted(tuple(sorted(m.items())) for m in find_matchings(pattern, tiny_instance))
    naive = sorted(tuple(sorted(m.items())) for m in find_matchings_naive(pattern, tiny_instance))
    assert fast == naive


def test_matching_order_is_deterministic(tiny_scheme, tiny_instance):
    pattern, _ = person_pattern(tiny_scheme)
    first = list(find_matchings(pattern, tiny_instance))
    second = list(find_matchings(pattern, tiny_instance))
    assert first == second


def test_negated_matching(tiny_scheme, tiny_instance):
    # people who know someone nobody else knows them back from
    positive = Pattern(tiny_scheme)
    x = positive.node("Person")
    y = positive.node("Person")
    positive.edge(x, "knows", y)
    negated = NegatedPattern(positive)
    negated.forbid_edge(y, "knows", x)
    assert len(list(find_negated(negated, tiny_instance))) == 3  # no reciprocal edges at all


def test_negated_matching_blocks(tiny_scheme, tiny_instance):
    people = sorted(tiny_instance.nodes_with_label("Person"))
    tiny_instance.add_edge(people[1], "knows", people[0])  # bob knows alice back
    positive = Pattern(tiny_scheme)
    x = positive.node("Person")
    y = positive.node("Person")
    positive.edge(x, "knows", y)
    negated = NegatedPattern(positive)
    negated.forbid_edge(y, "knows", x)
    remaining = {(m[x], m[y]) for m in find_negated(negated, tiny_instance)}
    assert (people[0], people[1]) not in remaining
    assert (people[1], people[0]) not in remaining
    assert (people[0], people[2]) in remaining


def test_fig4_matchings(hyper_scheme, hyper):
    from repro.hypermedia.figures import fig4_pattern

    db, handles = hyper
    fig4 = fig4_pattern(hyper_scheme)
    matchings = list(find_matchings(fig4.pattern, db))
    assert {m[fig4.info_bottom] for m in matchings} == {handles.doors, handles.pinkfloyd}
    assert all(m[fig4.info_top] == handles.rock_new for m in matchings)


def test_base_candidates_computed_once_per_node(tiny_scheme, tiny_instance, monkeypatch):
    """The backtracking oracle's candidate table is shared between the
    search-order heuristic and the search — one label/print scan per
    pattern node."""
    from repro.testing import matchers as matching_module
    from repro.testing.matchers import find_matchings_backtracking

    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "knows", y)

    calls = []
    original = matching_module._base_candidates

    def counting(pattern_arg, instance_arg, node):
        calls.append(node)
        return original(pattern_arg, instance_arg, node)

    monkeypatch.setattr(matching_module, "_base_candidates", counting)
    found = list(find_matchings_backtracking(pattern, tiny_instance))
    assert len(found) == 3  # alice->bob, alice->carol, bob->carol
    assert sorted(calls) == sorted(pattern.nodes())  # exactly once per node


def test_planner_scans_only_the_seed_node(tiny_scheme, tiny_instance, monkeypatch):
    """The planner-backed default never builds base-candidate sets for
    non-seed nodes — extension candidates come from index probes."""
    from repro.plan import executor as executor_module

    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "knows", y)

    calls = []
    original = executor_module._scan_seeds

    def counting(pattern_arg, instance_arg, node):
        calls.append(node)
        return original(pattern_arg, instance_arg, node)

    monkeypatch.setattr(executor_module, "_scan_seeds", counting)
    found = list(find_matchings(pattern, tiny_instance))
    assert len(found) == 3
    assert len(calls) <= 1  # at most the seed (edge seeds scan no node at all)


def test_shared_candidates_agree_with_naive(tiny_scheme, tiny_instance):
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    z = pattern.node("Person")
    pattern.edge(x, "knows", y)
    pattern.edge(y, "knows", z)
    fast = {tuple(sorted(m.items())) for m in find_matchings(pattern, tiny_instance)}
    naive = {tuple(sorted(m.items())) for m in find_matchings_naive(pattern, tiny_instance)}
    assert fast == naive
