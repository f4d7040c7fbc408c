"""Unit tests for the semi-naive machinery: change tracking, the
delta-constrained matcher, and the delta-driven fixpoint engine."""

import pytest

from repro.core import EdgeAddition, Instance, NegatedPattern, Pattern
from repro.core import counters
from repro.core.matching import find_matchings, find_matchings_delta
from repro.graph import Delta, GraphStore, GraphStoreError
from repro.rules import Rule, RuleProgram, StratificationError
from repro.testing import run_naive, run_oracle
from repro.txn import guards

from tests.conftest import person_pattern
from tests.unit.test_rules import closure_rules


# ----------------------------------------------------------------------
# change tracking
# ----------------------------------------------------------------------


def test_store_generation_is_monotone():
    store = GraphStore()
    g0 = store.generation
    a = store.add_node("Person")
    b = store.add_node("Person")
    assert store.generation > g0
    g1 = store.generation
    store.add_edge(a, "knows", b)
    assert store.generation > g1
    g2 = store.generation
    store.remove_edge(a, "knows", b)
    assert store.generation > g2


def test_store_tracking_records_additions():
    store = GraphStore()
    a = store.add_node("Person")
    delta = store.start_tracking()
    assert delta.is_empty
    b = store.add_node("Person")
    store.add_edge(a, "knows", b)
    store.stop_tracking(delta)
    assert delta.nodes == {b}
    assert delta.edges == {(a, "knows", b)}
    assert len(delta) == 2
    # additions after detach are not recorded
    store.add_node("Person")
    assert delta.nodes == {b}


def test_tracking_retracts_removed_items():
    store = GraphStore()
    a = store.add_node("Person")
    delta = store.start_tracking()
    b = store.add_node("Person")
    store.add_edge(a, "knows", b)
    store.remove_node(b)  # cascades the edge
    store.stop_tracking(delta)
    assert delta.is_empty


def test_duplicate_edge_not_recorded():
    store = GraphStore()
    a = store.add_node("Person")
    b = store.add_node("Person")
    store.add_edge(a, "knows", b)
    delta = store.start_tracking()
    assert store.add_edge(a, "knows", b) is False
    store.stop_tracking(delta)
    assert delta.is_empty


def test_stop_tracking_unattached_delta_raises():
    store = GraphStore()
    with pytest.raises(GraphStoreError):
        store.stop_tracking(Delta())


def test_copy_does_not_carry_trackers():
    store = GraphStore()
    delta = store.start_tracking()
    clone = store.copy()
    clone.add_node("Person")
    assert delta.is_empty
    store.stop_tracking(delta)


def test_delta_merge_unions_both_sets():
    left = Delta(nodes={1}, edges={(1, "a", 2)}, start_generation=5)
    right = Delta(nodes={3}, edges={(3, "a", 1)}, start_generation=2)
    left.merge(right)
    assert left.nodes == {1, 3}
    assert left.edges == {(1, "a", 2), (3, "a", 1)}
    assert left.start_generation == 2
    assert left.sorted_nodes() == [1, 3]


def test_instance_track_changes_nests(tiny_scheme, tiny_instance):
    with tiny_instance.track_changes() as outer:
        first = tiny_instance.add_object("Person")
        with tiny_instance.track_changes() as inner:
            second = tiny_instance.add_object("Person")
        third = tiny_instance.add_object("Person")
    assert outer.nodes == {first, second, third}
    assert inner.nodes == {second}


def test_operation_report_to_delta(tiny_scheme, tiny_instance):
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "knows", y)
    op = EdgeAddition(pattern, [(y, "back", x)], new_label_kinds={"back": "multivalued"})
    report = op.apply(tiny_instance)
    delta = report.to_delta()
    assert delta.edges == {(e.source, e.label, e.target) for e in report.edges_added}
    assert delta.nodes == set(report.nodes_added)


# ----------------------------------------------------------------------
# delta-constrained matching
# ----------------------------------------------------------------------


def knows_pattern(scheme):
    pattern = Pattern(scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "knows", y)
    return pattern, x, y


def test_empty_delta_yields_nothing(tiny_scheme, tiny_instance):
    pattern, _, _ = knows_pattern(tiny_scheme)
    assert list(find_matchings_delta(pattern, tiny_instance, Delta())) == []


def test_delta_matchings_touch_the_delta(tiny_scheme, tiny_instance):
    pattern, x, y = knows_pattern(tiny_scheme)
    people = sorted(tiny_instance.nodes_with_label("Person"))
    carol = people[2]
    with tiny_instance.track_changes() as delta:
        dave = tiny_instance.add_object("Person")
        tiny_instance.add_edge(carol, "knows", dave)
    found = list(find_matchings_delta(pattern, tiny_instance, delta))
    # exactly the matchings using the new edge (the new node has no
    # other incident knows edge)
    assert [(m[x], m[y]) for m in found] == [(carol, dave)]


def test_delta_matchings_equal_full_minus_old(tiny_scheme, tiny_instance):
    """Full matchings after a change = old matchings ∪ delta matchings."""
    pattern, x, y = knows_pattern(tiny_scheme)
    before = {(m[x], m[y]) for m in find_matchings(pattern, tiny_instance)}
    people = sorted(tiny_instance.nodes_with_label("Person"))
    with tiny_instance.track_changes() as delta:
        dave = tiny_instance.add_object("Person")
        tiny_instance.add_edge(people[2], "knows", dave)
        tiny_instance.add_edge(dave, "knows", people[0])
    after = {(m[x], m[y]) for m in find_matchings(pattern, tiny_instance)}
    from_delta = {(m[x], m[y]) for m in find_matchings_delta(pattern, tiny_instance, delta)}
    assert after - before <= from_delta <= after


def test_delta_matchings_deduplicate(tiny_scheme, tiny_instance):
    """A matching touching two delta items is enumerated once."""
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    z = pattern.node("Person")
    pattern.edge(x, "knows", y)
    pattern.edge(y, "knows", z)
    people = sorted(tiny_instance.nodes_with_label("Person"))
    with tiny_instance.track_changes() as delta:
        dave = tiny_instance.add_object("Person")
        eve = tiny_instance.add_object("Person")
        tiny_instance.add_edge(people[2], "knows", dave)
        tiny_instance.add_edge(dave, "knows", eve)
    found = [(m[x], m[y], m[z]) for m in find_matchings_delta(pattern, tiny_instance, delta)]
    assert len(found) == len(set(found))
    assert (people[2], dave, eve) in found


def test_node_seeded_delta_matchings(tiny_scheme, tiny_instance):
    pattern, person = person_pattern(tiny_scheme)
    with tiny_instance.track_changes() as delta:
        dave = tiny_instance.add_object("Person")
    found = [m[person] for m in find_matchings_delta(pattern, tiny_instance, delta)]
    assert found == [dave]


def test_self_loop_delta_seed(tiny_scheme, tiny_instance):
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    pattern.edge(x, "knows", x)
    people = sorted(tiny_instance.nodes_with_label("Person"))
    with tiny_instance.track_changes() as delta:
        tiny_instance.add_edge(people[0], "knows", people[0])
        tiny_instance.add_edge(people[0], "knows", people[1])
    found = [m[x] for m in find_matchings_delta(pattern, tiny_instance, delta)]
    assert found == [people[0]]


# ----------------------------------------------------------------------
# stratification: slow-growing negative cycles
# ----------------------------------------------------------------------


def test_slow_growing_negative_cycle_rejected(tiny_scheme):
    """A 3-label negative cycle whose levels climb ~1 per cycle length.

    With the old magnitude check (level > #labels + 1) the relaxation
    budget ran out while every level was still small, and the cycle
    sneaked through; exhaustion itself must raise.
    """
    private = tiny_scheme.copy()
    for label in ("ea", "eb", "ec"):
        private.declare("Person", label, "Person", functional=False)

    def edge_rule(name, body_label, head_label, negate=None):
        pattern = Pattern(private)
        x = pattern.node("Person")
        y = pattern.node("Person")
        pattern.edge(x, body_label, y)
        source = pattern
        if negate is not None:
            source = NegatedPattern(pattern)
            extension = pattern.copy()
            extension.add_edge(x, negate, y)
            source.forbid(extension)
        return Rule(name, EdgeAddition(source, [(x, head_label, y)]))

    program = RuleProgram(
        [
            edge_rule("ra", "knows", "ea", negate="eb"),  # ea >= eb + 1
            edge_rule("rb", "ec", "eb"),  #                 eb >= ec
            edge_rule("rc", "ea", "ec"),  #                 ec >= ea
        ]
    )
    with pytest.raises(StratificationError):
        program.strata()


# ----------------------------------------------------------------------
# the semi-naive engine
# ----------------------------------------------------------------------


def knows_chain(scheme, length):
    db = Instance(scheme)
    people = [db.add_object("Person") for _ in range(length)]
    for left, right in zip(people, people[1:]):
        db.add_edge(left, "knows", right)
    return db, people


def test_run_takes_no_strategy(tiny_scheme):
    program = RuleProgram(closure_rules(tiny_scheme))
    db, _ = knows_chain(tiny_scheme, 3)
    with pytest.raises(TypeError):
        program.run(db, strategy="naive")


def test_seminaive_matches_naive_and_oracle(tiny_scheme):
    program = RuleProgram(closure_rules(tiny_scheme))
    db, people = knows_chain(tiny_scheme, 8)
    semi, _ = program.run(db)
    naive, _, _ = run_naive(program, db)
    oracle, _, _ = run_oracle(program, db)
    expected = {
        (people[i], people[j]) for i in range(8) for j in range(i + 1, 8)
    }
    for result in (semi, naive, oracle):
        reached = {
            (s, t)
            for s in result.nodes()
            for t in result.out_neighbours(s, "reaches")
        }
        assert reached == expected


def test_seminaive_stats_shape(tiny_scheme):
    program = RuleProgram(closure_rules(tiny_scheme))
    db, _ = knows_chain(tiny_scheme, 8)
    program.run(db)
    stats = program.last_stats
    assert stats.strategy == "seminaive"
    assert stats.rounds[0].mode == "full"
    assert all(r.mode == "delta" for r in stats.rounds[1:])
    assert stats.total_rounds >= 3
    # the whole point: later rounds enumerate fewer matchings
    per_round = stats.per_round_matchings()
    assert per_round[-1] < per_round[0]
    payload = stats.to_json()
    assert payload["rounds"] == stats.total_rounds
    assert payload["delta_matchings"] == stats.delta_matchings
    assert len(payload["per_round"]) == stats.total_rounds


def test_seminaive_does_less_matching_work(tiny_scheme):
    program = RuleProgram(closure_rules(tiny_scheme))
    db, _ = knows_chain(tiny_scheme, 10)
    program.run(db)
    semi_work = program.last_stats.matchings_enumerated
    _, _, naive_stats = run_naive(program, db)
    naive_work = naive_stats.matchings_enumerated
    assert semi_work < naive_work / 2


def test_counters_tally_engine_work(tiny_scheme):
    program = RuleProgram(closure_rules(tiny_scheme))
    db, _ = knows_chain(tiny_scheme, 6)
    with counters.collect() as tally:
        program.run(db)
    assert tally.fixpoint_runs == 1
    assert tally.rounds == program.last_stats.total_rounds
    assert tally.delta_matchings == program.last_stats.delta_matchings
    assert tally.full_matchings >= program.last_stats.full_matchings
    assert tally.matchings == tally.full_matchings + tally.delta_matchings


def test_guards_charge_delta_matchings(tiny_scheme):
    program = RuleProgram(closure_rules(tiny_scheme))
    db, _ = knows_chain(tiny_scheme, 6)
    with guards.limits(max_matchings=100_000) as guard:
        program.run(db)
    assert guard.delta_matchings_used > 0
    assert guard.matchings_used >= guard.delta_matchings_used


def test_negated_rules_fall_back_to_full_rounds(tiny_scheme, tiny_instance):
    """A stratum with a crossed condition stays on full matching."""
    private = tiny_scheme.copy()
    private.declare("Person", "reaches", "Person", functional=False)
    private.declare("Person", "isolated-from", "Person", functional=False)
    rules = closure_rules(tiny_scheme)
    pattern = Pattern(private)
    x = pattern.node("Person")
    y = pattern.node("Person")
    negated = NegatedPattern(pattern)
    extension = pattern.copy()
    extension.add_edge(x, "reaches", y)
    negated.forbid(extension)
    rules.append(
        Rule(
            "apart",
            EdgeAddition(
                negated,
                [(x, "isolated-from", y)],
                new_label_kinds={"isolated-from": "multivalued"},
            ),
        )
    )
    program = RuleProgram(rules)
    semi, _ = program.run(tiny_instance)
    naive, _, _ = run_naive(program, tiny_instance)
    for result in (semi, naive):
        assert result.nodes_with_label("Person")
    semi_pairs = {
        (s, t)
        for s in semi.nodes()
        for t in semi.out_neighbours(s, "isolated-from")
    }
    naive_pairs = {
        (s, t)
        for s in naive.nodes()
        for t in naive.out_neighbours(s, "isolated-from")
    }
    assert semi_pairs == naive_pairs
