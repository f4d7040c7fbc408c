"""Property tests: matchings are exactly the label/print/edge-preserving
total maps, and the optimized matcher equals the naive oracle."""

from hypothesis import given, settings

from repro.core import find_matchings
from repro.graph.store import NO_PRINT
from repro.testing import find_matchings_naive

from tests.property.strategies import instances_with_patterns

SETTINGS = settings(max_examples=60, deadline=None)


@given(instances_with_patterns())
@SETTINGS
def test_matcher_equals_naive_oracle(data):
    scheme, instance, pattern = data
    fast = sorted(tuple(sorted(m.items())) for m in find_matchings(pattern, instance))
    naive = sorted(tuple(sorted(m.items())) for m in find_matchings_naive(pattern, instance))
    assert fast == naive


@given(instances_with_patterns())
@SETTINGS
def test_every_matching_is_a_homomorphism(data):
    scheme, instance, pattern = data
    for matching in find_matchings(pattern, instance):
        # total
        assert set(matching) == set(pattern.nodes())
        for node in pattern.nodes():
            image = matching[node]
            record = pattern.node_record(node)
            assert instance.label_of(image) == record.label
            if record.has_print:
                assert instance.print_of(image) == record.print_value
            predicate = pattern.predicate_of(node)
            if predicate is not None:
                value = instance.print_of(image)
                assert value is not NO_PRINT and predicate(value)
        for edge in pattern.edges():
            assert instance.has_edge(matching[edge.source], edge.label, matching[edge.target])


@given(instances_with_patterns())
@SETTINGS
def test_matchings_deterministic_and_duplicate_free(data):
    scheme, instance, pattern = data
    first = [tuple(sorted(m.items())) for m in find_matchings(pattern, instance)]
    second = [tuple(sorted(m.items())) for m in find_matchings(pattern, instance)]
    assert first == second
    assert len(first) == len(set(first))


@given(instances_with_patterns())
@SETTINGS
def test_fixed_bindings_select_a_subset(data):
    scheme, instance, pattern = data
    all_matchings = list(find_matchings(pattern, instance))
    if not all_matchings or pattern.node_count == 0:
        return
    probe = all_matchings[0]
    node = sorted(probe)[0]
    fixed = {node: probe[node]}
    restricted = list(find_matchings(pattern, instance, fixed=fixed))
    expected = [m for m in all_matchings if m[node] == probe[node]]
    def key(ms):
        return sorted(tuple(sorted(m.items())) for m in ms)

    assert key(restricted) == key(expected)
