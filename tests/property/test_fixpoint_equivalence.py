"""Differential property tests: semi-naive agrees with its references.

For random stratified rule programs over random link graphs, the
semi-naive engine, the naive full-rematch loop and the oracle (full
rematch with the textbook matcher; both in :mod:`repro.testing.fixpoint`)
must derive the same instance — the same node and edge sets up to
renaming of newly created oids, which :func:`repro.graph.isomorphic`
decides exactly.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import isomorphic
from repro.hypermedia import build_scheme
from repro.rules import RuleProgram
from repro.testing import run_naive, run_oracle
from repro.workloads import chain_instance, random_rule_program, scale_free_instance

from tests.property.strategies import seeds

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def rule_workloads(draw):
    """(instance, program) pairs: a random link graph and a random
    stratified rule program over it."""
    rng = random.Random(draw(seeds))
    scheme = build_scheme()
    if draw(st.booleans()):
        instance, _ = chain_instance(scheme, draw(st.integers(min_value=2, max_value=7)))
        nodes = list(instance.nodes())
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source != target:
                instance.add_edge(source, "links-to", target)
    else:
        instance, _ = scale_free_instance(
            rng, scheme, draw(st.integers(min_value=3, max_value=10))
        )
    rules = random_rule_program(
        rng,
        instance.scheme,
        n_levels=draw(st.integers(min_value=1, max_value=3)),
        rules_per_level=draw(st.integers(min_value=1, max_value=2)),
    )
    return instance, RuleProgram(rules)


@given(rule_workloads())
@SETTINGS
def test_seminaive_equals_naive(data):
    instance, program = data
    semi, _ = program.run(instance)
    naive, _, _ = run_naive(program, instance)
    assert isomorphic(semi.store, naive.store)


@given(rule_workloads())
@SETTINGS
def test_seminaive_equals_oracle(data):
    instance, program = data
    semi, _ = program.run(instance)
    oracle, _, _ = run_oracle(program, instance)
    assert isomorphic(semi.store, oracle.store)


@given(rule_workloads())
@SETTINGS
def test_seminaive_never_does_more_work(data):
    """Semi-naive enumerates no more matchings than full rematching."""
    instance, program = data
    program.run(instance)
    semi_work = program.last_stats.matchings_enumerated
    _, _, naive_stats = run_naive(program, instance)
    naive_work = naive_stats.matchings_enumerated
    assert semi_work <= naive_work


@given(rule_workloads())
@SETTINGS
def test_seminaive_in_place_matches_copy(data):
    instance, program = data
    copied, _ = program.run(instance)
    working = instance.copy(scheme=instance.scheme.copy())
    program.run(working, in_place=True)
    assert isomorphic(copied.store, working.store)
