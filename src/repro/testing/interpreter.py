"""The reference step interpreter for compiled match plans.

:func:`interpret_plan` walks a :class:`~repro.plan.steps.Plan` one step
at a time with a recursive generator, re-checking every candidate's
label, print value and predicate.  It is the oracle the production
executor, which compiles every plan into nested loops, is held to:
same matchings, same order.

It charges one index probe per ``Extend`` probe per binding, and one
per scan or ``Verify`` step reached.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

from repro.core import counters as _counters
from repro.core.instance import Instance
from repro.core.pattern import Pattern
from repro.graph.store import NO_PRINT
from repro.plan.steps import Extend, Plan, ScanNodes, Verify

#: A matching: pattern node id -> instance node id.
Matching = Dict[int, int]


def _seed_candidates(pattern: Pattern, instance: Instance, node: int) -> FrozenSet[int]:
    """Base candidates of a seed node (label/print/predicate indexes)."""
    record = pattern.node_record(node)
    if record.has_print:
        found = instance.find_printable(record.label, record.print_value)
        return frozenset() if found is None else frozenset((found,))
    candidates = instance.nodes_with_label(record.label)
    predicate = pattern.predicate_of(node)
    if predicate is not None:
        candidates = frozenset(
            candidate
            for candidate in candidates
            if instance.print_of(candidate) is not NO_PRINT
            and predicate(instance.print_of(candidate))
        )
    return candidates


def interpret_plan(
    plan: Plan,
    pattern: Pattern,
    instance: Instance,
    fixed: Optional[Matching] = None,
) -> Iterator[Matching]:
    """The matchings ``plan`` enumerates, one recursive step at a time.

    ``fixed`` pre-binds the plan's :attr:`~repro.plan.steps.Plan.fixed`
    nodes; like the production runner, it trusts them to satisfy their
    pattern records.
    """
    tally = [0]  # index probes (a cell the nested generator can bump)
    try:
        records = {node: pattern.node_record(node) for node in pattern.nodes()}
        predicates = {node: pattern.predicate_of(node) for node in pattern.nodes()}
        store = instance.store
        assignment: Matching = dict(fixed or {})
        steps = plan.steps

        # per Extend step, its probes as (neighbour-set map, anchor): each
        # map is resolved once per (direction, label) per call, when the
        # step is first reached, outside every candidate loop
        resolved: Dict[Tuple[str, str], Mapping[int, FrozenSet[int]]] = {}
        extend_probes: List[Optional[List[Tuple[Mapping[int, FrozenSet[int]], int]]]] = [None] * len(steps)

        def resolve(step: Extend) -> List[Tuple[Mapping[int, FrozenSet[int]], int]]:
            probes = []
            for direction, label, anchor in step.probes:
                sets = resolved.get((direction, label))
                if sets is None:
                    sets = resolved[direction, label] = store.neighbour_sets(label, direction)
                probes.append((sets, anchor))
            return probes

        label_of = instance.label_of
        print_of = instance.print_of

        def node_ok(node: int, candidate: int) -> bool:
            record = records[node]
            if label_of(candidate) != record.label:
                return False
            c_print = print_of(candidate)
            if record.has_print and record.print_value != c_print:
                return False
            predicate = predicates[node]
            if predicate is not None:
                if c_print is NO_PRINT or not predicate(c_print):
                    return False
            return True

        def run(index: int) -> Iterator[Matching]:
            if index == len(steps):
                yield dict(assignment)
                return
            step = steps[index]
            if type(step) is Extend:
                probes = extend_probes[index]
                if probes is None:
                    probes = extend_probes[index] = resolve(step)
                tally[0] += len(probes)
                if len(probes) == 1:
                    sets, anchor = probes[0]
                    result = sets[assignment[anchor]]
                else:
                    adjacency: List[FrozenSet[int]] = []
                    for sets, anchor in probes:
                        adjacency.append(sets[assignment[anchor]])
                    adjacency.sort(key=len)
                    result = adjacency[0]
                    for narrower in adjacency[1:]:
                        if not result:
                            return
                        result = result & narrower
                node = step.node
                for candidate in sorted(result):
                    if node_ok(node, candidate):
                        assignment[node] = candidate
                        yield from run(index + 1)
                        del assignment[node]
            elif type(step) is Verify:
                tally[0] += 1
                if store.has_edge(
                    assignment[step.source], step.label, assignment[step.target]
                ):
                    yield from run(index + 1)
            elif type(step) is ScanNodes:
                tally[0] += 1
                node = step.node
                for candidate in sorted(_seed_candidates(pattern, instance, node)):
                    assignment[node] = candidate
                    yield from run(index + 1)
                    del assignment[node]
            else:  # ScanEdges
                tally[0] += 1
                source, target = step.source, step.target
                if source == target:
                    for s, t in sorted(store.edges_with_label(step.label)):
                        if s == t and node_ok(source, s):
                            assignment[source] = s
                            yield from run(index + 1)
                            del assignment[source]
                else:
                    for s, t in sorted(store.edges_with_label(step.label)):
                        if node_ok(source, s) and node_ok(target, t):
                            assignment[source] = s
                            assignment[target] = t
                            yield from run(index + 1)
                            del assignment[target]
                            del assignment[source]

        yield from run(0)
    finally:
        if tally[0]:
            _counters.charge(index_probes=tally[0])
