"""Reference matchers for the planner-backed production matcher.

Both enumerate exactly the matching *set* of
:func:`repro.core.matching.find_matchings` (each in its own
deterministic order) without touching the planner, the plan cache or
the executor:

* :func:`find_matchings_backtracking` — the pre-planner backtracking
  search with a most-constrained-first variable order and
  adjacency-driven candidate pruning; the planner is property-tested
  equivalent to it and the planner benchmarks measure against it;
* :func:`find_matchings_naive` — the textbook enumeration in a fixed
  node order with post-hoc edge checks.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.instance import Instance
from repro.core.matching import Matching, _pattern_edges
from repro.core.pattern import Pattern
from repro.graph.store import NO_PRINT


def _base_candidates(pattern: Pattern, instance: Instance, pattern_node: int) -> FrozenSet[int]:
    """Candidates for one pattern node from labels/prints/predicates only."""
    record = pattern.node_record(pattern_node)
    if record.has_print:
        found = instance.find_printable(record.label, record.print_value)
        return frozenset() if found is None else frozenset((found,))
    candidates = instance.nodes_with_label(record.label)
    predicate = pattern.predicate_of(pattern_node)
    if predicate is not None:
        candidates = frozenset(
            node_id
            for node_id in candidates
            if instance.print_of(node_id) is not NO_PRINT and predicate(instance.print_of(node_id))
        )
    return candidates


def _search_order(
    pattern: Pattern,
    instance: Instance,
    fixed: Sequence[int],
    base_candidates: Dict[int, FrozenSet[int]],
) -> List[int]:
    """Most-constrained-first order, preferring nodes touching placed ones.

    Nodes already placed (``fixed``) come first implicitly; the rest are
    picked greedily by (not-adjacent-to-placed, candidate-count, id).
    ``base_candidates`` is the shared per-node candidate table — computed
    once per :func:`find_matchings_backtracking` call and reused by the
    search, so the label/print/predicate scans run once per pattern node.
    """
    remaining = [n for n in pattern.nodes() if n not in fixed]
    placed = set(fixed)
    adjacency: Dict[int, set] = {n: set() for n in pattern.nodes()}
    for source, _, target in _pattern_edges(pattern):
        adjacency[source].add(target)
        adjacency[target].add(source)
    counts = {n: len(base_candidates[n]) for n in remaining}

    # selection key is (not-adjacent-to-placed, count, id); only the
    # adjacency bit changes as nodes are placed, so one upfront sort of
    # the static (count, id) part plus a heap of nodes that *became*
    # adjacent replaces the per-iteration resort — O((V+E) log V)
    # instead of O(V^2 log V), with an enumeration order identical to
    # the old repeated-sort selection.
    static = sorted(remaining, key=lambda n: (counts[n], n))
    adjacent_heap: List[Tuple[int, int]] = []
    in_heap: set = set()

    def absorb(node: int) -> None:
        placed.add(node)
        for neighbour in adjacency[node]:
            if neighbour in counts and neighbour not in placed and neighbour not in in_heap:
                heapq.heappush(adjacent_heap, (counts[neighbour], neighbour))
                in_heap.add(neighbour)

    for node in fixed:
        absorb(node)
    order: List[int] = []
    pointer = 0
    for _ in range(len(remaining)):
        while adjacent_heap and adjacent_heap[0][1] in placed:
            heapq.heappop(adjacent_heap)
        if adjacent_heap:
            _, best = heapq.heappop(adjacent_heap)
        else:
            while static[pointer] in placed:
                pointer += 1
            best = static[pointer]
            pointer += 1
        order.append(best)
        absorb(best)
    return order


def find_matchings_backtracking(
    pattern: Pattern,
    instance: Instance,
    fixed: Optional[Matching] = None,
) -> Iterator[Matching]:
    """The pre-planner matcher, kept as a reference oracle.

    Backtracking search over per-node base-candidate sets with a
    most-constrained-first variable order and adjacency-driven
    pruning.  Unlike the planner path it recomputes every pattern
    node's base candidates per call and takes no advantage of the
    edge-label index — which is exactly what the planner benchmarks
    (``benchmarks/test_bench_planner.py``) quantify.
    """
    fixed = dict(fixed or {})
    records = {node: pattern.node_record(node) for node in pattern.nodes()}

    def node_ok(node: int, candidate: int) -> bool:
        record = records[node]
        c_record = instance.node_record(candidate)
        if c_record.label != record.label:
            return False
        if record.has_print and (
            not c_record.has_print or c_record.print_value != record.print_value
        ):
            return False
        predicate = pattern.predicate_of(node)
        if predicate is not None:
            if not c_record.has_print or not predicate(c_record.print_value):
                return False
        return True

    for pattern_node, instance_node in fixed.items():
        if not instance.has_node(instance_node) or not node_ok(pattern_node, instance_node):
            return
    edges = _pattern_edges(pattern)
    for source, label, target in edges:
        if source in fixed and target in fixed:
            if not instance.has_edge(fixed[source], label, fixed[target]):
                return

    base = {
        node: _base_candidates(pattern, instance, node)
        for node in pattern.nodes()
        if node not in fixed
    }
    order = _search_order(pattern, instance, list(fixed), base)
    out_constraints: Dict[int, List[Tuple[str, int]]] = {n: [] for n in pattern.nodes()}
    in_constraints: Dict[int, List[Tuple[str, int]]] = {n: [] for n in pattern.nodes()}
    for source, label, target in edges:
        # when `source` is placed, target candidates ⊆ out_neighbours
        out_constraints[target].append((label, source))
        in_constraints[source].append((label, target))

    assignment: Matching = dict(fixed)

    def candidates_for(node: int) -> List[int]:
        # adjacency constraints from already-placed neighbours give
        # small candidate sets; intersect those first and only fall
        # back to the (large) by-label index when none applies
        adjacency: List[FrozenSet[int]] = []
        for label, source in out_constraints[node]:
            if source != node and source in assignment:
                adjacency.append(instance.out_neighbours(assignment[source], label))
        for label, target in in_constraints[node]:
            if target != node and target in assignment:
                adjacency.append(instance.in_neighbours(assignment[target], label))
        if adjacency:
            adjacency.sort(key=len)
            result = set(adjacency[0])
            for narrower in adjacency[1:]:
                result &= narrower
                if not result:
                    return []
            result = {c for c in result if node_ok(node, c)}
        else:
            result = set(base[node])
        for label, source in out_constraints[node]:
            if source == node:
                # self-loop pattern edge: the candidate must carry the
                # edge to itself (it is not yet in `assignment` while
                # its own candidates are being computed)
                result = {c for c in result if instance.has_edge(c, label, c)}
        return sorted(result)

    def backtrack(index: int) -> Iterator[Matching]:
        if index == len(order):
            yield dict(assignment)
            return
        node = order[index]
        for candidate in candidates_for(node):
            assignment[node] = candidate
            yield from backtrack(index + 1)
            del assignment[node]

    yield from backtrack(0)


def find_matchings_naive(pattern: Pattern, instance: Instance) -> Iterator[Matching]:
    """Reference matcher: fixed node order, per-node label/print filter,
    full edge verification at the leaves.  Exponentially slower on
    large patterns; used as a differential-testing oracle."""
    nodes = list(pattern.nodes())
    edges = _pattern_edges(pattern)

    def extend(index: int, assignment: Matching) -> Iterator[Matching]:
        if index == len(nodes):
            for source, label, target in edges:
                if not instance.has_edge(assignment[source], label, assignment[target]):
                    return
            yield dict(assignment)
            return
        node = nodes[index]
        for candidate in sorted(_base_candidates(pattern, instance, node)):
            assignment[node] = candidate
            yield from extend(index + 1, assignment)
            del assignment[node]

    yield from extend(0, {})
