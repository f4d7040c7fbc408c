"""Pattern matching (Section 3).

A *matching* of a pattern ``J = (M, F)`` in an instance ``I = (N, E)``
is a **total mapping** ``i : M → N`` such that

* labels are preserved: ``λ(i(m)) = λ(m)``;
* defined print values are preserved: ``print(i(m)) = print(m)``;
* edges are preserved: ``(m, α, n) ∈ F ⟹ (i(m), α, i(n)) ∈ E``.

Matchings are graph homomorphisms — they need *not* be injective (two
pattern nodes may map to the same instance node), and the instance may
contain arbitrarily more structure around the image.

Two matchers are provided:

* :func:`find_matchings` — dispatches to the cost-based planner
  (:mod:`repro.plan`), which compiles the pattern into a cached,
  selectivity-ordered index-join plan and executes it;
* :func:`find_matchings_delta` — delta-constrained matching: only the
  matchings that touch a recorded :class:`~repro.graph.store.Delta`
  are enumerated, by seeding planned searches from each delta item
  (the engine behind semi-naive fixpoint evaluation).

Both enumerate matchings in a deterministic order.  The reference
matchers they are property-tested against live with the other test
oracles, outside the production import graph (DESIGN.md, "What runs in
production").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.instance import Instance
from repro.core.pattern import NegatedPattern, Pattern
from repro.graph.store import Delta
from repro.plan.cache import plan_for
from repro.plan.executor import binding_ok as _binding_ok
from repro.plan.executor import planned_matchings as _planned_matchings
from repro.plan.executor import seeded_runner

#: A matching: pattern node id -> instance node id.
Matching = Dict[int, int]


def _pattern_edges(pattern: Pattern) -> List[Tuple[int, str, int]]:
    return [edge.as_tuple() for edge in pattern.edges()]


def find_matchings(
    pattern: Pattern,
    instance: Instance,
    fixed: Optional[Matching] = None,
) -> Iterator[Matching]:
    """Enumerate all matchings of ``pattern`` in ``instance``.

    ``fixed`` pre-binds some pattern nodes to instance nodes; only
    extensions of ``fixed`` are produced (this powers the negation
    macro's "can this positive matching be enlarged?" test).  The empty
    pattern yields exactly one (empty) matching.

    This dispatches to the planner-backed executor (:mod:`repro.plan`):
    the pattern is compiled into a selectivity-ordered index-join plan
    (cached per pattern signature and statistics epoch) and executed
    against the store's secondary indexes.
    """
    return _planned_matchings(pattern, instance, fixed)


def find_matchings_delta(
    pattern: Pattern,
    instance: Instance,
    delta: Delta,
) -> Iterator[Matching]:
    """Matchings of ``pattern`` that touch ``delta`` — the semi-naive core.

    Enumerates exactly the matchings of ``pattern`` in ``instance``
    where at least one pattern edge maps onto a delta edge or at least
    one pattern node maps onto a delta node.  Matchings entirely inside
    the pre-delta instance are *not* produced — they were already
    enumerated when their own delta was new, which is what turns a
    fixpoint's O(rounds × full-match) cost into O(total-derived).

    The search is seeded: for every (pattern edge, delta edge) pair
    with equal labels the edge's endpoints are pre-bound, and for every
    (pattern node, delta node) pair with a compatible label the node is
    pre-bound; each seed runs the plan compiled for that pre-binding.
    A matching reachable from several seeds is yielded once (first seed
    wins), and the seed order is deterministic (pattern items in
    pattern order, delta items sorted), so the overall enumeration
    order is deterministic.

    The per-seed path is deliberately lean — a fixpoint executes it
    once per delta item per round, and its constant factor is what
    decides whether semi-naive beats full rematching on shallow
    workloads.  Delta items come from the delta's memoized sorted
    views, bucketed by label once (edges liveness-checked with an O(1)
    store probe); each pattern edge plans **once** through the plan
    cache and gets a :func:`repro.plan.executor.seeded_runner` — a
    compiled nested-loop generator instantiated once, invoked per seed
    — instead of re-hashing the pattern signature and rebuilding an
    interpreter frame stack for every delta edge.  Seed-binding
    validation is memoized per (pattern node, instance node), since
    delta edges share endpoints heavily.

    Callers are responsible for guard/counter charging, exactly like
    :func:`find_matchings`.
    """
    if delta.is_empty:
        return
    pattern_nodes = sorted(pattern.nodes())
    if not pattern_nodes:
        # the empty pattern's single empty matching maps nothing into
        # the delta, so semi-naive correctly yields nothing
        return
    store = instance.store
    seen: Set[Tuple[int, ...]] = set()

    delta_edges_by_label: Dict[str, List[Tuple[int, int]]] = {}
    for source, label, target in delta.sorted_edges():
        if store.has_edge(source, label, target):
            delta_edges_by_label.setdefault(label, []).append((source, target))
    delta_nodes_by_label: Dict[str, List[int]] = {}
    for node in delta.sorted_nodes():
        if instance.has_node(node):
            delta_nodes_by_label.setdefault(instance.label_of(node), []).append(node)

    ok_cache: Dict[Tuple[int, int], bool] = {}

    def binding_ok(pattern_node: int, instance_node: int) -> bool:
        key = (pattern_node, instance_node)
        ok = ok_cache.get(key)
        if ok is None:
            ok = ok_cache[key] = _binding_ok(pattern, instance, pattern_node, instance_node)
        return ok

    def runner_for(fixed_keys: Tuple[int, ...]):
        plan, _ = plan_for(pattern, instance, fixed_keys)
        return seeded_runner(plan, pattern, instance)

    def emit(found: Iterator[Matching]) -> Iterator[Matching]:
        for matching in found:
            key = tuple(matching[node] for node in pattern_nodes)
            if key not in seen:
                seen.add(key)
                yield matching

    for p_source, p_label, p_target in _pattern_edges(pattern):
        pairs = delta_edges_by_label.get(p_label)
        if not pairs:
            continue
        if p_source == p_target:
            run = runner_for((p_source,))
            for source, target in pairs:
                if source == target and binding_ok(p_source, source):
                    yield from emit(run({p_source: source}))
        else:
            run = runner_for((p_source, p_target))
            for source, target in pairs:
                if binding_ok(p_source, source) and binding_ok(p_target, target):
                    yield from emit(run({p_source: source, p_target: target}))
    for p_node in pattern_nodes:
        record = pattern.node_record(p_node)
        nodes = delta_nodes_by_label.get(record.label)
        if not nodes:
            continue
        run = runner_for((p_node,))
        for node in nodes:
            if binding_ok(p_node, node):
                yield from emit(run({p_node: node}))


def find_negated(negated: NegatedPattern, instance: Instance) -> Iterator[Matching]:
    """Matchings of a crossed pattern (Fig. 26 semantics).

    Yields the matchings of the positive part that cannot be enlarged
    to a matching of any crossed extension.  Pure — no constants are
    materialised here; callers that need the system-given-printables
    behaviour go through an operation or ``macros.match_negated``.
    """
    shared = list(negated.positive.nodes())
    for matching in find_matchings(negated.positive, instance):
        fixed = {node: matching[node] for node in shared}
        blocked = any(
            match_exists(extension, instance, fixed=fixed) for extension in negated.extensions
        )
        if not blocked:
            yield matching


def find_any(pattern, instance: Instance) -> Iterator[Matching]:
    """Dispatch on plain vs crossed patterns."""
    if isinstance(pattern, NegatedPattern):
        return find_negated(pattern, instance)
    return find_matchings(pattern, instance)


def match_exists(pattern: Pattern, instance: Instance, fixed: Optional[Matching] = None) -> bool:
    """Whether at least one matching (extending ``fixed``) exists."""
    for _ in find_matchings(pattern, instance, fixed):
        return True
    return False


def count_matchings(pattern: Pattern, instance: Instance) -> int:
    """Number of matchings of ``pattern`` in ``instance``."""
    return sum(1 for _ in find_matchings(pattern, instance))
