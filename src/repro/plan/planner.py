"""The cost-based pattern planner.

Compiles a :class:`~repro.core.pattern.Pattern` into a
:class:`~repro.plan.steps.Plan`: pick the most selective seed (a
node's label/print index or an edge label's index), then greedily
extend to the cheapest adjacent pattern node, emitting residual
``Verify`` steps as soon as both endpoints of an unconsumed edge are
bound.  Each ``Extend`` probes from *every* bound neighbour of its new
node, so a cyclic pattern closes by intersection: a triangle plans as
``ScanNodes, Extend, Extend`` with both of its closing edges on the
last step, the variable-at-a-time generic join over binary relations.

Selectivity comes from the :class:`~repro.graph.store.GraphStore`
cardinality statistics:

* a node seed costs its label's node count (1 for a fixed print value,
  halved under a print predicate);
* an edge seed costs its label's edge count;
* an extension costs the anchor label's average out-/in-degree under
  the probe's edge label — ``degree_total / label_count``.

All tie-breaking is by node id / edge triple, so compilation is fully
deterministic for a given statistics snapshot.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.core.instance import Instance
from repro.core.pattern import Pattern
from repro.plan.steps import (
    Extend,
    Plan,
    PlanStep,
    ScanEdges,
    ScanNodes,
    Verify,
)

#: Assumed selectivity of a print predicate (no value histograms).
PREDICATE_SELECTIVITY = 0.5


def _node_seed_estimate(pattern: Pattern, instance: Instance, node: int) -> Tuple[float, str]:
    """(estimated candidates, explain detail) for seeding on ``node``."""
    record = pattern.node_record(node)
    if record.has_print:
        return 1.0, f"print={record.print_value!r}"
    count = float(instance.store.label_count(record.label))
    predicate = pattern.predicate_of(node)
    if predicate is not None:
        return count * PREDICATE_SELECTIVITY, f"predicate={predicate.name}"
    return count, ""


def _probe_fanout(instance: Instance, anchor_label: str, direction: str, edge_label: str) -> float:
    """Average number of candidates one adjacency probe yields."""
    store = instance.store
    population = store.label_count(anchor_label)
    if population == 0:
        return 0.0
    if direction == "out":
        total = store.out_degree_total(anchor_label, edge_label)
    else:
        total = store.in_degree_total(anchor_label, edge_label)
    return total / population


def compile_plan(
    pattern: Pattern,
    instance: Instance,
    fixed: Sequence[int] = (),
) -> Plan:
    """Compile ``pattern`` into an executable :class:`Plan`.

    ``fixed`` names the pattern nodes that arrive pre-bound (their
    bindings are supplied at execution time); the plan treats them as
    already joined and extends outward from them.
    """
    nodes = sorted(pattern.nodes())
    edges = sorted(edge.as_tuple() for edge in pattern.edges())
    bound: Set[int] = {node for node in fixed if node in set(nodes)}
    steps: List[PlanStep] = []
    consumed: Set[Tuple[int, str, int]] = set()
    estimated_rows = 1.0

    def flush_verifies() -> None:
        """Verify every unconsumed edge whose endpoints are both bound."""
        for edge in edges:
            source, label, target = edge
            if edge not in consumed and source in bound and target in bound:
                steps.append(Verify(source, label, target))
                consumed.add(edge)

    flush_verifies()  # fixed-fixed edges are checked before any scan

    remaining = [node for node in nodes if node not in bound]
    while remaining:
        # cheapest extension of the bound frontier, if any
        best_extend: Optional[Tuple[float, int, Tuple[Tuple[str, str, int], ...]]] = None
        for node in remaining:
            probes: List[Tuple[str, str, int]] = []
            for source, label, target in edges:
                if source == target:
                    continue  # self-loops are residual Verify steps
                if target == node and source in bound:
                    probes.append(("out", label, source))
                elif source == node and target in bound:
                    probes.append(("in", label, target))
            if not probes:
                continue
            probes.sort()
            fanout = min(
                _probe_fanout(instance, pattern.node_record(anchor).label, direction, label)
                for direction, label, anchor in probes
            )
            if pattern.node_record(node).has_print:
                fanout = min(fanout, 1.0)
            candidate = (fanout, node, tuple(probes))
            if best_extend is None or candidate[:2] < best_extend[:2]:
                best_extend = candidate

        if best_extend is not None:
            fanout, node, probes = best_extend
            steps.append(Extend(node, probes, fanout))
            estimated_rows *= max(fanout, 0.0)
            bound.add(node)
            remaining.remove(node)
            # every probe edge is enforced by the intersection itself,
            # so none of them needs a residual Verify
            for direction, label, anchor in probes:
                if direction == "out":
                    consumed.add((anchor, label, node))
                else:
                    consumed.add((node, label, anchor))
        else:
            # no edge reaches the frontier: open a new component with
            # the most selective seed — a node scan or an edge scan
            best_node: Optional[Tuple[float, int]] = None
            for node in remaining:
                est, _ = _node_seed_estimate(pattern, instance, node)
                if best_node is None or (est, node) < best_node:
                    best_node = (est, node)
            best_edge: Optional[Tuple[float, Tuple[int, str, int]]] = None
            for edge in edges:
                source, label, target = edge
                if edge in consumed or source in bound or target in bound:
                    continue
                est = float(instance.store.edge_label_count(label))
                if best_edge is None or (est, edge) < best_edge:
                    best_edge = (est, edge)
            if best_edge is not None and best_edge[0] < best_node[0]:
                est, (source, label, target) = best_edge
                steps.append(ScanEdges(source, label, target, est))
                estimated_rows *= est
                consumed.add((source, label, target))
                bound.add(source)
                bound.add(target)
                remaining = [node for node in remaining if node not in (source, target)]
            else:
                est, node = best_node
                detail = _node_seed_estimate(pattern, instance, node)[1]
                record = pattern.node_record(node)
                steps.append(ScanNodes(node, record.label, detail, est))
                estimated_rows *= est
                bound.add(node)
                remaining.remove(node)
        flush_verifies()

    return Plan(
        steps=tuple(steps),
        fixed=tuple(sorted(set(fixed) & set(nodes))),
        node_count=len(nodes),
        edge_count=len(edges),
        estimated_rows=estimated_rows,
        epoch=instance.store.stats_epoch,
    )
