"""Plan execution: the planner-backed matcher.

:func:`planned_matchings` is what :func:`repro.core.matching.find_matchings`
dispatches to — it looks the pattern's plan up in the per-store cache
(compiling on miss) and streams matchings from :func:`execute_plan`.
The executor enumerates deterministically (sorted candidates at every
step) and yields exactly the set of label/print/edge-preserving total
maps — equivalence with the backtracking and textbook reference
matchers, and content-and-order equality with the reference step
interpreter kept with the test oracles, is property-tested.

Every plan is *compiled*, seeded or not: it is code-generated into one
nested-``for`` generator function with one loop per binding step.
Each ``Extend`` becomes a chain of C-level frozenset intersections
over the anchors' neighbour sets, each probe fetch and partial
intersection hoisted to the loop level of its deepest anchor variable
(the trie ordering of a variable-at-a-time generic join), with an
early ``continue`` as soon as a partial intersection comes up empty.
A ``ScanEdges`` step is one loop that binds both ends of its edge;
``Verify`` is one ``has_edge`` test.  Every probe reads the store's
per-label, per-direction neighbour-set map
(:meth:`~repro.graph.store.GraphStore.neighbour_sets`, memoized on the
edge column itself), so a fixpoint round that mutates the store never
forces an O(E log E) index rebuild.

A candidate's *label* is checked only where the scheme does not imply
it: when P admits a single label at the far end of one of the
candidate's probes (:meth:`~repro.core.scheme.Scheme.far_labels`), every
neighbour already carries it — ``Instance.edge_violation`` enforces P
on insert and LOAD validates.  Otherwise the runner tests the label
inline, per candidate; print predicates are tested inline too, and a
print constant joins the intersection chain as its one-node set.  No
step reads the per-label member set (``nodes_with_label``), a memo
that every write to the label rebuilds in O(|label|).

Runners are cached per plan *shape* — step kinds, nodes, probes, edge
labels and ``fixed``, plus the per-node checks above — not per
:class:`~repro.plan.steps.Plan` value, which also carries estimates,
the statistics epoch and print constants: one runner serves every
pilot name and survives every commit.  Code generation yields a
factory; :func:`seeded_runner` calls it with the live data (neighbour
maps, seed lists, constants), so no ``exec`` runs per call and no
reference cycle is left behind.  The generator function it returns is
what semi-naive delta rounds
(:func:`repro.core.matching.find_matchings_delta`) call once per seed.

Index probes (adjacency and edge-index reads, charged in bulk per
loop from its trip count) are tallied locally and charged to the
thread-local :mod:`repro.core.counters` collectors when the generator
finishes or is closed, so server ``STATS`` sees them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core import counters as _counters
from repro.core.instance import Instance
from repro.core.pattern import Pattern
from repro.core.scheme import Scheme
from repro.graph.columns import lookup_label
from repro.graph.store import NO_PRINT
from repro.plan.cache import plan_for
from repro.plan.steps import Extend, Plan, ScanEdges, ScanNodes, Verify

#: A matching: pattern node id -> instance node id.
Matching = Dict[int, int]

#: Compiled runner factories, keyed by plan shape and per-node checks
#: (codegen is pure in those; per-instance data is bound at call time).
MAX_COMPILED_RUNNERS = 128
_runner_cache: "OrderedDict[Hashable, Tuple[Callable[..., Any], Tuple[Tuple[str, Any], ...]]]" = OrderedDict()

#: Per-node check codes: what the runner tests of a candidate inline.
NONE, LABEL, PREDICATE, LABEL_PREDICATE, PRINT = "", "l", "f", "lf", "p"


def binding_ok(pattern: Pattern, instance: Instance, pattern_node: int, instance_node: int) -> bool:
    """Whether a pre-bound (pattern node, instance node) pair is legal."""
    if not instance.has_node(instance_node):
        return False
    p_record = pattern.node_record(pattern_node)
    if p_record.label != instance.label_of(instance_node):
        return False
    # the columnar store answers label/print lookups without building a
    # NodeRecord, so compare the raw print value (NO_PRINT never equals
    # a real value, covering the has-print check for free)
    i_print = instance.print_of(instance_node)
    if p_record.has_print and p_record.print_value != i_print:
        return False
    predicate = pattern.predicate_of(pattern_node)
    if predicate is not None:
        if i_print is NO_PRINT or not predicate(i_print):
            return False
    return True


# ----------------------------------------------------------------------
# per-node checks
# ----------------------------------------------------------------------


def _admits_only(labels: frozenset, label: str) -> bool:
    """Whether a far-end label set leaves ``label`` as the only choice."""
    return not labels or (len(labels) == 1 and label in labels)


def _check(pattern: Pattern, node: int, implied: bool) -> str:
    """The inline check code for a node whose label is ``implied`` or not."""
    record = pattern.node_record(node)
    if record.has_print:
        return PRINT
    predicate = pattern.predicate_of(node) is not None
    if implied:
        return PREDICATE if predicate else NONE
    return LABEL_PREDICATE if predicate else LABEL


def _checks(plan: Plan, pattern: Pattern, scheme: Scheme) -> Tuple[Any, ...]:
    """Per binding step, what the runner must test of each candidate.

    An ``Extend`` candidate's label is implied when any one of its
    probes admits only that label at its far end (the candidates are a
    subset of every probe's neighbours).  A ``ScanEdges`` end's label
    is implied when P admits only that label at that end of the edge
    label, whatever the other end.
    """
    codes: List[Any] = []
    for step in plan.steps:
        kind = type(step)
        if kind is Extend:
            label = pattern.node_record(step.node).label
            implied = any(
                _admits_only(
                    scheme.far_labels(edge_label, direction, pattern.node_record(anchor).label), label
                )
                for direction, edge_label, anchor in step.probes
            )
            codes.append(_check(pattern, step.node, implied))
        elif kind is ScanEdges:
            sources = scheme.far_labels(step.label, "in")
            targets = scheme.far_labels(step.label, "out")
            source_label = pattern.node_record(step.source).label
            if step.source == step.target:
                implied = _admits_only(sources, source_label) or _admits_only(targets, source_label)
                codes.append(_check(pattern, step.source, implied))
            else:
                target_label = pattern.node_record(step.target).label
                codes.append(
                    (
                        _check(pattern, step.source, _admits_only(sources, source_label)),
                        _check(pattern, step.target, _admits_only(targets, target_label)),
                    )
                )
        else:
            codes.append(None)
    return tuple(codes)


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------


def _generate_runner(plan: Plan, checks: Sequence[Any]) -> Tuple[str, Tuple[Tuple[str, Any], ...]]:
    """Source of the runner factory ``_make`` and its parameter specs.

    ``_make(*values)`` returns the generator function
    ``_runner(fixed)``, one loop per ``ScanNodes``/``ScanEdges``/
    ``Extend`` step.  Each probe operand is folded into a running
    partial intersection at the loop level of its anchor variable, so
    work that does not depend on the innermost variables happens once
    per outer binding and an empty partial prunes the whole subtree
    early.  The live data arrives as default arguments of ``_runner``,
    making every hot-loop name a local.

    The specs name, per parameter, what :func:`seeded_runner`
    binds to it.  Raises :class:`ValueError` for a step that reads a
    node no earlier step bound.
    """
    bound_depth: Dict[int, int] = {node: 0 for node in plan.fixed}
    # regions[d] holds the lines inside loop d (region 0 = preamble);
    # loops[d - 1] is the header that opens region d
    regions: List[List[str]] = [[f"f{node} = fixed[{node}]" for node in plan.fixed]]
    loops: List[Tuple[str, str]] = []
    probes_in: List[int] = [0]
    names: Dict[Tuple[str, Any], str] = {}
    depth = 0

    def param(spec: Tuple[str, Any], prefix: str) -> str:
        name = names.get(spec)
        if name is None:
            name = names[spec] = f"{prefix}{len(names)}"
        return name

    def ref(node: int) -> str:
        d = bound_depth.get(node)
        if d is None:
            raise ValueError(f"plan step reads ?{node} before any step binds it")
        return f"f{node}" if d == 0 and node in plan.fixed else f"v{node}"

    def open_loop(header: str, iterable: str, nodes: Tuple[int, ...]) -> None:
        nonlocal depth
        depth += 1
        loops.append((header, iterable))
        regions.append([])
        probes_in.append(0)
        for node in nodes:
            bound_depth[node] = depth

    def check_lines(node: int, code: str) -> None:
        var = f"v{node}"
        if LABEL in code:
            label_id_of = param(("label_id_of", None), "h")
            regions[depth].append(f"if {label_id_of}({var}) != {param(('lid', node), 'k')}: continue")
        if PREDICATE in code:
            regions[depth].append(f"x = {param(('print_of', None), 'h')}({var})")
            regions[depth].append(f"if x is NP or not {param(('pred', node), 'q')}(x): continue")
        if code == PRINT:
            regions[depth].append(f"if {var} not in {param(('print', node), 'c')}: continue")

    for step, code in zip(plan.steps, checks):
        kind = type(step)
        if kind is ScanNodes:
            probes_in[depth] += 1
            seeds = param(("seeds", step.node), "s")
            open_loop(f"for v{step.node} in {seeds}:", seeds, (step.node,))
        elif kind is ScanEdges:
            probes_in[depth] += 1
            pairs = param(("pairs", step.label), "e")
            source, target = step.source, step.target
            if source == target:
                open_loop(f"for v{source}, w{source} in {pairs}:", pairs, (source,))
                regions[depth].append(f"if v{source} != w{source}: continue")
                check_lines(source, code)
            else:
                open_loop(f"for v{source}, v{target} in {pairs}:", pairs, (source, target))
                check_lines(source, code[0])
                check_lines(target, code[1])
        elif kind is Extend:
            node = step.node
            by_depth: Dict[int, List[str]] = {}
            for direction, label, anchor in step.probes:
                expr = f"{param(('adj', (direction, label)), 'a')}[{ref(anchor)}]"
                by_depth.setdefault(bound_depth[anchor], []).append(expr)
            if not by_depth:
                raise ValueError(f"Extend on ?{node} has no probe")
            # a print constant is the fold's first operand: its one-node
            # set enforces label and value in the intersection itself
            current = param(("print", node), "c") if code == PRINT else None
            fold = 0
            for d in sorted(by_depth):
                for expr in by_depth[d]:
                    fold += 1
                    var = f"r{node}_{fold}"
                    regions[d].append(f"{var} = {expr}" if current is None else f"{var} = {current} & {expr}")
                    regions[d].append(f"if not {var}: " + ("return" if d == 0 else "continue"))
                    probes_in[d] += 1
                    current = var
            # singleton results skip the sort: order is trivially stable
            regions[depth].append(f"i{node} = {current} if len({current}) < 2 else sorted({current})")
            open_loop(f"for v{node} in i{node}:", f"i{node}", (node,))
            if code != PRINT:
                check_lines(node, code)
        elif kind is Verify:
            probes_in[depth] += 1
            has_edge = param(("has_edge", None), "h")
            label = param(("label", step.label), "l")
            regions[depth].append(
                f"if not {has_edge}({ref(step.source)}, {label}, {ref(step.target)}): "
                + ("return" if depth == 0 else "continue")
            )
        else:
            raise ValueError(f"unknown plan step {step!r}")

    loop_bound = [node for node, d in bound_depth.items() if d > 0]
    if loop_bound:
        entries = ", ".join(f"{node}: v{node}" for node in loop_bound)
        prefix = "{**fixed, " if plan.fixed else "{"
        regions[depth].append(f"yield {prefix}{entries}}}")
    else:
        regions[depth].append("yield dict(fixed)")

    used = list(names.values())
    defaults = "".join(f", {name}={name}" for name in used)
    lines = [
        f"def _make({', '.join(used)}):",
        f"    def _runner(fixed{defaults}):",
        "        probes = 0",
        "        try:",
    ]
    def charges(d: int, trips: str) -> None:
        # region d's per-entry probes, charged in bulk: times the trip
        # count of the loop that opens it (one line per binding, not per step)
        if probes_in[d]:
            lines.append(pad + f"probes += {probes_in[d]}{trips}")

    pad = "            "
    charges(0, "")
    for d, region in enumerate(regions):
        lines.extend(pad + line for line in region)
        if d < len(loops):
            header, iterable = loops[d]
            charges(d + 1, f" * len({iterable})")
            lines.append(pad + header)
            pad += "    "
    lines.append("        finally:")
    lines.append("            charge(index_probes=probes)")
    lines.append("    return _runner")
    return "\n".join(lines), tuple(names)


def _runner_factory(plan: Plan, checks: Tuple[Any, ...]):
    """The compiled factory + parameter specs for ``plan`` (LRU-cached
    per shape and checks)."""
    key = (plan.shape, checks)
    cached = _runner_cache.get(key)
    if cached is not None:
        try:
            _runner_cache.move_to_end(key)
        except KeyError:  # evicted by a concurrent reader; entry still valid
            pass
        return cached
    source, specs = _generate_runner(plan, checks)
    env: Dict[str, Any] = {"charge": _counters.charge, "NP": NO_PRINT}
    exec(compile(source, "<match-plan>", "exec"), env)
    # popping the factory leaves env (its globals) without a reference
    # back to it: no function <-> globals cycle for the collector
    compiled = (env.pop("_make"), specs)
    _runner_cache[key] = compiled
    try:
        while len(_runner_cache) > MAX_COMPILED_RUNNERS:
            _runner_cache.popitem(last=False)
    except KeyError:  # a concurrent eviction raced ours; cache stays bounded
        pass
    return compiled


def _scan_seeds(pattern: Pattern, instance: Instance, node: int) -> Sequence[int]:
    """A scan node's candidates in ascending order (label/print/predicate indexes)."""
    record = pattern.node_record(node)
    if record.has_print:
        found = instance.find_printable(record.label, record.print_value)
        return () if found is None else (found,)
    seeds = instance.store.sorted_nodes_with_label(record.label)
    predicate = pattern.predicate_of(node)
    if predicate is None:
        return seeds
    print_of = instance.print_of
    kept = []
    for candidate in seeds:
        value = print_of(candidate)
        if value is not NO_PRINT and predicate(value):
            kept.append(candidate)
    return kept


def seeded_runner(plan: Plan, pattern: Pattern, instance: Instance) -> Callable[[Matching], Iterator[Matching]]:
    """The compiled runner bound to live data: ``fixed -> Iterator[Matching]``.

    Returns the generator *function*, so callers with many seeds — the
    semi-naive delta path, :func:`repro.core.matching.find_matchings_delta`
    — pay this setup once per plan and a single generator per seed.
    Callers must validate the seed bindings themselves
    (:func:`binding_ok`) — the runner assumes the fixed nodes already
    satisfy their pattern records.
    """
    make, specs = _runner_factory(plan, _checks(plan, pattern, instance.scheme))
    store = instance.store
    values: List[Any] = []
    for kind, arg in specs:
        if kind == "adj":
            values.append(store.neighbour_sets(arg[1], arg[0]))
        elif kind == "seeds":
            values.append(_scan_seeds(pattern, instance, arg))
        elif kind == "print":
            values.append(frozenset(_scan_seeds(pattern, instance, arg)))
        elif kind == "pairs":
            values.append(sorted(store.edges_with_label(arg)))
        elif kind == "lid":
            values.append(lookup_label(pattern.node_record(arg).label))
        elif kind == "pred":
            values.append(pattern.predicate_of(arg))
        elif kind == "label":
            values.append(arg)
        elif kind == "has_edge":
            values.append(store.has_edge)
        elif kind == "label_id_of":
            values.append(store.label_id_of)
        else:  # "print_of"
            values.append(store.print_of)
    return make(*values)


def execute_plan(
    plan: Plan,
    pattern: Pattern,
    instance: Instance,
    fixed: Optional[Matching] = None,
) -> Iterator[Matching]:
    """Stream the matchings ``plan`` enumerates, deterministically.

    A dispatcher, not a generator: the compiled runner's generator is
    returned directly (no extra frame per match).  ``fixed`` must bind
    exactly the nodes the plan was compiled for (:attr:`Plan.fixed`).
    """
    fixed = dict(fixed or {})
    if sorted(fixed) != list(plan.fixed):
        raise ValueError(f"plan was compiled for fixed nodes {list(plan.fixed)}, given {sorted(fixed)}")
    for pattern_node, instance_node in fixed.items():
        if not binding_ok(pattern, instance, pattern_node, instance_node):
            return iter(())
    return seeded_runner(plan, pattern, instance)(fixed)


def planned_matchings(
    pattern: Pattern,
    instance: Instance,
    fixed: Optional[Matching] = None,
) -> Iterator[Matching]:
    """Plan (through the cache) and execute in one call.

    This is the default matcher behind
    :func:`repro.core.matching.find_matchings`.
    """
    plan, _ = plan_for(pattern, instance, tuple(fixed) if fixed else ())
    yield from execute_plan(plan, pattern, instance, fixed)
