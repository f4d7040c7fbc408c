"""Plan execution: the planner-backed matcher.

:func:`planned_matchings` is what :func:`repro.core.matching.find_matchings`
dispatches to — it looks the pattern's plan up in the per-store cache
(compiling on miss) and streams matchings from :func:`execute_plan`.
The executor enumerates deterministically (sorted candidates at every
step) and yields exactly the set of label/print/edge-preserving total
maps — equivalence with the backtracking and textbook reference
matchers is property-tested.

Left-deep plans run on a recursive step interpreter.  Multiway plans
(:attr:`Plan.strategy` == ``"multiway"``) are *compiled*: the plan is
code-generated into one nested-``for`` generator function in which
every :class:`~repro.plan.steps.MultiwayIntersect` becomes a chain of
C-level set intersections, each probe fetch and partial intersection
hoisted to the loop level of its deepest anchor variable — the trie
ordering of leapfrog triejoin — with an early ``continue`` as soon as
any partial intersection comes up empty.  That removes the two costs
that dominate the interpreter on cyclic patterns (a generator frame
per binding and a per-candidate label/print re-check; candidates come
out of the intersection already label-checked), which is where the
multiway plan's measured speedup comes from.  The interpreter keeps a
``MultiwayIntersect`` branch built on the galloping k-way
:func:`~repro.plan.leapfrog.intersect_sorted` as the reference path —
tests run both and assert identical output.

*Seeded* plans (``plan.fixed`` non-empty) compile too, whatever their
strategy — ``Extend`` folds into the same intersection chains,
subscripting the store's per-label, per-direction neighbour-set map
(:meth:`~repro.graph.store.GraphStore.neighbour_sets`, memoized on the
edge column itself) rather than a sorted-adjacency index: a fixpoint
round mutates the store between rounds, and rebuilding a full CSR
index per round would cost O(E log E) each time — exactly the wrong
trade for delta seeding.  The interpreter resolves the same maps once
per call, outside its candidate loops.  :func:`seeded_runner` instantiates
one runner per plan and hands back a plain callable, so semi-naive
delta rounds (:func:`repro.core.matching.find_matchings_delta`) pay
the per-plan setup once and a single generator per seed — not a plan
lookup, a signature hash and an interpreter frame stack per delta
edge.  Unseeded left-deep plans stay on the interpreter: they
amortise its overhead over a whole enumeration, and they are the
baseline the multiway benchmarks measure against.

Index probes (adjacency and edge-index reads), leapfrog seeks and
multiway intersections are tallied locally and charged to the
thread-local :mod:`repro.core.counters` collectors when the generator
finishes or is closed, so server ``STATS`` sees them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core import counters as _counters
from repro.core.instance import Instance
from repro.core.pattern import Pattern
from repro.graph.store import NO_PRINT
from repro.plan.cache import plan_for
from repro.plan.leapfrog import intersect_sorted
from repro.plan.steps import Extend, MultiwayIntersect, Plan, ScanEdges, ScanNodes, Verify

#: A matching: pattern node id -> instance node id.
Matching = Dict[int, int]

#: Compiled nested-loop runners, keyed by plan (codegen is pure in the
#: plan shape; per-instance data is injected at call time).
MAX_COMPILED_RUNNERS = 128
_runner_cache: "OrderedDict[Plan, Tuple[Any, Dict[str, Any]]]" = OrderedDict()


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
# compiled multiway runner
# ----------------------------------------------------------------------


def _generate_runner(plan: Plan) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Source text + environment spec for a compilable plan, or ``None``.

    The generated generator function binds one loop per ``ScanNodes``/
    ``MultiwayIntersect``/``Extend`` step (the latter two share the
    fold; only ``MultiwayIntersect`` counts as an intersection).  Each
    operand (a lazy per-node frozenset over the label's adjacency — a
    sorted-adjacency index's span sets or the store's neighbour-set
    map, chosen at instantiation — or the node's label/print
    constraint set) is folded into a running
    partial intersection at the loop level of its anchor variable, so
    work that does not depend on the innermost variables happens once
    per outer binding and an empty partial prunes the whole subtree
    early.  All per-instance data arrives through default arguments,
    making every hot-loop name a local.

    Returns ``None`` when the plan contains a step the generator does
    not model (the caller falls back to the interpreter).
    """
    bound_depth: Dict[int, int] = {node: 0 for node in plan.fixed}
    # regions[d] holds the lines inside loop d (region 0 = preamble);
    # loops[d - 1] describes the loop that opens region d
    regions: List[List[str]] = [[f"f{node} = fixed[{node}]" for node in plan.fixed]]
    loops: List[Tuple[int, str]] = []
    probes_in: List[int] = [0]
    meets_in: List[int] = [0]
    labels: Dict[str, str] = {}
    adjacency: Dict[Tuple[str, str], str] = {}
    scan_nodes: List[int] = []
    mw_nodes: List[int] = []
    depth = 0

    def label_ref(label: str) -> str:
        name = labels.get(label)
        if name is None:
            name = labels[label] = f"l{len(labels)}"
        return name

    def adjacency_ref(direction: str, label: str) -> str:
        name = adjacency.get((direction, label))
        if name is None:
            name = adjacency[(direction, label)] = f"a{len(adjacency)}"
        return name

    def ref(node: int) -> Optional[str]:
        d = bound_depth.get(node)
        if d is None:
            return None
        return f"f{node}" if d == 0 and node in plan.fixed else f"v{node}"

    def open_loop(node: int, iterable: str) -> None:
        nonlocal depth
        depth += 1
        loops.append((node, iterable))
        regions.append([])
        probes_in.append(0)
        meets_in.append(0)
        bound_depth[node] = depth

    for step in plan.steps:
        kind = type(step)
        if kind is ScanNodes:
            probes_in[depth] += 1
            scan_nodes.append(step.node)
            open_loop(step.node, f"seeds{step.node}")
        elif kind is MultiwayIntersect or kind is Extend:
            node = step.node
            by_depth: Dict[int, List[str]] = {}
            for direction, label, anchor in step.probes:
                anchor_ref = ref(anchor)
                if anchor_ref is None:
                    return None
                expr = f"{adjacency_ref(direction, label)}[{anchor_ref}]"
                by_depth.setdefault(bound_depth[anchor], []).append(expr)
            if not by_depth:
                return None
            mw_nodes.append(node)
            current = f"c{node}"
            fold = 0
            for d in sorted(by_depth):
                for expr in by_depth[d]:
                    fold += 1
                    var = f"r{node}_{fold}"
                    regions[d].append(f"{var} = {current} & {expr}")
                    regions[d].append(
                        f"if not {var}: " + ("return" if d == 0 else "continue")
                    )
                    probes_in[d] += 1
                    current = var
            if kind is MultiwayIntersect:
                meets_in[max(by_depth)] += 1
            # singleton results skip the sort: order is trivially stable
            open_loop(node, f"{current} if len({current}) < 2 else sorted({current})")
        elif kind is Verify:
            source_ref, target_ref = ref(step.source), ref(step.target)
            if source_ref is None or target_ref is None:
                return None
            probes_in[depth] += 1
            regions[depth].append(
                f"if not he({source_ref}, {label_ref(step.label)}, {target_ref}): "
                + ("return" if depth == 0 else "continue")
            )
        else:
            return None

    loop_bound = [node for node, d in bound_depth.items() if d > 0]
    if loop_bound:
        entries = ", ".join(f"{node}: v{node}" for node in loop_bound)
        prefix = "{**fixed, " if plan.fixed else "{"
        regions[depth].append(f"yield {prefix}{entries}}}")
    else:
        regions[depth].append("yield dict(fixed)")

    env_names = (
        list(adjacency.values())
        + list(labels.values())
        + [f"c{node}" for node in mw_nodes]
        + [f"seeds{node}" for node in scan_nodes]
        + (["he"] if labels else [])
    )
    defaults = "".join(f", {name}={name}" for name in env_names)
    lines = [f"def _runner(fixed, tally{defaults}):", "    probes = 0", "    meets = 0", "    try:"]
    pad = "        "
    if probes_in[0] or meets_in[0]:
        lines.append(pad + f"probes += {probes_in[0]}; meets += {meets_in[0]}")
    for d, region in enumerate(regions):
        if (
            d < len(loops)
            and region
            and region[-1] == f"if not {loops[d][1].split(' ')[0]}: continue"
        ):
            # the loop over an empty candidate set is its own guard
            region = region[:-1]
        lines.extend(pad + line for line in region)
        if d < len(loops):
            node, iterable = loops[d]
            if " " in iterable:  # a conditional expression, not a bare name
                lines.append(pad + f"i{node} = {iterable}")
                iterable = f"i{node}"
            # the next region's per-iteration tallies, charged in bulk
            # from the trip count (one line per binding, not per step)
            inner_probes, inner_meets = probes_in[d + 1], meets_in[d + 1]
            if inner_probes or inner_meets:
                lines.append(pad + f"n{node} = len({iterable})")
                charges = []
                if inner_probes:
                    factor = f"{inner_probes} * n{node}" if inner_probes > 1 else f"n{node}"
                    charges.append(f"probes += {factor}")
                if inner_meets:
                    factor = f"{inner_meets} * n{node}" if inner_meets > 1 else f"n{node}"
                    charges.append(f"meets += {factor}")
                lines.append(pad + "; ".join(charges))
            lines.append(pad + f"for v{node} in {iterable}:")
            pad += "    "
    lines.append("    finally:")
    lines.append("        charge(index_probes=probes, intersections=meets)")
    spec = {
        "labels": labels,
        "adjacency": adjacency,
        "scan_nodes": scan_nodes,
        "mw_nodes": mw_nodes,
    }
    return "\n".join(lines), spec


def _runner_for(plan: Plan) -> Optional[Tuple[Any, Dict[str, Any]]]:
    """The compiled code object + env spec for ``plan`` (LRU-cached)."""
    cached = _runner_cache.get(plan)
    if cached is not None:
        _runner_cache.move_to_end(plan)
        return cached
    generated = _generate_runner(plan)
    if generated is None:
        return None
    source, spec = generated
    code = compile(source, "<multiway-plan>", "exec")
    _runner_cache[plan] = (code, spec)
    while len(_runner_cache) > MAX_COMPILED_RUNNERS:
        _runner_cache.popitem(last=False)
    return code, spec


def _instantiate_runner(plan: Plan, pattern: Pattern, instance: Instance):
    """Bind the compiled runner to live data; ``None`` if uncompilable.

    Returns the generator *function* (called as ``runner(fixed, None)``),
    so callers with many seeds — the semi-naive delta path — pay this
    setup once.  Multiway plans read the label's CSR span sets (built on
    demand); other plans read the store's neighbour-set maps, which
    live on the edge columns — delta seeding must not force an
    O(E log E) index build every fixpoint round.
    """
    compiled = _runner_for(plan)
    if compiled is None:
        return None
    code, spec = compiled
    store = instance.store
    env: Dict[str, Any] = {"he": store.has_edge, "charge": _counters.charge}
    for label, name in spec["labels"].items():
        env[name] = label
    multiway = plan.strategy == "multiway"
    for (direction, label), name in spec["adjacency"].items():
        if multiway:
            index = store.sorted_adjacency(label)
            env[name] = index.targets_sets() if direction == "out" else index.sources_sets()
        else:
            env[name] = store.neighbour_sets(label, direction)
    for node in spec["scan_nodes"]:
        env[f"seeds{node}"] = sorted(_seed_candidates(pattern, instance, node))
    for node in spec["mw_nodes"]:
        record = pattern.node_record(node)
        if record.has_print or pattern.predicate_of(node) is not None:
            env[f"c{node}"] = frozenset(_seed_candidates(pattern, instance, node))
        else:
            env[f"c{node}"] = store.nodes_with_label(record.label)
    exec(code, env)
    return env["_runner"]


def seeded_runner(plan: Plan, pattern: Pattern, instance: Instance):
    """A ``fixed -> Iterator[Matching]`` callable with setup hoisted.

    The factory behind :func:`repro.core.matching.find_matchings_delta`:
    one compiled-runner instantiation (or one interpreter closure) per
    plan, one generator per seed.  Callers must validate the seed
    bindings themselves (:func:`binding_ok`) — the runner assumes the
    fixed nodes already satisfy their pattern records.
    """
    if plan.strategy == "multiway" or plan.fixed:
        runner = _instantiate_runner(plan, pattern, instance)
        if runner is not None:
            return lambda fixed: runner(fixed, None)
    return lambda fixed: _interpret_plan(plan, pattern, instance, dict(fixed))


# ----------------------------------------------------------------------
# step interpreter
# ----------------------------------------------------------------------


def execute_plan(
    plan: Plan,
    pattern: Pattern,
    instance: Instance,
    fixed: Optional[Matching] = None,
) -> Iterator[Matching]:
    """Stream the matchings ``plan`` enumerates, deterministically.

    A dispatcher, not a generator: multiway and seeded plans get their
    compiled nested-loop runner returned directly (no extra frame per
    match), everything else goes through the step interpreter.
    """
    fixed = dict(fixed or {})
    for pattern_node, instance_node in fixed.items():
        if not binding_ok(pattern, instance, pattern_node, instance_node):
            return iter(())
    if (plan.strategy == "multiway" or plan.fixed) and not (fixed and not plan.fixed):
        runner = _instantiate_runner(plan, pattern, instance)
        if runner is not None:
            return runner(fixed, None)
    return _interpret_plan(plan, pattern, instance, fixed)


def _interpret_plan(
    plan: Plan,
    pattern: Pattern,
    instance: Instance,
    fixed: Matching,
) -> Iterator[Matching]:
    """The recursive step interpreter (reference path for every plan)."""
    # work tallies: [index probes, leapfrog seeks, multiway intersections]
    tally = [0, 0, 0]
    try:
        records = {node: pattern.node_record(node) for node in pattern.nodes()}
        predicates = {node: pattern.predicate_of(node) for node in pattern.nodes()}
        store = instance.store
        assignment: Matching = dict(fixed)
        steps = plan.steps

        # per Extend step, its probes as (neighbour-set map, anchor): each
        # map is resolved once per (direction, label) per call, when the
        # step is first reached, outside every candidate loop, so a probe
        # costs one subscript
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
            # raw column reads — no NodeRecord allocation per candidate
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
            elif type(step) is MultiwayIntersect:
                # reference path: galloping k-way intersection over the
                # CSR adjacency slices and the node's sorted label array
                node = step.node
                operands: List[Sequence[int]] = []
                for direction, label, anchor in step.probes:
                    adjacency_index = store.sorted_adjacency(label)
                    image = assignment[anchor]
                    if direction == "out":
                        operands.append(adjacency_index.targets_of(image))
                    else:
                        operands.append(adjacency_index.sources_of(image))
                tally[0] += len(operands)
                record = records[node]
                if record.has_print or predicates[node] is not None:
                    # tiny explicit constraint list: enforces label,
                    # print value and predicate in the intersection
                    operands.append(sorted(_seed_candidates(pattern, instance, node)))
                else:
                    operands.append(store.sorted_nodes_with_label(record.label))
                candidates, step_seeks = intersect_sorted(operands)
                tally[1] += step_seeks
                tally[2] += 1
                for candidate in candidates:
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
        if tally[0] or tally[1] or tally[2]:
            _counters.charge(
                index_probes=tally[0],
                leapfrog_seeks=tally[1],
                intersections=tally[2],
            )


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
