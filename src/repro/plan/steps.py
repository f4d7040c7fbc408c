"""The pattern-match plan algebra.

A :class:`Plan` is a left-deep pipeline of steps, each binding (or
checking) pattern nodes against the instance's indexes:

* :class:`ScanNodes` — seed: iterate one pattern node's base candidates
  from the label/print index;
* :class:`ScanEdges` — seed: iterate the ``edges_with_label`` index,
  binding both endpoints of one pattern edge at once;
* :class:`Extend` — bind one more pattern node by intersecting the
  neighbour sets of *every* already-bound node it has a pattern edge
  to (a variable-at-a-time generic join: the closing step of a
  triangle intersects both of its probes at once);
* :class:`Verify` — check a pattern edge whose endpoints are both
  bound (residual edges: self-loops, parallel edges, cross edges).

There is one join discipline; ``explain()``/``to_json()`` still name it
(:data:`STRATEGY`) so EXPLAIN replies keep their ``strategy`` field.

Steps reference pattern nodes by id; all data access happens at
execution time against live indexes, so a compiled plan stays *correct*
under any instance mutation — recompilation (keyed on
:attr:`GraphStore.stats_epoch`) is purely about keeping it *optimal*.

``Plan.explain()`` renders the pipeline in the same indent-per-child
style as the relational plan algebra in :mod:`repro.storage.minirel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Tuple


#: The join discipline every plan uses, as EXPLAIN names it.
STRATEGY = "left-deep"


def _ref(node: int) -> str:
    return f"?{node}"


@dataclass(frozen=True)
class ScanNodes:
    """Seed step: iterate the base candidates of one pattern node."""

    node: int
    label: str
    detail: str  # "", 'print=...' or 'predicate=...'
    est: float

    def describe(self) -> str:
        inner = f"{_ref(self.node)}: {self.label}"
        if self.detail:
            inner += f" {self.detail}"
        return f"ScanNodes({inner})"


@dataclass(frozen=True)
class ScanEdges:
    """Seed step: iterate one edge label's index, binding both ends."""

    source: int
    label: str
    target: int
    est: float

    def describe(self) -> str:
        return f"ScanEdges({_ref(self.source)} -{self.label}-> {_ref(self.target)})"


@dataclass(frozen=True)
class Extend:
    """Bind one node via adjacency probes from already-bound nodes.

    Each probe is ``(direction, edge label, anchor node)``: ``"out"``
    means the pattern has ``anchor --label--> node`` (candidates come
    from ``out_neighbours(image(anchor), label)``), ``"in"`` means
    ``node --label--> anchor`` (candidates from ``in_neighbours``).
    """

    node: int
    probes: Tuple[Tuple[str, str, int], ...]
    est: float

    def describe(self) -> str:
        parts = []
        for direction, label, anchor in self.probes:
            if direction == "out":
                parts.append(f"{_ref(anchor)} -{label}-> {_ref(self.node)}")
            else:
                parts.append(f"{_ref(self.node)} -{label}-> {_ref(anchor)}")
        return f"Extend({_ref(self.node)} via " + " & ".join(parts) + ")"


@dataclass(frozen=True)
class Verify:
    """Check a pattern edge between two already-bound nodes."""

    source: int
    label: str
    target: int

    def describe(self) -> str:
        return f"Verify({_ref(self.source)} -{self.label}-> {_ref(self.target)})"


PlanStep = Any  # ScanNodes | ScanEdges | Extend | Verify


@dataclass(frozen=True)
class Plan:
    """A compiled, cacheable join pipeline for one pattern shape."""

    steps: Tuple[PlanStep, ...]
    fixed: Tuple[int, ...]
    node_count: int
    edge_count: int
    estimated_rows: float
    epoch: int

    @cached_property
    def shape(self) -> Tuple[Any, ...]:
        """The plan without its estimates, epoch and print constants.

        Step kinds, nodes, probes, labels and ``fixed``: everything the
        executor's generated code depends on, so plans compiled at other
        statistics epochs or for other print constants share one runner.
        """
        steps: List[Tuple[Any, ...]] = []
        for step in self.steps:
            kind = type(step)
            if kind is ScanNodes:
                steps.append(("ScanNodes", step.node, step.label))
            elif kind is Extend:
                steps.append(("Extend", step.node, step.probes))
            else:  # ScanEdges, Verify
                steps.append((kind.__name__, step.source, step.label, step.target))
        return (self.fixed, tuple(steps))

    def explain(self, indent: int = 0) -> str:
        """EXPLAIN text, indent-per-child like ``minirel`` plans."""
        pad = " " * indent
        head = (
            f"{pad}PlanPipeline({self.node_count} nodes, {self.edge_count} edges; "
            f"strategy={STRATEGY}, est_rows={self.estimated_rows:g}, "
            f"epoch={self.epoch})"
        )
        lines = [head]
        depth = indent + 2
        if self.fixed:
            bound = ", ".join(_ref(node) for node in self.fixed)
            lines.append(" " * depth + f"Fixed({bound})")
            depth += 2
        for step in self.steps:
            line = " " * depth + step.describe()
            est = getattr(step, "est", None)
            if est is not None:
                line += f" est={est:g}"
            lines.append(line)
            depth += 2
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable plan description (server ``EXPLAIN``)."""
        steps: List[Dict[str, Any]] = []
        for step in self.steps:
            entry: Dict[str, Any] = {
                "op": type(step).__name__,
                "describe": step.describe(),
            }
            est = getattr(step, "est", None)
            if est is not None:
                entry["est"] = round(est, 3)
            steps.append(entry)
        return {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "fixed": list(self.fixed),
            "estimated_rows": round(self.estimated_rows, 3),
            "epoch": self.epoch,
            "strategy": STRATEGY,
            "steps": steps,
            "text": self.explain(),
        }
