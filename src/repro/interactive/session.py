"""The interactive session: query/update modes, browsing, undo.

Update mode runs a program in place as one transaction
(:mod:`repro.txn`) and keeps the run's committed undo journal as an undo
frame: O(changes), never a copy of the instance.  :meth:`Session.undo`
reverse-replays the newest frame inside a transaction of its own and
returns that transaction's journal, so a server can log the UNDO as an
ordinary commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.errors import GoodError
from repro.core.instance import Instance
from repro.core.matching import find_any
from repro.core.methods import Method, MethodRegistry
from repro.core.operations import Operation
from repro.core.pattern import NegatedPattern, Pattern
from repro.core.program import Program, ProgramResult
from repro.txn.transaction import Transaction
from repro.viz.ascii import summarize_instance
from repro.viz.dot import instance_to_dot


class SessionError(GoodError):
    """Misuse of the interactive session (e.g. undo with no history)."""


@dataclass
class Subinstance:
    """A browsable slice of an instance: kept node ids + the view.

    The view is a real :class:`Instance` over the same scheme with the
    same node ids, so follow-up patterns and renderings work on it
    directly.
    """

    nodes: Tuple[int, ...]
    view: Instance

    def to_dot(self, name: str = "view") -> str:
        """Graphviz DOT of the slice."""
        return instance_to_dot(self.view, name)

    def summary(self) -> str:
        """Terminal summary of the slice."""
        return summarize_instance(self.view)

    def to_json(self) -> dict:
        """A serialisable document for the slice (wire format).

        ``nodes`` lists the kept node ids; ``view`` is a full instance
        document (:func:`repro.io.serialize.instance_to_json`), so the
        slice can be reloaded or rendered client-side.
        """
        from repro.io.serialize import instance_to_json

        return {"nodes": list(self.nodes), "view": instance_to_json(self.view)}


class Session:
    """One object base, manipulated through interpretation modes."""

    #: the store's mutation counter after the newest update or undo:
    #: the undo frames replay onto that state and nothing else
    _generation: Optional[int] = None

    def __init__(
        self,
        instance: Instance,
        methods: Optional[Sequence[Method]] = None,
        max_undo: int = 16,
    ) -> None:
        self.instance = instance
        self.methods = MethodRegistry(methods or ())
        self.max_undo = max_undo
        # committed journals of the last updates, oldest first
        self._undo: List[Any] = []

    # ------------------------------------------------------------------
    # query / update modes
    # ------------------------------------------------------------------
    def _as_program(
        self, program: Union[str, Program, Operation, Sequence[Operation]]
    ) -> Program:
        if isinstance(program, str):
            from repro.dsl import parse_program

            parsed = parse_program(program, self.instance.scheme)
            for name in self.methods.names():
                parsed.methods.register(self.methods.get(name))
            return parsed
        if isinstance(program, Program):
            for name in self.methods.names():
                program.methods.register(self.methods.get(name))
            return program
        if isinstance(program, Operation):
            return Program([program], methods=self.methods)
        return Program(list(program), methods=self.methods)

    def query(self, program: Union[str, Program, Operation, Sequence[Operation]]) -> ProgramResult:
        """Run in query mode: the result is "only a temporary entity".

        ``program`` may be a :class:`Program`, a single operation, a
        sequence of operations, or DSL source text (see
        :mod:`repro.dsl`).
        """
        return self._as_program(program).run(self.instance, in_place=False)

    def update(self, program: Union[str, Program, Operation, Sequence[Operation]]) -> ProgramResult:
        """Run in update mode: the result "replaces the original".

        The run is atomic; its committed journal becomes the newest of
        at most ``max_undo`` undo frames.  A failed run is rolled back
        and pushes nothing.
        """
        start = self.instance.generation
        try:
            result = self._as_program(program).run(self.instance, in_place=True)
        except BaseException:
            if start == self._generation:
                # the rollback restored the state the frames end at
                self._generation = self.instance.generation
            raise
        if start != self._generation:
            # the instance changed outside update(): older frames would
            # replay onto a state they never saw
            self._undo.clear()
        self._undo.append(result.journal)
        if len(self._undo) > self.max_undo:
            self._undo.pop(0)
        self._generation = self.instance.generation
        return result

    def undo(self) -> Any:
        """Restore the state before the most recent update.

        Reverse-replays the newest frame inside a transaction of its own
        and returns that transaction's committed journal.  Node ids the
        undone update used are not handed out again.  Raises
        :class:`SessionError` when there is nothing to undo, or when the
        instance changed outside :meth:`update` since the frame was taken.
        """
        if not self._undo:
            raise SessionError("nothing to undo")
        frame = self._undo[-1]
        if self.instance.generation != self._generation or frame.instance is not self.instance:
            raise SessionError("the instance changed outside update() since the last update; cannot undo")
        txn = Transaction(self.instance, name="undo")
        try:
            frame.revert()
        except BaseException as error:
            txn.rollback(error=error)
            raise
        journal = txn.commit()
        self._undo.pop()
        self._generation = self.instance.generation
        return journal

    @property
    def undo_depth(self) -> int:
        """How many updates can be undone."""
        return len(self._undo)

    # ------------------------------------------------------------------
    # browsing / visualizing
    # ------------------------------------------------------------------
    def matchings(self, pattern: Union[Pattern, NegatedPattern]):
        """All matchings of a (possibly crossed) pattern, as a list."""
        return list(find_any(pattern, self.instance))

    def extract(self, pattern: Union[Pattern, NegatedPattern]) -> Subinstance:
        """The subinstance induced by all matchings of ``pattern``."""
        kept: Set[int] = set()
        for matching in find_any(pattern, self.instance):
            kept.update(matching.values())
        return self._slice(kept)

    def browse(self, node: int, hops: int = 1, follow_incoming: bool = True) -> Subinstance:
        """The neighbourhood of ``node`` up to ``hops`` edge traversals."""
        if not self.instance.has_node(node):
            raise SessionError(f"unknown node {node!r}")
        kept: Set[int] = {node}
        frontier: Set[int] = {node}
        for _ in range(hops):
            next_frontier: Set[int] = set()
            for current in frontier:
                for edge in self.instance.store.out_edges(current):
                    next_frontier.add(edge.target)
                if follow_incoming:
                    for edge in self.instance.store.in_edges(current):
                        next_frontier.add(edge.source)
            next_frontier -= kept
            kept |= next_frontier
            frontier = next_frontier
            if not frontier:
                break
        return self._slice(kept)

    def focus(
        self,
        pattern: Union[Pattern, NegatedPattern],
        node: int,
        hops: int = 1,
    ) -> Subinstance:
        """Pattern-directed browsing: expand around the images of one
        pattern node across all matchings."""
        anchors = {matching[node] for matching in find_any(pattern, self.instance)}
        kept: Set[int] = set()
        for anchor in sorted(anchors):
            kept.update(self.browse(anchor, hops=hops).nodes)
        return self._slice(kept)

    def _slice(self, kept: Iterable[int]) -> Subinstance:
        kept_set = set(kept)
        view = Instance(self.instance.scheme)
        for node_id in sorted(kept_set):
            record = self.instance.node_record(node_id)
            if self.instance.scheme.is_printable_label(record.label):
                view.add_printable(record.label, record.print_value, _node_id=node_id)
            else:
                view.add_object(record.label, _node_id=node_id)
        for node_id in sorted(kept_set):
            for edge in self.instance.store.out_edges(node_id):
                if edge.target in kept_set:
                    view.add_edge(edge.source, edge.label, edge.target)
        return Subinstance(tuple(sorted(kept_set)), view)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_dot(self, name: str = "object-base") -> str:
        """Graphviz DOT of the whole object base."""
        return instance_to_dot(self.instance, name)

    def show(self) -> str:
        """Terminal summary of the whole object base."""
        return summarize_instance(self.instance)
