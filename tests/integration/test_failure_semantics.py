"""Failure semantics: what a raising operation leaves behind.

Section 3.2 prescribes run-time checks for the undefined edge-addition
case; this suite pins down the library's transactional story around
them: copy-mode programs never corrupt the caller's database, single
operations are atomic, in-place programs roll back all-or-nothing with
a structured :class:`~repro.txn.transaction.FailureReport`, and a fault
injected at ANY operation index of the paper's figure programs leaves
all three engines holding an instance isomorphic to the pre-run state.
"""

import pytest

from repro.core import (
    EdgeAddition,
    EdgeConflictError,
    BodyOp,
    Method,
    MethodCall,
    MethodSignature,
    NodeAddition,
    Pattern,
    Program,
)
from repro.core.errors import BackendError
from repro.graph import isomorphic
from repro.hypermedia import build_instance, build_scheme
from repro.hypermedia import figures as F
from repro.interactive import Session
from repro.storage import RelationalEngine
from repro.tarski import TarskiEngine
from repro.txn import faults, inject

from tests.conftest import person_pattern


def conflicting_edge_addition(scheme):
    """Gives every person a functional edge to every other's age."""
    pattern = Pattern(scheme)
    person = pattern.node("Person")
    other = pattern.node("Person")
    other_age = pattern.node("Number")
    pattern.edge(other, "age", other_age)
    return EdgeAddition(
        pattern, [(person, "primary", other_age)], new_label_kinds={"primary": "functional"}
    )


def snapshot(instance):
    return (sorted(instance.nodes()), sorted(instance.edges()))


def test_copy_mode_program_failure_leaves_database_intact(tiny_scheme, tiny_instance):
    before = snapshot(tiny_instance)
    program = Program([conflicting_edge_addition(tiny_scheme)])
    with pytest.raises(EdgeConflictError):
        program.run(tiny_instance)
    assert snapshot(tiny_instance) == before
    assert not tiny_instance.scheme.is_functional("primary")  # scheme too


def test_single_edge_addition_is_atomic(tiny_scheme, tiny_instance):
    """All-or-nothing: the conflict check runs before any insert."""
    before = snapshot(tiny_instance)
    operation = conflicting_edge_addition(tiny_scheme)
    with pytest.raises(EdgeConflictError):
        operation.apply(tiny_instance)
    # node/edge state untouched even though apply() works in place
    # (materialised constants aside — this pattern mentions none)
    assert snapshot(tiny_instance) == before


def test_failure_inside_method_body_propagates(tiny_scheme, tiny_instance):
    signature = MethodSignature("boom", "Person")
    body = [BodyOp(conflicting_edge_addition(tiny_scheme), head=None)]
    method = Method(signature, body)
    call_pattern, receiver = person_pattern(tiny_scheme)
    call = MethodCall(call_pattern, "boom", receiver=receiver)
    before = snapshot(tiny_instance)
    with pytest.raises(EdgeConflictError):
        Program([call], methods=[method]).run(tiny_instance)
    # copy-mode: the caller's database is untouched despite the
    # mid-body failure (the working copy is discarded)
    assert snapshot(tiny_instance) == before


def test_session_rolls_back_failed_updates(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    pattern, person = person_pattern(tiny_scheme)
    session.update(NodeAddition(pattern, "Tag", [("of", person)]))
    before = snapshot(session.instance)
    with pytest.raises(EdgeConflictError):
        session.update(conflicting_edge_addition(tiny_scheme))
    # the atomic run rolled back, and a failed update keeps no frame:
    # UNDO still reaches the last successful update
    assert session.undo_depth == 1
    assert snapshot(session.instance) == before
    session.undo()
    assert session.instance.nodes_with_label("Tag") == frozenset()


def test_later_operations_see_earlier_failures_stop_the_program(tiny_scheme, tiny_instance):
    from repro.core import NodeAddition

    tag_pattern, person = person_pattern(tiny_scheme)
    program = Program(
        [conflicting_edge_addition(tiny_scheme), NodeAddition(tag_pattern, "Never", [("of", person)])]
    )
    with pytest.raises(EdgeConflictError):
        program.run(tiny_instance)
    assert not tiny_instance.scheme.has_node_label("Never")


# ----------------------------------------------------------------------
# structured failure reports
# ----------------------------------------------------------------------
def tag_all(scheme, label="Tagged"):
    pattern, person = person_pattern(scheme)
    return NodeAddition(pattern, label, [("of", person)])


def test_failure_report_describes_the_rollback(tiny_scheme, tiny_instance):
    program = Program([tag_all(tiny_scheme), conflicting_edge_addition(tiny_scheme)])
    with pytest.raises(EdgeConflictError) as excinfo:
        program.run(tiny_instance, in_place=True)
    report = excinfo.value.failure_report
    assert report.failed_index == 1
    assert report.completed_operations == 1
    assert report.error_type == "EdgeConflictError"
    assert report.operation  # the failing operation's describe() string
    # op 0 tagged all three people; the rollback undid those nodes and
    # their "of" edges, plus the scheme declarations of both operations
    assert report.nodes_rolled_back == 3
    assert report.edges_rolled_back == 3
    assert report.scheme_rolled_back
    assert report.invariants_ok
    assert "EdgeConflictError at operation 1" in report.summary()


def test_failure_report_on_injected_engine_fault(tiny_instance):
    engine = RelationalEngine.from_instance(tiny_instance)
    operations = [tag_all(engine.scheme, "A"), tag_all(engine.scheme, "B")]
    with inject(BackendError, at_engine_call=1):
        with pytest.raises(BackendError) as excinfo:
            engine.run(operations)
    report = excinfo.value.failure_report
    assert report.failed_index == 1
    assert report.completed_operations == 1
    assert report.error_type == "BackendError"
    assert report.nodes_rolled_back == 3
    assert report.scheme_rolled_back
    assert report.invariants_ok


def test_no_failure_report_without_rollback(tiny_scheme, tiny_instance):
    with pytest.raises(EdgeConflictError) as excinfo:
        Program([conflicting_edge_addition(tiny_scheme)]).run(
            tiny_instance, in_place=True, atomic=False
        )
    assert not hasattr(excinfo.value, "failure_report")


# ----------------------------------------------------------------------
# the acceptance sweep: a fault at EVERY index of the paper's figure
# programs must restore a pre-run-isomorphic instance on all 3 engines
# ----------------------------------------------------------------------
def figure_program(scheme):
    return [
        F.fig6_node_addition(scheme),
        F.fig8_node_addition(scheme),
        F.fig10_edge_addition(scheme),
        F.fig12_node_addition(scheme),
        F.fig13_edge_addition(scheme),
        F.fig14_node_deletion(scheme),
    ]


@pytest.mark.faults
def test_fault_at_every_index_restores_native_instance():
    scheme = build_scheme()
    db, _handles = build_instance(scheme)
    operations = figure_program(scheme)
    for index in range(len(operations)):
        for when in (faults.BEFORE, faults.AFTER):
            working = db.copy(scheme=db.scheme.copy())
            before_store = working.store.copy()
            before_scheme = working.scheme.copy()
            with inject(EdgeConflictError, at_operation=index, when=when) as injector:
                with pytest.raises(EdgeConflictError):
                    Program(operations).run(working, in_place=True)
            assert injector.fired_at == ("operation", index)
            assert isomorphic(working.store, before_store), (index, when)
            assert working.scheme == before_scheme, (index, when)


@pytest.mark.faults
@pytest.mark.parametrize("engine_cls", [RelationalEngine, TarskiEngine])
def test_fault_at_every_index_restores_engine_state(engine_cls):
    scheme = build_scheme()
    db, _handles = build_instance(scheme)
    operations = figure_program(scheme)
    for index in range(len(operations)):
        for when in (faults.BEFORE, faults.AFTER):
            engine = engine_cls.from_instance(db)
            before_store = engine.to_instance().store
            before_scheme = engine.scheme.copy()
            with inject(BackendError, at_operation=index, when=when) as injector:
                with pytest.raises(BackendError):
                    engine.run(operations)
            assert injector.fired_at == ("operation", index)
            assert isomorphic(engine.to_instance().store, before_store), (index, when)
            assert engine.scheme == before_scheme, (index, when)


# ----------------------------------------------------------------------
# method scaffolding never leaks, rollback or not
# ----------------------------------------------------------------------
def boom_method(scheme):
    signature = MethodSignature("boom", "Person")
    return Method(signature, [BodyOp(conflicting_edge_addition(scheme), head=None)])


def test_method_failure_leaves_no_scaffolding_without_rollback(tiny_scheme, tiny_instance):
    method = boom_method(tiny_scheme)
    call_pattern, receiver = person_pattern(tiny_scheme)
    call = MethodCall(call_pattern, "boom", receiver=receiver)
    with pytest.raises(EdgeConflictError):
        Program([call], methods=[method]).run(tiny_instance, in_place=True, atomic=False)
    # even on the non-atomic escape hatch, the interface restriction in
    # the finally block scrubs the @call:/@self scaffolding
    assert not any(
        label.startswith("@call:") for label in tiny_instance.scheme.object_labels
    )


@pytest.mark.parametrize("engine_cls", [RelationalEngine, TarskiEngine])
def test_engine_method_failure_leaves_no_scaffolding(tiny_scheme, tiny_instance, engine_cls):
    from repro.core.method_runner import EngineMethodRunner
    from repro.core.methods import MethodRegistry

    engine = engine_cls.from_instance(tiny_instance)
    method = boom_method(engine.scheme)
    call_pattern, receiver = person_pattern(engine.scheme)
    call = MethodCall(call_pattern, "boom", receiver=receiver)
    runner = EngineMethodRunner(engine, MethodRegistry([method]))
    with pytest.raises(EdgeConflictError):
        runner.run([call], atomic=False)
    assert not any(
        label.startswith("@call:") for label in engine.scheme.object_labels
    )
