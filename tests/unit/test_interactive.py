"""Unit tests for the interactive session (modes of interpretation)."""

import pytest

from repro.core import NodeAddition, Pattern, Program
from repro.interactive import Session
from repro.interactive.session import SessionError

from tests.conftest import person_pattern


def tag_op(scheme):
    pattern, person = person_pattern(scheme)
    return NodeAddition(pattern, "Tag", [("of", person)])


def test_query_mode_leaves_base_untouched(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    result = session.query(tag_op(tiny_scheme))
    assert len(result.instance.nodes_with_label("Tag")) == 3
    assert session.instance.nodes_with_label("Tag") == frozenset()


def test_update_mode_replaces_base(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    session.update(tag_op(tiny_scheme))
    assert len(session.instance.nodes_with_label("Tag")) == 3


def test_undo_restores_previous_state(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    session.update(tag_op(tiny_scheme))
    assert session.undo_depth == 1
    session.undo()
    assert session.instance.nodes_with_label("Tag") == frozenset()
    with pytest.raises(SessionError):
        session.undo()


def test_undo_stack_is_bounded(tiny_scheme, tiny_instance):
    session = Session(tiny_instance, max_undo=2)
    for index in range(4):
        pattern, person = person_pattern(tiny_scheme)
        session.update(NodeAddition(pattern, f"T{index}", [("of", person)]))
    assert session.undo_depth == 2


def test_undo_replays_the_journal_and_restores_the_scheme(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    assert not tiny_scheme.has_node_label("Tag")
    result = session.update(tag_op(tiny_scheme))
    assert session.instance.scheme.has_node_label("Tag")
    journal = session.undo()
    assert not session.instance.scheme.has_node_label("Tag")
    # the UNDO is a transaction of its own: its journal holds the
    # inverse of every store change the update made
    undone = [entry[0] for entry in journal.entries if entry[0] != "scheme"]
    done = [entry[0] for entry in result.journal.entries if entry[0] != "scheme"]
    assert sorted(undone) == sorted(
        {"add_node": "remove_node", "add_edge": "remove_edge"}[tag] for tag in done
    )


def test_undo_does_not_hand_undone_ids_out_again(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    session.update(tag_op(tiny_scheme))
    spent = session.instance.store.next_id
    session.undo()
    assert session.instance.store.next_id == spent
    session.update(tag_op(tiny_scheme))
    assert min(session.instance.nodes_with_label("Tag")) >= spent


def test_undo_refuses_a_state_changed_outside_update(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    session.update(tag_op(tiny_scheme))
    session.instance.add_object("Person")
    with pytest.raises(SessionError, match="outside update"):
        session.undo()
    assert session.undo_depth == 1
    # a later update starts a fresh history: the older frame is gone
    session.update(tag_op(tiny_scheme))
    assert session.undo_depth == 1
    session.undo()
    with pytest.raises(SessionError, match="nothing to undo"):
        session.undo()


def test_a_frame_is_freed_when_it_falls_off_the_stack(tiny_scheme, tiny_instance):
    import gc
    import weakref

    session = Session(tiny_instance, max_undo=1)
    first = weakref.ref(session.update(tag_op(tiny_scheme)).journal)
    gc.disable()
    try:
        session.update(tag_op(tiny_scheme))
        # refcounting alone frees it: a committed journal is no cycle
        assert first() is None
    finally:
        gc.enable()


def test_query_accepts_programs_and_sequences(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    as_program = session.query(Program([tag_op(tiny_scheme)]))
    as_sequence = session.query([tag_op(tiny_scheme)])
    assert (
        len(as_program.instance.nodes_with_label("Tag"))
        == len(as_sequence.instance.nodes_with_label("Tag"))
        == 3
    )


def test_session_methods_available_in_calls(tiny_scheme, tiny_instance):
    from tests.unit.test_methods import rename_method
    from repro.core import MethodCall

    session = Session(tiny_instance, methods=[rename_method(tiny_scheme)])
    call_pattern, person = person_pattern(tiny_scheme, name="alice")
    new_name = call_pattern.node("String", "ally")
    session.update(MethodCall(call_pattern, "rename", receiver=person, arguments={"to": new_name}))
    names = {
        session.instance.print_of(session.instance.functional_target(p, "name"))
        for p in session.instance.nodes_with_label("Person")
    }
    assert "ally" in names


def test_extract_subinstance(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    pattern, person = person_pattern(tiny_scheme, name="alice")
    view = session.extract(pattern)
    assert len(view.nodes) == 2  # alice + her name
    view.view.validate()
    assert "alice" in view.summary()


def test_browse_hops(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    people = sorted(tiny_instance.nodes_with_label("Person"))
    alice = people[0]
    one_hop = session.browse(alice, hops=1)
    assert alice in one_hop.nodes
    assert people[1] in one_hop.nodes  # alice knows bob
    everything = session.browse(alice, hops=3)
    assert len(everything.nodes) >= len(one_hop.nodes)
    one_hop.view.validate()


def test_browse_outgoing_only(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    people = sorted(tiny_instance.nodes_with_label("Person"))
    carol = people[2]  # carol has only incoming knows edges
    outgoing_only = session.browse(carol, hops=1, follow_incoming=False)
    assert set(outgoing_only.nodes) == {carol, tiny_instance.functional_target(carol, "name")}


def test_browse_unknown_node(tiny_instance):
    session = Session(tiny_instance)
    with pytest.raises(SessionError):
        session.browse(10_000)


def test_focus_pattern_directed(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    pattern = Pattern(tiny_scheme)
    x = pattern.node("Person")
    y = pattern.node("Person")
    pattern.edge(x, "knows", y)
    view = session.focus(pattern, y, hops=1)  # around everyone known
    people = sorted(tiny_instance.nodes_with_label("Person"))
    assert people[1] in view.nodes and people[2] in view.nodes
    view.view.validate()


def test_subinstance_keeps_internal_edges_only(tiny_scheme, tiny_instance):
    session = Session(tiny_instance)
    people = sorted(tiny_instance.nodes_with_label("Person"))
    view = session._slice(people[:2])
    assert view.view.has_edge(people[0], "knows", people[1])
    assert view.view.edge_count == 1  # edges to carol/names clipped


def test_rendering_hooks(tiny_instance, hyper):
    session = Session(tiny_instance)
    assert "digraph" in session.to_dot()
    assert "Person: 3" in session.show()
    db, handles = hyper
    hyper_session = Session(db)
    view = hyper_session.browse(handles.music_history, hops=1)
    assert "digraph" in view.to_dot()


def test_query_accepts_dsl_text(hyper):
    db, handles = hyper
    session = Session(db)
    result = session.query(
        '''addnode Rock(tagged-to -> y) {
              x: Info; y: Info; d: Date = "Jan 14, 1990"; n: String = "Rock";
              x -created-> d; x -name-> n; x -links-to->> y;
           }'''
    )
    assert len(result.instance.nodes_with_label("Rock")) == 2
    assert session.instance.nodes_with_label("Rock") == frozenset()


def test_update_accepts_dsl_with_methods(hyper):
    db, handles = hyper
    session = Session(db)
    session.update(
        '''
        method Touch(parameter: Date) on Info {
            deledge { self: Info; d: Date; self -modified-> d; } del self -modified-> d
            addedge { self: Info; $parameter: Date; } add self -modified-> $parameter
        }
        call Touch(parameter -> d) on x {
            x: Info; n: String = "Jazz"; d: Date = "Jan 16, 1990"; x -name-> n;
        }
        '''
    )
    target = session.instance.functional_target(handles.jazz, "modified")
    assert session.instance.print_of(target) == "Jan 16, 1990"
    session.undo()
    assert session.instance.functional_target(handles.jazz, "modified") is None
