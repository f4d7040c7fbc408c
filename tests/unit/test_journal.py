"""Undo journals: O(changes) transactions, watermark savepoints.

Unit coverage for :mod:`repro.txn.journal` — exact inversion of every
mutation kind (node add/remove, edge add/remove, print rewrites, scheme
edits, scheme rebinding), watermark savepoints that can be rolled back
to repeatedly, nested transactions, the zero-copy guarantee on the
begin/savepoint path, and the consuming-snapshot oracle protocol.
"""

import pytest

from repro.core import Instance, Program, Scheme, TransactionError
from repro.core import counters as _counters
from repro.graph import isomorphic
from repro.graph.store import GraphStore
from repro.storage import RelationalEngine
from repro.tarski import TarskiEngine
from repro.testing import SnapshotTransaction
from repro.txn import OneShotState, Transaction, supports_journal
from repro.txn.snapshot import capture, restore

from tests.unit.test_txn import tag_everyone


def full_state(instance):
    """Exact node/edge/print state, node ids included."""
    nodes = sorted(
        (nid, instance.label_of(nid), repr(instance.print_of(nid)))
        for nid in instance.nodes()
    )
    return nodes, sorted(instance.edges())


# ----------------------------------------------------------------------
# zero-copy begin and savepoints (the whole point)
# ----------------------------------------------------------------------
def test_begin_savepoint_and_rollback_never_copy_the_store(tiny_instance, monkeypatch):
    copies = []
    original = GraphStore.copy
    monkeypatch.setattr(GraphStore, "copy", lambda self: copies.append(1) or original(self))
    before = full_state(tiny_instance)
    with _counters.collect() as tally:
        txn = Transaction(tiny_instance)
        point = txn.savepoint("cheap")
        alice = next(iter(tiny_instance.nodes_with_label("Person")))
        extra = tiny_instance.add_object("Person")
        tiny_instance.add_edge(alice, "knows", extra)
        txn.rollback_to(point)
        txn.rollback()
    assert copies == []
    assert tally.txn_snapshot_captures == 0
    assert tally.txn_rollbacks == 2
    assert full_state(tiny_instance) == before


def test_rollback_charges_journal_counters(tiny_instance):
    with _counters.collect() as tally:
        txn = Transaction(tiny_instance)
        tiny_instance.add_object("Person")
        txn.rollback()
    assert tally.txn_rollbacks == 1
    assert tally.txn_journal_entries >= 1
    # the estimate covers the untouched state a snapshot would have copied
    assert tally.txn_bytes_avoided > 0


# ----------------------------------------------------------------------
# inversion of every mutation kind
# ----------------------------------------------------------------------
def test_journal_inverts_every_store_mutation(tiny_scheme, tiny_instance):
    before = full_state(tiny_instance)
    people = sorted(tiny_instance.nodes_with_label("Person"))
    alice, bob, carol = people
    txn = Transaction(tiny_instance)
    # add node + edge
    dave = tiny_instance.add_object("Person")
    tiny_instance.add_edge(dave, "knows", alice)
    # remove an existing edge, then a node with incident edges
    tiny_instance.remove_edge(alice, "knows", bob)
    tiny_instance.remove_node(carol)
    # rewrite a print value
    name = tiny_instance.find_printable("String", "alice")
    tiny_instance.set_print(name, "alicia")
    # scheme content edit
    tiny_scheme.add_object_label("Tagged")
    assert full_state(tiny_instance) != before
    txn.rollback()
    assert full_state(tiny_instance) == before
    assert not tiny_scheme.has_node_label("Tagged")
    assert tiny_instance.scheme is tiny_scheme


def test_rollback_restores_the_node_id_counter(tiny_instance):
    txn = Transaction(tiny_instance)
    first = tiny_instance.add_object("Person")
    txn.rollback()
    assert tiny_instance.add_object("Person") == first


def test_set_print_alone_inverts(tiny_instance):
    name = tiny_instance.find_printable("String", "bob")
    txn = Transaction(tiny_instance)
    tiny_instance.set_print(name, "robert")
    assert tiny_instance.print_of(name) == "robert"
    txn.rollback()
    assert tiny_instance.print_of(name) == "bob"
    assert tiny_instance.find_printable("String", "robert") is None


def test_restrict_to_rebinding_is_journalled(tiny_scheme, tiny_instance):
    before = full_state(tiny_instance)
    sub = Scheme(printable_labels=["String"])
    sub.declare("Person", "name", "String")
    txn = Transaction(tiny_instance)
    tiny_instance.restrict_to(sub)
    assert tiny_instance.scheme is sub
    assert full_state(tiny_instance) != before  # ages and knows edges dropped
    report = txn.rollback()
    assert tiny_instance.scheme is tiny_scheme
    assert full_state(tiny_instance) == before
    assert report.scheme_rolled_back


# ----------------------------------------------------------------------
# watermark savepoints
# ----------------------------------------------------------------------
def test_nested_savepoints_roll_back_repeatedly(tiny_scheme, tiny_instance):
    txn = Transaction(tiny_instance)
    Program([tag_everyone(tiny_scheme, "First")]).run(tiny_instance, in_place=True)
    outer = txn.savepoint("outer")
    Program([tag_everyone(tiny_scheme, "Second")]).run(tiny_instance, in_place=True)
    inner = txn.savepoint("inner")
    state_at_inner = full_state(tiny_instance)
    # roll back to the inner watermark twice, mutating in between
    Program([tag_everyone(tiny_scheme, "Third")]).run(tiny_instance, in_place=True)
    txn.rollback_to(inner)
    assert full_state(tiny_instance) == state_at_inner
    Program([tag_everyone(tiny_scheme, "Fourth")]).run(tiny_instance, in_place=True)
    txn.rollback_to(inner)
    assert full_state(tiny_instance) == state_at_inner
    assert not tiny_scheme.has_node_label("Third")
    assert not tiny_scheme.has_node_label("Fourth")
    # then past it, to the outer one
    txn.rollback_to(outer)
    assert inner.released
    assert tiny_scheme.has_node_label("First")
    assert not tiny_scheme.has_node_label("Second")
    txn.commit()


def test_inner_transaction_rollback_is_visible_to_outer_journal(tiny_instance):
    base = full_state(tiny_instance)
    outer = Transaction(tiny_instance)
    tiny_instance.add_object("Person")
    middle = full_state(tiny_instance)
    inner = Transaction(tiny_instance)
    tiny_instance.add_object("Person")
    inner.rollback()
    assert full_state(tiny_instance) == middle
    # the outer journal recorded the inner replay through the store
    # mutators, so the outer rollback still lands on the begin state
    outer.rollback()
    assert full_state(tiny_instance) == base


# ----------------------------------------------------------------------
# storage engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", [RelationalEngine, TarskiEngine])
def test_engine_journal_rollback_is_exact(tiny_instance, engine_cls):
    engine = engine_cls.from_instance(tiny_instance)
    pristine = engine.to_instance()
    with _counters.collect() as tally:
        txn = Transaction(engine)
        point = txn.savepoint()
        engine.run([tag_everyone(engine.scheme, "A")], atomic=False)
        txn.rollback_to(point)
        engine.run([tag_everyone(engine.scheme, "B")], atomic=False)
        txn.rollback()
    assert tally.txn_snapshot_captures == 0
    assert tally.txn_rollbacks == 2
    assert isomorphic(engine.to_instance().store, pristine.store)
    assert not engine.scheme.has_node_label("A")
    assert not engine.scheme.has_node_label("B")


@pytest.mark.parametrize("engine_cls", [RelationalEngine, TarskiEngine])
def test_engine_targets_support_the_journal_protocol(tiny_instance, engine_cls):
    engine = engine_cls.from_instance(tiny_instance)
    assert supports_journal(engine)


def test_target_without_journal_hooks_is_refused_at_begin():
    class SnapshotOnly:
        """Implements the four snapshot hooks but no journal hooks."""

        def capture_state(self):
            return None

        def restore_state(self, state):
            pass

        def state_summary(self):
            return 0, 0

        def check_invariants(self):
            pass

    assert not supports_journal(SnapshotOnly())
    with pytest.raises(TransactionError, match="begin_journal"):
        Transaction(SnapshotOnly())


# ----------------------------------------------------------------------
# the snapshot-protocol oracle
# ----------------------------------------------------------------------
def test_snapshot_oracle_captures_and_restores(tiny_instance):
    before = full_state(tiny_instance)
    with _counters.collect() as tally:
        txn = SnapshotTransaction(tiny_instance)
        tiny_instance.add_object("Person")
        txn.rollback()
    assert tally.txn_snapshot_captures >= 1
    assert tally.txn_rollbacks == 1
    assert full_state(tiny_instance) == before


def test_snapshot_savepoint_survives_repeated_rollback_to(tiny_scheme, tiny_instance):
    txn = SnapshotTransaction(tiny_instance)
    point = txn.savepoint("sp")
    state = full_state(tiny_instance)
    Program([tag_everyone(tiny_scheme, "A")]).run(tiny_instance, in_place=True)
    txn.rollback_to(point)
    assert full_state(tiny_instance) == state
    Program([tag_everyone(tiny_scheme, "B")]).run(tiny_instance, in_place=True)
    txn.rollback_to(point)
    assert full_state(tiny_instance) == state
    txn.commit()


def test_one_shot_state_refuses_reuse(tiny_instance):
    state = capture(tiny_instance)
    restore(tiny_instance, state)
    with pytest.raises(TransactionError, match="already consumed"):
        restore(tiny_instance, state)


def test_one_shot_state_is_single_take():
    shot = OneShotState(payload=[1, 2])
    assert not shot.consumed
    assert shot.take() == [1, 2]
    assert shot.consumed
    with pytest.raises(TransactionError):
        shot.take()


def test_journal_refuses_rollback_after_store_swap(tiny_instance):
    txn = Transaction(tiny_instance)
    tiny_instance.add_object("Person")
    # a full-snapshot restore swaps the store out from under the journal
    other = Instance(tiny_instance.scheme.copy())
    tiny_instance._store = other._store
    with pytest.raises(TransactionError, match="swapped"):
        txn.rollback()
