"""Property: journal rollback ≡ snapshot rollback, on every engine.

The undo journal replays inverse entries; the snapshot protocol
reinstalls a full copy.  For random (instance, program) pairs and a
random fault point, running the same failing program on two identical
targets — one under each protocol — must leave both holding
graph-isomorphic stores and equal schemes, both identical to the
pre-run state.  The snapshot protocol
(:class:`repro.testing.SnapshotTransaction`) is the oracle certifying
the journal implementation.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import Program
from repro.core.errors import BackendError, EdgeConflictError
from repro.graph import isomorphic
from repro.storage import RelationalEngine
from repro.tarski import TarskiEngine
from repro.testing import SnapshotTransaction
from repro.txn import Transaction, faults, inject

from tests.property.strategies import instances_with_programs

pytestmark = pytest.mark.faults

SETTINGS = settings(max_examples=20, deadline=None)


@st.composite
def programs_with_fault_points(draw, max_operations: int = 6):
    """(scheme, instance, operations, fault_index, when) tuples."""
    scheme, instance, operations = draw(instances_with_programs(max_operations))
    assume(len(operations) > 0)  # the generator may come up empty
    fault_index = draw(st.integers(min_value=0, max_value=len(operations) - 1))
    when = draw(st.sampled_from([faults.BEFORE, faults.AFTER]))
    return scheme, instance, operations, fault_index, when


def _fail_and_roll_back(target, run, protocol, error_type, fault_index, when):
    """Run ``run`` to the injected fault inside a transaction; the
    context manager performs the rollback under the chosen protocol."""
    with inject(error_type, at_operation=fault_index, when=when) as injector:
        with pytest.raises(error_type):
            with protocol(target):
                run()
    assert injector.fired


@given(data=programs_with_fault_points())
@SETTINGS
def test_native_journal_rollback_matches_snapshot_oracle(data):
    scheme, instance, operations, fault_index, when = data
    by_journal = instance.copy(scheme=instance.scheme.copy())
    by_snapshot = instance.copy(scheme=instance.scheme.copy())
    for target, protocol in ((by_journal, Transaction), (by_snapshot, SnapshotTransaction)):
        _fail_and_roll_back(
            target,
            lambda: Program(list(operations)).run(target, in_place=True, atomic=False),
            protocol,
            EdgeConflictError,
            fault_index,
            when,
        )
    assert isomorphic(by_journal.store, by_snapshot.store)
    assert by_journal.scheme == by_snapshot.scheme
    assert isomorphic(by_journal.store, instance.store)
    assert by_journal.scheme == instance.scheme


@pytest.mark.parametrize("engine_cls", [RelationalEngine, TarskiEngine])
@given(data=programs_with_fault_points())
@SETTINGS
def test_engine_journal_rollback_matches_snapshot_oracle(engine_cls, data):
    scheme, instance, operations, fault_index, when = data
    by_journal = engine_cls.from_instance(instance)
    by_snapshot = engine_cls.from_instance(instance)
    for engine, protocol in ((by_journal, Transaction), (by_snapshot, SnapshotTransaction)):
        _fail_and_roll_back(
            engine,
            lambda: engine.run(operations, atomic=False),
            protocol,
            BackendError,
            fault_index,
            when,
        )
    assert isomorphic(by_journal.to_instance().store, by_snapshot.to_instance().store)
    assert by_journal.scheme == by_snapshot.scheme
    assert isomorphic(by_journal.to_instance().store, instance.store)
    assert by_journal.scheme == instance.scheme
