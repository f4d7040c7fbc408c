"""Property tests: a pinned MVCC snapshot is immune to writer churn.

The MVCC contract is that a pinned version is *bit-identical* for its
whole lifetime: however many commits land on the live database after
the pin, re-reading the snapshot yields exactly the state at pin time
(empty :func:`~repro.graph.diff.graph_diff`, identical serialized
document).
"""

from __future__ import annotations

import random

from hypothesis import given, settings

from repro.core import Program
from repro.core.errors import GoodError
from repro.graph.diff import graph_diff
from repro.io.serialize import instance_to_json
from repro.server.catalog import ServedDatabase
from repro.workloads import random_basic_program

from tests.property.strategies import scheme_instances, seeds

SETTINGS = settings(max_examples=10, deadline=None)


def _commit(database: ServedDatabase, operations) -> None:
    """One writer commit, the way the server applies it (minus the WAL).

    A conflicting random program rolls back atomically — that is churn
    too (the journal rollback mutates and restores live state), so the
    failure is swallowed and a version is published either way.
    """
    program = Program(list(operations))
    try:
        database.session.update(program)
    except GoodError:
        pass
    database.publish_version()


def _churn(database: ServedDatabase, rng: random.Random, rounds: int) -> None:
    for _ in range(rounds):
        current = database.to_instance()
        operations = random_basic_program(
            rng, database.scheme.copy(), current, n_operations=3
        )
        _commit(database, operations)


@given(scheme_instances(max_nodes=15, max_edges=25), seeds)
@SETTINGS
def test_pinned_snapshot_is_bit_identical_under_writer_churn(data, seed):
    scheme, instance = data
    rng = random.Random(seed)
    database = ServedDatabase("db", instance.copy())
    reader = database.read_view()
    pinned_doc = instance_to_json(reader.to_instance())
    pinned_store = reader.to_instance().store.copy()
    try:
        _churn(database, rng, rounds=4)
        # the snapshot re-reads to exactly the pin-time state
        assert instance_to_json(reader.to_instance()) == pinned_doc
        assert graph_diff(pinned_store, reader.to_instance().store).is_empty
    finally:
        reader.release()


@given(scheme_instances(max_nodes=12, max_edges=20), seeds)
@SETTINGS
def test_every_version_in_a_chain_stays_frozen(data, seed):
    """Pin after every commit; at the end each pin still reads its own
    state, independent of every later (and earlier) version."""
    scheme, instance = data
    rng = random.Random(seed)
    database = ServedDatabase("db", instance.copy())
    readers, expected = [], []
    for _ in range(4):
        reader = database.read_view()
        readers.append(reader)
        expected.append(instance_to_json(reader.to_instance()))
        current = database.to_instance()
        operations = random_basic_program(
            rng, database.scheme.copy(), current, n_operations=2
        )
        _commit(database, operations)
    try:
        chain = database.snapshots.gauges()["version_chain_length"]
        assert chain >= 1
        for reader, doc in zip(readers, expected):
            assert instance_to_json(reader.to_instance()) == doc
    finally:
        for reader in readers:
            reader.release()
    # with every pin dropped, only the current version survives
    assert database.snapshots.gauges()["version_chain_length"] == 1


@given(scheme_instances(max_nodes=12, max_edges=20), seeds)
@SETTINGS
def test_snapshot_queries_match_pin_time_queries(data, seed):
    """MATCH against the pinned reader equals MATCH at pin time, even
    after churn removed or added matching nodes."""
    scheme, instance = data
    rng = random.Random(seed)
    database = ServedDatabase("db", instance.copy())
    label = next(iter(scheme.object_labels))
    pattern = "{ x: %s }" % label
    reader = database.read_view()
    at_pin = reader.matchings(pattern)["total"]
    try:
        _churn(database, rng, rounds=3)
        assert reader.matchings(pattern)["total"] == at_pin
    finally:
        reader.release()
