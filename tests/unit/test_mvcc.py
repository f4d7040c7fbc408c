"""Unit tests for the MVCC snapshot subsystem (repro.mvcc).

Covers the registry's publish/pin/release/GC lifecycle, version
capture, the read-only SnapshotReader facade, and the
epoch-keyed plan cache that lets a frozen snapshot share the live
store's compiled plans.
"""

import pytest

from repro.core import Instance, Scheme
from repro.dsl import parse_pattern
from repro.mvcc import SnapshotRegistry, capture_version
from repro.mvcc.registry import SnapshotError
from repro.plan.cache import cached_plan_count, plan_for
from repro.server.catalog import CatalogError, ServedDatabase


def people_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    return scheme


def served() -> ServedDatabase:
    return ServedDatabase("db", Instance(people_scheme()))


ADD_ADA = 'addnode Person(name -> n) { n: String = "ada" }'
ADD_BOB = 'addnode Person(name -> n) { n: String = "bob" }'


# ----------------------------------------------------------------------
# registry lifecycle
# ----------------------------------------------------------------------


class FakeVersion:
    """What the registry reads of a version."""

    def __init__(self, items: int = 0) -> None:
        self.pins = 0
        self.sequence = 0
        self.estimated_bytes = 64 * items


def test_pin_before_publish_raises():
    registry = SnapshotRegistry()
    with pytest.raises(SnapshotError):
        registry.pin()


def test_publish_pin_release_round_trip():
    registry = SnapshotRegistry()
    version = registry.publish(FakeVersion())
    assert registry.current is version
    pinned = registry.pin()
    assert pinned is version and version.pins == 1
    registry.release(pinned)
    assert version.pins == 0


def test_release_without_pin_raises():
    registry = SnapshotRegistry()
    version = registry.publish(FakeVersion())
    with pytest.raises(SnapshotError):
        registry.release(version)


def test_unpinned_predecessor_is_gced_at_publish():
    registry = SnapshotRegistry()
    registry.publish(FakeVersion())
    registry.publish(FakeVersion())
    gauges = registry.gauges()
    assert gauges["version_chain_length"] == 1
    assert gauges["versions_published"] == 2
    assert gauges["versions_gced"] == 1


def test_pinned_predecessor_survives_until_release():
    registry = SnapshotRegistry()
    old = registry.publish(FakeVersion(items=7))
    held = registry.pin()
    new = registry.publish(FakeVersion())
    assert registry.current is new
    gauges = registry.gauges()
    assert gauges["version_chain_length"] == 2
    assert gauges["snapshots_pinned"] == 1
    assert gauges["snapshot_bytes_shared"] == old.estimated_bytes > 0
    registry.release(held)
    gauges = registry.gauges()
    assert gauges["version_chain_length"] == 1
    assert gauges["versions_gced"] == 1
    assert gauges["snapshot_bytes_shared"] == 0


def test_current_version_release_does_not_gc():
    registry = SnapshotRegistry()
    version = registry.publish(FakeVersion())
    registry.release(registry.pin())
    assert registry.current is version
    assert registry.gauges()["versions_gced"] == 0


# ----------------------------------------------------------------------
# version capture
# ----------------------------------------------------------------------


def test_capture_version_items():
    database = served()
    database.run_program(ADD_ADA)
    version = capture_version(database)
    assert version.instance.node_count == 2
    assert version.estimated_bytes > 0


def test_pinned_version_ignores_later_commits():
    database = served()
    database.run_program(ADD_ADA)
    reader = database.read_view()
    database.run_program(ADD_BOB)
    # the pinned snapshot still sees one Person, the live side two
    assert reader.matchings("{ p: Person }")["total"] == 1
    assert database.matchings("{ p: Person }")["total"] == 2
    reader.release()


def test_scheme_evolution_does_not_reach_old_versions():
    database = served()
    database.run_program(ADD_ADA)
    reader = database.read_view()
    assert not reader.version.scheme.has_node_label("Admin")
    database.scheme.add_object_label("Admin")
    assert database.scheme.has_node_label("Admin")
    assert not reader.version.scheme.has_node_label("Admin")
    reader.release()


# ----------------------------------------------------------------------
# the SnapshotReader facade
# ----------------------------------------------------------------------


def test_reader_serves_every_read_verb():
    database = served()
    database.run_program(ADD_ADA)
    with database.read_view() as reader:
        assert reader.matchings("{ p: Person }")["total"] == 1
        reports, (nodes, edges) = reader.query_program(ADD_BOB)
        assert len(reports) == 1 and nodes == 4
        assert "Person" in reader.explain("{ p: Person }")["text"]
        person = sorted(reader.matchings("{ p: Person }")["matchings"][0].values())[0]
        assert reader.browse(person, hops=1).to_json()["nodes"]
        assert len(reader.to_json()["nodes"]) == 2
    # query mode never leaked into the snapshot or the live state
    assert database.matchings("{ p: Person }")["total"] == 1


def test_reader_rejects_writes():
    database = served()
    with database.read_view() as reader:
        with pytest.raises(CatalogError):
            reader.run_program(ADD_ADA)
        with pytest.raises(CatalogError):
            reader.undo()
        with pytest.raises(CatalogError):
            reader.checkpoint()


def test_reader_release_is_idempotent():
    database = served()
    reader = database.read_view()
    assert database.snapshots.gauges()["snapshots_pinned"] == 1
    reader.release()
    reader.release()
    assert database.snapshots.gauges()["snapshots_pinned"] == 0


def test_undo_publishes_a_fresh_version():
    database = served()
    database.run_program(ADD_ADA)
    before = database.snapshots.current
    database.undo()
    assert database.snapshots.current is not before
    with database.read_view() as reader:
        assert reader.matchings("{ p: Person }")["total"] == 0


def test_concurrent_queries_on_one_version_are_isolated():
    database = served()
    database.run_program(ADD_ADA)
    with database.read_view() as reader:
        first, _ = reader.query_program(ADD_BOB)
        second, _ = reader.query_program(ADD_BOB)
        # each query ran on its own clone: neither saw the other's Bob
        assert first[0].matching_count == second[0].matching_count


# ----------------------------------------------------------------------
# epoch-keyed plan cache
# ----------------------------------------------------------------------


def _plan(instance, source="{ p: Person }"):
    pattern, _ = parse_pattern(source, instance.scheme)
    return plan_for(pattern, instance)


def test_plan_cache_hits_within_an_epoch():
    instance = Instance(people_scheme())
    _, hit = _plan(instance)
    assert not hit
    _, hit = _plan(instance)
    assert hit


def test_snapshot_and_live_store_share_the_plan_cache():
    database = served()
    database.run_program(ADD_ADA)
    live = database.session.instance
    _plan(live)  # warm the live store's cache at the current epoch
    with database.read_view() as reader:
        snap = reader.session.instance
        # same epoch, shared dict: the snapshot hits immediately
        _, hit = _plan(snap)
        assert hit
        # the live side mutates; its epoch moves, the snapshot's doesn't
        database.run_program(ADD_BOB)
        _, hit = _plan(database.session.instance)
        assert not hit  # new epoch: recompiled
        _, hit = _plan(snap)
        assert hit  # old epoch entry still present for the snapshot
    assert cached_plan_count(snap) == cached_plan_count(database.session.instance)
