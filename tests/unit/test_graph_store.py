"""Unit tests for the labeled multigraph store."""

import gc

import pytest

from repro.graph import NO_PRINT, Edge, GraphStore, GraphStoreError


def test_add_node_returns_sequential_ids():
    store = GraphStore()
    assert store.add_node("A") == 0
    assert store.add_node("B") == 1
    assert store.node_count == 2


def test_node_record_holds_label_and_print():
    store = GraphStore()
    node = store.add_node("P", "hello")
    record = store.node(node)
    assert record.label == "P"
    assert record.print_value == "hello"
    assert record.has_print


def test_node_without_print_has_sentinel():
    store = GraphStore()
    node = store.add_node("P")
    assert store.print_of(node) is NO_PRINT
    assert not store.node(node).has_print


def test_explicit_node_id_advances_counter():
    store = GraphStore()
    assert store.add_node("A", node_id=7) == 7
    assert store.add_node("A") == 8


def test_explicit_duplicate_node_id_rejected():
    store = GraphStore()
    store.add_node("A", node_id=3)
    with pytest.raises(GraphStoreError):
        store.add_node("A", node_id=3)


def test_unknown_node_raises():
    store = GraphStore()
    with pytest.raises(GraphStoreError):
        store.label_of(99)


def test_add_edge_and_membership():
    store = GraphStore()
    a, b = store.add_node("A"), store.add_node("B")
    assert store.add_edge(a, "e", b)
    assert store.has_edge(a, "e", b)
    assert not store.add_edge(a, "e", b)  # duplicate is a no-op
    assert store.edge_count == 1


def test_remove_edge():
    store = GraphStore()
    a, b = store.add_node("A"), store.add_node("B")
    store.add_edge(a, "e", b)
    assert store.remove_edge(a, "e", b)
    assert not store.has_edge(a, "e", b)
    assert not store.remove_edge(a, "e", b)
    assert store.edge_count == 0


def test_adjacency_views():
    store = GraphStore()
    a, b, c = (store.add_node("A") for _ in range(3))
    store.add_edge(a, "e", b)
    store.add_edge(a, "e", c)
    store.add_edge(b, "f", c)
    assert store.out_neighbours(a, "e") == frozenset({b, c})
    assert store.in_neighbours(c, "e") == frozenset({a})
    assert store.in_neighbours(c, "f") == frozenset({b})
    assert store.out_labels(a) == frozenset({"e"})
    assert store.in_labels(c) == frozenset({"e", "f"})


def test_remove_node_cascades_edges():
    store = GraphStore()
    a, b, c = (store.add_node("A") for _ in range(3))
    store.add_edge(a, "e", b)
    store.add_edge(b, "e", c)
    store.remove_node(b)
    assert store.node_count == 2
    assert store.edge_count == 0
    assert store.out_neighbours(a, "e") == frozenset()


def test_nodes_with_label_index():
    store = GraphStore()
    a = store.add_node("A")
    b = store.add_node("B")
    a2 = store.add_node("A")
    assert store.nodes_with_label("A") == frozenset({a, a2})
    store.remove_node(a)
    assert store.nodes_with_label("A") == frozenset({a2})
    assert store.nodes_with_label("missing") == frozenset()
    assert b in store


def test_print_index():
    store = GraphStore()
    p = store.add_node("P", "x")
    store.add_node("P", "y")
    assert store.nodes_with_print("P", "x") == frozenset({p})
    store.set_print(p, "z")
    assert store.nodes_with_print("P", "x") == frozenset()
    assert store.nodes_with_print("P", "z") == frozenset({p})


def test_set_print_to_sentinel_clears_index():
    store = GraphStore()
    p = store.add_node("P", "x")
    store.set_print(p, NO_PRINT)
    assert store.nodes_with_print("P", "x") == frozenset()
    assert store.print_of(p) is NO_PRINT


def test_edges_iteration_is_sorted():
    store = GraphStore()
    a, b, c = (store.add_node("A") for _ in range(3))
    store.add_edge(c, "z", a)
    store.add_edge(a, "a", b)
    edges = list(store.edges())
    assert edges == sorted(edges)
    assert Edge(a, "a", b) in edges


def test_edges_of_reports_self_loop_once():
    store = GraphStore()
    a = store.add_node("A")
    store.add_edge(a, "e", a)
    assert list(store.edges_of(a)) == [Edge(a, "e", a)]


def test_copy_is_independent_and_id_preserving():
    store = GraphStore()
    a, b = store.add_node("A"), store.add_node("B", "v")
    store.add_edge(a, "e", b)
    clone = store.copy()
    clone.remove_node(a)
    assert store.has_node(a)
    assert clone.add_node("C") == 2  # counter carried over
    assert store.nodes_with_print("B", "v") == frozenset({b})


def test_degree_counts_both_directions():
    store = GraphStore()
    a, b = store.add_node("A"), store.add_node("B")
    store.add_edge(a, "e", b)
    store.add_edge(b, "f", a)
    assert store.degree(a) == 2
    assert store.degree(b) == 2


def test_edges_with_label_index_tracks_mutations():
    store = GraphStore()
    a, b, c = (store.add_node("A") for _ in range(3))
    store.add_edge(a, "e", b)
    store.add_edge(b, "e", c)
    store.add_edge(a, "f", c)
    assert store.edges_with_label("e") == frozenset({(a, b), (b, c)})
    assert store.edges_with_label("f") == frozenset({(a, c)})
    assert store.edges_with_label("missing") == frozenset()
    store.remove_edge(a, "e", b)
    assert store.edges_with_label("e") == frozenset({(b, c)})
    store.remove_node(c)  # cascades (b, c) and (a, c)
    assert store.edges_with_label("e") == frozenset()
    assert store.edges_with_label("f") == frozenset()
    assert store.edge_labels_in_use() == frozenset()


def test_cardinality_statistics_stay_exact():
    store = GraphStore()
    a, a2, b = store.add_node("A"), store.add_node("A"), store.add_node("B")
    store.add_edge(a, "e", b)
    store.add_edge(a2, "e", b)
    assert store.label_count("A") == 2
    assert store.edge_label_count("e") == 2
    assert store.out_degree_total("A", "e") == 2
    assert store.in_degree_total("B", "e") == 2
    store.remove_edge(a, "e", b)
    assert store.out_degree_total("A", "e") == 1
    store.remove_node(a2)  # cascades its edge
    assert store.label_count("A") == 1
    assert store.out_degree_total("A", "e") == 0
    assert store.in_degree_total("B", "e") == 0


def test_stats_epoch_bumps_on_structure_not_prints():
    store = GraphStore()
    a = store.add_node("A", "x")
    b = store.add_node("B")
    epoch = store.stats_epoch
    store.set_print(a, "y")  # print rewrites keep cardinalities intact
    assert store.stats_epoch == epoch
    store.add_edge(a, "e", b)
    assert store.stats_epoch > epoch
    epoch = store.stats_epoch
    store.remove_edge(a, "e", b)
    assert store.stats_epoch > epoch


def test_neighbour_views_are_cached_until_mutation():
    """Repeated reads return the identical frozenset object; any
    mutation touching the key invalidates just that view."""
    store = GraphStore()
    a, b, c = (store.add_node("A") for _ in range(3))
    store.add_edge(a, "e", b)
    first = store.out_neighbours(a, "e")
    assert store.out_neighbours(a, "e") is first
    assert store.in_neighbours(b, "e") is store.in_neighbours(b, "e")
    assert store.nodes_with_label("A") is store.nodes_with_label("A")
    assert store.edges_with_label("e") is store.edges_with_label("e")
    store.add_edge(a, "e", c)
    second = store.out_neighbours(a, "e")
    assert second is not first
    assert second == frozenset({b, c})
    assert store.nodes_with_label("A") is not None  # still served after bump


def test_copy_carries_statistics_but_not_cached_views():
    store = GraphStore()
    a, b = store.add_node("A"), store.add_node("B")
    store.add_edge(a, "e", b)
    view = store.out_neighbours(a, "e")
    clone = store.copy()
    assert clone.edges_with_label("e") == frozenset({(a, b)})
    assert clone.out_degree_total("A", "e") == 1
    assert clone.stats_epoch == store.stats_epoch
    assert clone.out_neighbours(a, "e") == view
    clone.remove_edge(a, "e", b)
    assert store.out_degree_total("A", "e") == 1  # original untouched


# ----------------------------------------------------------------------
# copy-on-write forks (MVCC snapshots)
# ----------------------------------------------------------------------


def _forked_sample():
    store = GraphStore()
    a = store.add_node("A", "left")
    b = store.add_node("B", "right")
    store.add_edge(a, "e", b)
    return store, a, b


def test_frozen_fork_rejects_every_mutator():
    store, a, b = _forked_sample()
    snap = store.fork()
    assert snap.frozen and not store.frozen
    with pytest.raises(GraphStoreError, match="frozen"):
        snap.add_node("A")
    with pytest.raises(GraphStoreError, match="frozen"):
        snap.remove_node(b)
    with pytest.raises(GraphStoreError, match="frozen"):
        snap.add_edge(b, "e", a)
    with pytest.raises(GraphStoreError, match="frozen"):
        snap.remove_edge(a, "e", b)
    with pytest.raises(GraphStoreError, match="frozen"):
        snap.set_print(a, "other")


def test_live_side_diverges_without_touching_the_fork():
    store, a, b = _forked_sample()
    snap = store.fork()
    c = store.add_node("C")
    store.add_edge(a, "e", c)
    store.remove_edge(a, "e", b)
    store.set_print(a, "renamed")
    # the snapshot still answers with the pre-fork state
    assert snap.node_count == 2
    assert snap.has_edge(a, "e", b)
    assert not snap.has_edge(a, "e", c)
    assert snap.print_of(a) == "left"
    assert snap.nodes_with_label("C") == frozenset()
    # while the live store moved on
    assert store.node_count == 3
    assert not store.has_edge(a, "e", b)
    assert store.print_of(a) == "renamed"


def test_unchanged_fork_reuses_identical_view_objects():
    """Forking shares the cached frozenset views by object identity:
    until the live side diverges, both sides hand out the *same*
    frozensets (zero copying for read-mostly snapshots)."""
    store, a, b = _forked_sample()
    label_view = store.nodes_with_label("A")
    out_view = store.out_neighbours(a, "e")
    in_view = store.in_neighbours(b, "e")
    edge_view = store.edges_with_label("e")
    snap = store.fork()
    assert snap.nodes_with_label("A") is label_view
    assert snap.out_neighbours(a, "e") is out_view
    assert snap.in_neighbours(b, "e") is in_view
    assert snap.edges_with_label("e") is edge_view
    # a view first materialized on the frozen side is also shared back
    fresh = snap.nodes_with_label("B")
    assert store.nodes_with_label("B") is fresh


def test_diverged_fork_stops_sharing_but_keeps_its_views():
    store, a, b = _forked_sample()
    out_view = store.out_neighbours(a, "e")
    snap = store.fork()
    c = store.add_node("C")
    store.add_edge(a, "e", c)
    # live store invalidated and rebuilt its view; the snapshot keeps
    # serving the pre-fork object
    assert snap.out_neighbours(a, "e") is out_view
    assert store.out_neighbours(a, "e") == frozenset({b, c})


def test_fork_chain_supports_many_epochs():
    store = GraphStore()
    a = store.add_node("A")
    snaps = []
    for i in range(10):
        snaps.append(store.fork())
        store.add_node("B")
        store.add_edge(a, "e", store.next_id - 1)
    for i, snap in enumerate(snaps):
        assert snap.node_count == 1 + i
        assert snap.edge_count == i


def test_forking_a_frozen_parent_yields_mutable_clone():
    """A frozen parent forks into another frozen snapshot; the mutable
    clone of it is ``copy()``, and writes to that clone reach neither
    the snapshots nor the live store."""
    store, a, b = _forked_sample()
    snap = store.fork()
    grandchild = snap.fork()
    assert grandchild.frozen
    scratch = snap.copy()
    assert not scratch.frozen
    scratch.add_node("C")
    scratch.remove_edge(a, "e", b)
    assert scratch.node_count == 3 and not scratch.has_edge(a, "e", b)
    for side in (snap, grandchild, store):
        assert side.node_count == 2 and side.has_edge(a, "e", b)


def test_copy_of_frozen_store_is_mutable():
    store, a, b = _forked_sample()
    snap = store.fork()
    clone = snap.copy()
    assert not clone.frozen
    clone.add_node("C")
    clone.remove_edge(a, "e", b)
    clone.set_print(a, "scratch")
    # neither the frozen snapshot nor the live store noticed
    assert snap.node_count == 2 and snap.has_edge(a, "e", b)
    assert store.node_count == 2 and store.has_edge(a, "e", b)
    assert snap.print_of(a) == store.print_of(a) == "left"


def test_fork_always_freezes():
    """``copy()`` is the one mutable clone; ``fork`` has no mode knob."""
    store, _, _ = _forked_sample()
    with pytest.raises(TypeError):
        store.fork(frozen=False)


def test_fork_preserves_statistics_and_epoch():
    store, a, b = _forked_sample()
    snap = store.fork()
    assert snap.stats_epoch == store.stats_epoch
    assert snap.out_degree_total("A", "e") == 1
    store.add_edge(b, "e", a)
    assert snap.out_degree_total("B", "e") == 0
    assert store.stats_epoch > snap.stats_epoch


def _warm_everything(store, nodes):
    for node in nodes:
        for label in ("e", "f"):
            store.out_neighbours(node, label)
            store.in_neighbours(node, label)
    for label in ("A", "B"):
        store.nodes_with_label(label)
    for label in ("e", "f"):
        store.edges_with_label(label)


def test_commit_after_publish_allocates_o_changes_containers():
    """Diverging from a published version costs O(changes) allocations:
    the first writes after ``fork()`` on a 10⁴-node store
    with every view warmed create a bounded number of gc-tracked
    objects, not one per node."""
    size = 10_000
    store = GraphStore()
    nodes = [store.add_node("A" if i % 2 else "B") for i in range(size)]
    for i in range(size):
        store.add_edge(nodes[i], "e", nodes[(i + 1) % size])
        store.add_edge(nodes[i], "f", nodes[(i * 7) % size])
    _warm_everything(store, nodes)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        snapshot = store.fork()
        store.add_edge(nodes[0], "e", nodes[2])
        store.add_node("A")
        store.remove_edge(nodes[5], "f", nodes[35])
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert grown <= 200, grown
    assert snapshot.out_neighbours(nodes[0], "e") == frozenset({nodes[1]})
    assert store.out_neighbours(nodes[0], "e") == frozenset({nodes[1], nodes[2]})


def test_object_node_after_publish_copies_no_per_node_container():
    """Adding an object node after ``fork()`` must not copy any
    gc-tracked container with a cell per node: the collector walks each
    such copy on its next young-generation pass, so its size is paid as
    pause time on some later request."""
    size = 10_000
    store = GraphStore()
    nodes = [store.add_node("A", print_value=i if i % 5 == 0 else NO_PRINT) for i in range(size)]
    _warm_everything(store, nodes)
    gc.collect()
    gc.disable()
    try:
        before = {id(obj) for obj in gc.get_objects()}
        snapshot = store.fork()
        added = store.add_node("A")
        cells = sum(
            len(obj)
            for obj in gc.get_objects()
            if id(obj) not in before
            and obj is not before
            and isinstance(obj, (list, dict, set, frozenset, tuple))
        )
    finally:
        gc.enable()
    assert cells <= 100, cells
    assert not snapshot.has_node(added) and store.print_of(added) is NO_PRINT
    assert snapshot.print_of(nodes[5]) == store.print_of(nodes[5]) == 5


def test_forked_dirty_column_keeps_snapshot_and_shares_untouched_sets():
    """A column with a pending overlay, forked and then mutated: the
    snapshot keeps answering the pre-fork contents, the live side sees
    the change, and an untouched node's neighbour set stays the
    identical object on both sides."""
    store = GraphStore()
    nodes = [store.add_node("A") for _ in range(200)]
    for i in range(100):  # enough to fold the first edges into the base
        store.add_edge(nodes[i], "e", nodes[i + 1])
    store.add_edge(nodes[150], "e", nodes[151])  # stays pending
    assert store._ecol_for("e").dirty
    touched, untouched = nodes[150], nodes[10]
    untouched_set = store.out_neighbours(untouched, "e")
    before = store.out_neighbours(touched, "e")
    snapshot = store.fork()
    store.add_edge(touched, "e", nodes[199])
    store.remove_edge(nodes[20], "e", nodes[21])
    assert snapshot.out_neighbours(touched, "e") is before
    assert snapshot.out_neighbours(touched, "e") == frozenset({nodes[151]})
    assert snapshot.out_neighbours(nodes[20], "e") == frozenset({nodes[21]})
    assert snapshot.in_neighbours(nodes[199], "e") == frozenset()
    assert store.out_neighbours(touched, "e") == frozenset({nodes[151], nodes[199]})
    assert store.out_neighbours(nodes[20], "e") == frozenset()
    assert store.in_neighbours(nodes[199], "e") == frozenset({touched})
    assert store.out_neighbours(untouched, "e") is untouched_set
    assert snapshot.out_neighbours(untouched, "e") is untouched_set


def test_id_counter_stops_where_its_successor_still_fits_int64():
    from repro.core.errors import SerializationError

    top = 2**63 - 2  # the largest node id
    store = GraphStore()
    store.add_node("A", node_id=top)
    assert store.next_id == 2**63 - 1
    # refused before any column changes: the counter is spent, and
    # neither 2**63 - 1 nor anything past int64 is an id
    with pytest.raises(GraphStoreError):
        store.add_node("B")
    for bad in (2**63 - 1, 2**63, -(2**63) - 1):
        with pytest.raises(GraphStoreError):
            store.add_node("B", node_id=bad)
    assert store.add_node("C", node_id=5) == 5
    assert len(store._slot_label) == len(store._slot_id) == store.node_count == 2
    assert store.next_id == 2**63 - 1

    columns = store.snapshot_columns()
    back = GraphStore.from_columns(columns)
    assert sorted(back.nodes()) == [5, top]
    assert back.label_of(top) == "A" and back.label_of(5) == "C"
    assert back.next_id == 2**63 - 1

    position = columns["node_ids"].index(top)
    columns["node_ids"][position] = 2**63 - 1
    with pytest.raises(SerializationError, match=rf"node_ids\[{position}\]"):
        GraphStore.from_columns(columns)
    columns["node_ids"][position] = top
    columns["next_id"] = 2**63
    with pytest.raises(SerializationError, match="'next_id'"):
        GraphStore.from_columns(columns)
