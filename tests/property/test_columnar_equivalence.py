"""Property: columnar GraphStore ≡ dict-backed ReferenceGraphStore.

The columnar store replaces hash-map node records with interned-label
slot columns, a free list that recycles slots, and CSR adjacency as the
primary edge representation.  None of that machinery may be observable
through the store API.  We drive both implementations through the same
random interleaving of mutations — adds, removes (which exercise slot
reuse through the free list), print rewrites, edge churn, overlay
flushes, copies and checkpoint round trips — and assert the full
observable surface matches at every step: node/edge sets, labels,
prints, neighbour sets, label and edge-label sets, degrees, sorted
adjacency contents, and iteration order.  Published snapshots
(``fork()``) are retained across later steps and must keep showing
their fork-time state: that is what the copy-on-write rule protects.

Removals followed by adds deliberately hammer the free list (a slot id
from a dead node is recycled for a live one), and the label pool is
small so the intern table both grows and gets heavy reuse.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.graph import NO_PRINT, GraphStore, GraphStoreError, columns
from repro.testing import ReferenceGraphStore

SETTINGS = settings(max_examples=40, stateful_step_count=60, deadline=None)

NODE_LABELS = ("Person", "City", "Film", "Tag")
EDGE_LABELS = ("knows", "lives_in", "likes")
PRINTS = st.one_of(
    st.just(NO_PRINT),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["ada", "alan", "grace", ""]),
)


def observable_state(store):
    """Everything a client can see, as one comparable structure."""
    nodes = {
        node: (store.label_of(node), store.print_of(node)) for node in store.nodes()
    }
    edges = sorted((edge.source, edge.label, edge.target) for edge in store.edges())
    neighbours = {
        (node, label, direction): sorted(
            store.out_neighbours(node, label)
            if direction == "out"
            else store.in_neighbours(node, label)
        )
        for node in nodes
        for label in EDGE_LABELS
        for direction in ("out", "in")
    }
    adjacency = {}
    for label in EDGE_LABELS:
        index = store.sorted_adjacency(label)
        adjacency[label] = {
            source: sorted(index.targets_of(source)) for source in index.sources()
        }
    return {
        "nodes": nodes,
        "prints": {
            (label, value): store.nodes_with_print(label, value)
            for label, value in nodes.values()
            if value is not NO_PRINT
        },
        "iteration": list(store),
        "sorted_by_label": {
            label: list(store.sorted_nodes_with_label(label)) for label in NODE_LABELS
        },
        "by_label": {label: store.nodes_with_label(label) for label in NODE_LABELS},
        "by_edge_label": {label: store.edges_with_label(label) for label in EDGE_LABELS},
        "labels": sorted(store.labels_in_use()),
        "edge_labels": sorted(store.edge_labels_in_use()),
        "node_count": store.node_count,
        "edge_count": store.edge_count,
        "edges": edges,
        "neighbours": neighbours,
        "adjacency": adjacency,
    }


class ColumnarMatchesReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.columnar = GraphStore()
        self.reference = ReferenceGraphStore()
        self.live = []  # node ids present in both stores
        self.dead = []  # removed ids: re-adding them exercises slot reuse
        # the last three published (columnar, reference) snapshot pairs,
        # each with the observable state both showed when forked
        self.retained = []
        # fold overlays after a few pending changes instead of 64, so
        # flushes (fresh base arrays under shared columns) happen in a run
        self._flush_min, columns._FLUSH_MIN = columns._FLUSH_MIN, 2

    def teardown(self):
        columns._FLUSH_MIN = self._flush_min

    def _pair(self, action):
        """Apply ``action`` to both stores; they must agree on outcome."""
        outcomes = []
        for store in (self.columnar, self.reference):
            try:
                outcomes.append(("ok", action(store)))
            except GraphStoreError as error:
                outcomes.append(("err", type(error).__name__))
        assert outcomes[0] == outcomes[1], outcomes
        return outcomes[0]

    @rule(label=st.sampled_from(NODE_LABELS), print_value=PRINTS)
    def add_node(self, label, print_value):
        status, node = self._pair(
            lambda s: s.add_node(label, print_value=print_value)
        )
        if status == "ok":
            self.live.append(node)

    @rule(label=st.sampled_from(NODE_LABELS), print_value=PRINTS, data=st.data())
    def readd_removed_id(self, label, print_value, data):
        """Re-add a previously removed id: the columnar store must
        recycle a free slot without resurrecting stale column data."""
        if not self.dead:
            return
        node = data.draw(st.sampled_from(self.dead))
        status, _ = self._pair(
            lambda s: s.add_node(label, print_value=print_value, node_id=node)
        )
        if status == "ok":
            self.dead.remove(node)
            self.live.append(node)

    @rule(data=st.data())
    def remove_node(self, data):
        if not self.live:
            return
        node = data.draw(st.sampled_from(self.live))
        status, _ = self._pair(lambda s: s.remove_node(node))
        if status == "ok":
            self.live.remove(node)
            self.dead.append(node)

    @rule(print_value=PRINTS, data=st.data())
    def set_print(self, print_value, data):
        if not self.live:
            return
        node = data.draw(st.sampled_from(self.live))
        self._pair(lambda s: s.set_print(node, print_value))

    @rule(label=st.sampled_from(EDGE_LABELS), data=st.data())
    def add_edge(self, label, data):
        if not self.live:
            return
        source = data.draw(st.sampled_from(self.live))
        target = data.draw(st.sampled_from(self.live))
        self._pair(lambda s: s.add_edge(source, label, target))

    @rule(label=st.sampled_from(EDGE_LABELS), data=st.data())
    def remove_edge(self, label, data):
        if not self.live:
            return
        source = data.draw(st.sampled_from(self.live))
        target = data.draw(st.sampled_from(self.live))
        self._pair(lambda s: s.remove_edge(source, label, target))

    @rule()
    def publish(self):
        """Fork both stores (the MVCC publish path) and retain the pair."""
        pair = (self.columnar.fork(), self.reference.fork())
        self.retained = self.retained[-2:] + [pair + (observable_state(pair[0]),)]

    @rule(data=st.data())
    def fork_and_diverge(self, data):
        """Copy both live stores, or a retained snapshot pair, mutate the
        copies and drop them: the sources must stay untouched."""
        sources = [(self.columnar, self.reference)]
        sources += [(columnar, reference) for columnar, reference, _ in self.retained]
        children = tuple(store.copy() for store in data.draw(st.sampled_from(sources)))
        node = next(iter(children[0]), None)
        for child in children:
            fresh = child.add_node("Tag", print_value="fork-local")
            if node is not None:
                child.add_edge(fresh, "likes", node)
                child.remove_node(node)
        assert observable_state(children[0]) == observable_state(children[1])

    @rule()
    def checkpoint_roundtrip(self):
        """Replace the columnar side by its format-2 checkpoint image:
        a store rebuilt by ``from_columns`` must answer every probe."""
        self.columnar = GraphStore.from_columns(self.columnar.snapshot_columns())

    @invariant()
    def stores_agree(self):
        assert observable_state(self.columnar) == observable_state(self.reference)

    @invariant()
    def next_ids_agree(self):
        assert self.columnar.next_id == self.reference.next_id

    @invariant()
    def retained_snapshots_hold(self):
        for columnar, reference, state in self.retained:
            assert observable_state(columnar) == state
            assert observable_state(reference) == state


ColumnarMatchesReference.TestCase.settings = SETTINGS
TestColumnarMatchesReference = ColumnarMatchesReference.TestCase


@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(NODE_LABELS), PRINTS, st.integers(min_value=0, max_value=7)
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_slot_reuse_keeps_ids_and_columns_consistent(steps):
    """Interleaved add/remove at fixed ids: slots recycle through the
    free list, external ids never change meaning."""
    columnar, reference = GraphStore(), ReferenceGraphStore()
    for label, print_value, node_id in steps:
        for store in (columnar, reference):
            if store.has_node(node_id):
                store.remove_node(node_id)
            else:
                store.add_node(label, print_value=print_value, node_id=node_id)
        assert observable_state(columnar) == observable_state(reference)


def test_intern_table_growth_is_invisible():
    """Hundreds of distinct labels: the interner grows, the API stays
    label-string based and equal to the reference."""
    columnar, reference = GraphStore(), ReferenceGraphStore()
    for index in range(300):
        label = f"Label{index}"
        for store in (columnar, reference):
            store.add_node(label, print_value=index, node_id=index)
    for index in range(0, 300, 7):
        for store in (columnar, reference):
            store.add_edge(index, f"edge{index % 13}", (index * 3) % 300)
    assert observable_state(columnar)["nodes"] == observable_state(reference)["nodes"]
    for index in range(0, 300, 11):  # spot-check label round trips
        assert columnar.label_of(index) == f"Label{index}"
