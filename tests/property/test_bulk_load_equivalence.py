"""Properties of the one bulk build path.

* A format-1 document loaded in bulk (``instance_from_json`` →
  ``GraphStore.from_columns``) equals a node-by-node replay of the same
  entries through ``Instance.add_object`` / ``add_printable`` /
  ``add_edge``: node ids, labels, prints, edges, the id counter, the
  mutation counters, the planner statistics and the order in which
  new labels enter the process-wide intern table.
* The column-wise ``Instance.validate`` accepts and rejects exactly
  what the node-by-node oracle ``repro.testing.validate_per_node``
  does, on valid instances and on raw-store corruptions of each
  instance constraint.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GoodError, Instance
from repro.graph import NO_PRINT
from repro.graph.columns import LABELS
from repro.io import instance_from_json, instance_to_json, scheme_from_json
from repro.testing import validate_per_node

from tests.property.strategies import scheme_instances, seeds

SETTINGS = settings(max_examples=40, deadline=None)

#: suffixes that make every example's labels new to the intern table
_FRESH = itertools.count()


def replay(doc):
    """The format-1 document applied one entry at a time."""
    scheme = scheme_from_json(doc["scheme"])
    instance = Instance(scheme)
    for entry in doc["nodes"]:
        if scheme.is_printable_label(entry["label"]):
            instance.add_printable(entry["label"], entry.get("print", NO_PRINT), _node_id=entry["id"])
        else:
            instance.add_object(entry["label"], _node_id=entry["id"])
    for entry in doc["edges"]:
        instance.add_edge(entry["source"], entry["label"], entry["target"])
    instance.validate()
    return instance


def renamed(doc, suffix):
    """``doc`` with ``suffix`` appended to every label, scheme included."""

    def name(label):
        return label + suffix

    scheme = dict(doc["scheme"])
    for key in (
        "object_labels",
        "printable_labels",
        "functional_edge_labels",
        "multivalued_edge_labels",
        "isa_labels",
    ):
        scheme[key] = [name(label) for label in scheme[key]]
    scheme["properties"] = [[name(s), name(e), name(t)] for s, e, t in scheme["properties"]]
    return dict(
        doc,
        scheme=scheme,
        nodes=[dict(entry, label=name(entry["label"])) for entry in doc["nodes"]],
        edges=[dict(entry, label=name(entry["label"])) for entry in doc["edges"]],
    )


def statistics(instance):
    store = instance.store
    node_labels = sorted(instance.scheme.object_labels | instance.scheme.printable_labels)
    edge_labels = sorted(instance.scheme.functional_edge_labels | instance.scheme.multivalued_edge_labels)
    return (
        [store.label_count(label) for label in node_labels],
        [store.edge_label_count(label) for label in edge_labels],
        [
            (store.out_degree_total(n, e), store.in_degree_total(n, e))
            for n in node_labels
            for e in edge_labels
        ],
    )


@given(scheme_instances(), seeds)
@SETTINGS
def test_bulk_format_one_load_equals_replay(data, seed):
    _, instance = data
    doc = instance_to_json(instance)
    rng = random.Random(seed)
    rng.shuffle(doc["nodes"])
    rng.shuffle(doc["edges"])
    # a repeated edge entry is a no-op on both paths
    doc["edges"] += rng.sample(doc["edges"], min(3, len(doc["edges"])))

    bulk, replayed = instance_from_json(doc), replay(doc)
    assert list(bulk.nodes()) == list(replayed.nodes())
    assert [bulk.node_record(n) for n in bulk.nodes()] == [
        replayed.node_record(n) for n in replayed.nodes()
    ]
    assert list(bulk.edges()) == list(replayed.edges())
    assert bulk.store.next_id == replayed.store.next_id
    assert bulk.generation == replayed.generation == bulk.node_count + bulk.edge_count
    assert bulk.store.stats_epoch == replayed.store.stats_epoch
    assert statistics(bulk) == statistics(replayed)

    tag = next(_FRESH)
    orders = []
    for load, suffix in ((instance_from_json, f"_b{tag}"), (replay, f"_r{tag}")):
        interned = len(LABELS)
        load(renamed(doc, suffix))
        orders.append([label[: -len(suffix)] for label in LABELS.snapshot()[interned:]])
    assert orders[0] == orders[1]


CORRUPTIONS = (
    "duplicate print",
    "mixed successor labels",
    "functional edge twice",
    "object node with print",
    "undeclared label",
    "edge triple not permitted",
)


def corrupt(instance, case, rng):
    """Break one instance constraint through the raw store."""
    scheme, store = instance.scheme, instance.store
    classes = sorted(scheme.object_labels)
    printable = rng.choice(sorted(scheme.printable_labels))
    if case == "duplicate print":
        valued = [n for n in instance.nodes_with_label(printable) if instance.print_of(n) is not NO_PRINT]
        value = instance.print_of(min(valued)) if valued else "twin"
        store.add_node(printable, value)
        if not valued:
            store.add_node(printable, value)
    elif case == "object node with print":
        store.add_node(rng.choice(classes), "value")
    elif case == "undeclared label":
        store.add_node("Undeclared")
    elif case == "edge triple not permitted":
        edges = sorted(scheme.functional_edge_labels | scheme.multivalued_edge_labels)
        forbidden = [
            (s, e, t)
            for s in classes
            for e in edges
            for t in sorted(scheme.object_labels | scheme.printable_labels)
            if not scheme.allows_edge(s, e, t)
        ]
        source_label, edge, target_label = rng.choice(forbidden)
        store.add_edge(store.add_node(source_label), edge, store.add_node(target_label))
    else:
        # two successors under one edge label, from a permitted triple
        # where the scheme has one, so no other constraint breaks too
        functional = case == "functional edge twice"
        kind = scheme.functional_edge_labels if functional else scheme.multivalued_edge_labels
        triples = sorted(t for t in scheme.properties if t[1] in kind) or [(classes[0], min(kind), classes[0])]
        source_label, edge, target_label = rng.choice(triples)
        if functional:
            other_label = target_label
        else:
            others = sorted(
                t for s, e, t in scheme.properties if (s, e) == (source_label, edge) and t != target_label
            ) or sorted((scheme.object_labels | scheme.printable_labels) - {target_label})
            other_label = rng.choice(others)
        source = store.add_node(source_label)
        store.add_edge(source, edge, store.add_node(target_label))
        store.add_edge(source, edge, store.add_node(other_label))


def outcome(check, instance):
    try:
        check(instance)
    except GoodError as error:
        return type(error)
    return None


@given(scheme_instances(), seeds, st.sampled_from((None,) + CORRUPTIONS), st.booleans())
@SETTINGS
def test_column_validate_agrees_with_per_node_oracle(data, seed, case, reloaded):
    _, instance = data
    if reloaded:
        # clean base columns from the bulk path instead of overlays
        instance = instance_from_json(instance_to_json(instance))
    if case is not None:
        corrupt(instance, case, random.Random(seed))
    column_wise = outcome(Instance.validate, instance)
    assert column_wise == outcome(validate_per_node, instance)
    assert (column_wise is None) == (case is None)
