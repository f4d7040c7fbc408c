"""Unit tests for JSON serialisation round-trips."""

import json

import pytest

from repro.core import InstanceError
from repro.graph import isomorphic
from repro.io import (
    instance_from_json,
    instance_to_json,
    load_instance,
    load_scheme,
    save_instance,
    save_scheme,
    scheme_from_json,
    scheme_to_json,
)
from repro.io.serialize import SerializationError, instance_to_columnar_json


def test_scheme_round_trip(tiny_scheme):
    data = scheme_to_json(tiny_scheme)
    back = scheme_from_json(data)
    assert back == tiny_scheme


def test_scheme_round_trip_with_isa(hyper_scheme):
    scheme = hyper_scheme.copy()
    scheme.mark_isa("isa")
    back = scheme_from_json(scheme_to_json(scheme))
    assert back.isa_labels == frozenset({"isa"})


def test_scheme_json_is_json_serialisable(tiny_scheme):
    json.dumps(scheme_to_json(tiny_scheme))


def test_instance_round_trip(tiny_instance):
    back = instance_from_json(instance_to_json(tiny_instance))
    assert isomorphic(tiny_instance.store, back.store)
    # ids preserved exactly
    for node in tiny_instance.nodes():
        assert back.label_of(node) == tiny_instance.label_of(node)
        assert back.print_of(node) == tiny_instance.print_of(node)


def test_hyper_instance_round_trip(hyper):
    db, _ = hyper
    back = instance_from_json(instance_to_json(db))
    assert isomorphic(db.store, back.store)


def test_format_version_checked(tiny_scheme, tiny_instance):
    data = scheme_to_json(tiny_scheme)
    data["format"] = 99
    with pytest.raises(SerializationError):
        scheme_from_json(data)
    idata = instance_to_json(tiny_instance)
    idata["format"] = 99
    with pytest.raises(SerializationError):
        instance_from_json(idata)


def test_object_with_print_rejected(tiny_instance):
    data = instance_to_json(tiny_instance)
    person_entry = next(e for e in data["nodes"] if e["label"] == "Person")
    person_entry["print"] = "sneaky"
    with pytest.raises(SerializationError):
        instance_from_json(data)


def test_file_round_trip(tmp_path, tiny_scheme, tiny_instance):
    scheme_path = tmp_path / "scheme.json"
    instance_path = tmp_path / "instance.json"
    save_scheme(tiny_scheme, scheme_path)
    save_instance(tiny_instance, instance_path)
    assert load_scheme(scheme_path) == tiny_scheme
    assert isomorphic(load_instance(instance_path).store, tiny_instance.store)


def test_dump_is_stable(tiny_instance, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(tiny_instance, p1)
    save_instance(tiny_instance, p2)
    assert p1.read_text() == p2.read_text()


def test_reloaded_instance_validates(hyper):
    db, _ = hyper
    back = instance_from_json(instance_to_json(db))
    back.validate()


# ----------------------------------------------------------------------
# malformed payloads must fail with a clear, located SerializationError
# ----------------------------------------------------------------------


def test_non_object_documents_rejected():
    with pytest.raises(SerializationError, match="must be a JSON object"):
        scheme_from_json([1, 2, 3])
    with pytest.raises(SerializationError, match="must be a JSON object"):
        instance_from_json("nope")


def test_scheme_missing_key_is_named(tiny_scheme):
    data = scheme_to_json(tiny_scheme)
    del data["object_labels"]
    with pytest.raises(SerializationError, match="'object_labels'"):
        scheme_from_json(data)


def test_scheme_non_list_section_is_named(tiny_scheme):
    data = scheme_to_json(tiny_scheme)
    data["printable_labels"] = {"String": True}
    with pytest.raises(SerializationError, match="'printable_labels'.*array"):
        scheme_from_json(data)


def test_scheme_bad_property_triple_is_located(tiny_scheme):
    data = scheme_to_json(tiny_scheme)
    data["properties"][1] = ["Person", "name"]  # not a triple
    with pytest.raises(SerializationError, match=r"properties\[1\]"):
        scheme_from_json(data)


def test_instance_missing_scheme_is_named(tiny_instance):
    data = instance_to_json(tiny_instance)
    del data["scheme"]
    with pytest.raises(SerializationError, match="'scheme'"):
        instance_from_json(data)


def test_instance_node_entry_errors_are_located(tiny_instance):
    data = instance_to_json(tiny_instance)
    del data["nodes"][2]["label"]
    with pytest.raises(SerializationError, match=r"nodes\[2\].*'label'"):
        instance_from_json(data)


def test_instance_node_bad_id_type_is_located(tiny_instance):
    data = instance_to_json(tiny_instance)
    data["nodes"][0]["id"] = "one"
    with pytest.raises(SerializationError, match=r"nodes\[0\].*integer"):
        instance_from_json(data)


def test_instance_edge_entry_errors_are_located(tiny_instance):
    data = instance_to_json(tiny_instance)
    del data["edges"][3]["target"]
    with pytest.raises(SerializationError, match=r"edges\[3\].*'target'"):
        instance_from_json(data)
    data = instance_to_json(tiny_instance)
    data["edges"][0]["source"] = None
    with pytest.raises(SerializationError, match=r"edges\[0\].*'source'"):
        instance_from_json(data)


def test_instance_nodes_not_a_list_is_named(tiny_instance):
    data = instance_to_json(tiny_instance)
    data["nodes"] = {"0": {}}
    with pytest.raises(SerializationError, match="'nodes'.*array"):
        instance_from_json(data)


def test_boolean_ids_rejected(tiny_instance):
    # bool is an int subclass; it must not slip through as a node id
    data = instance_to_json(tiny_instance)
    data["nodes"][0]["id"] = True
    with pytest.raises(SerializationError, match=r"nodes\[0\].*integer"):
        instance_from_json(data)


def test_duplicate_node_id_is_located(tiny_instance):
    data = instance_to_json(tiny_instance)
    data["nodes"][4]["id"] = data["nodes"][1]["id"]
    with pytest.raises(SerializationError, match=r"nodes\[4\].*duplicate node id 1"):
        instance_from_json(data)


@pytest.mark.parametrize("key", ["source", "target"])
def test_edge_endpoint_naming_no_node_is_located(tiny_instance, key):
    data = instance_to_json(tiny_instance)
    data["edges"][2][key] = 99
    with pytest.raises(SerializationError, match=rf"edges\[2\].*'{key}' 99 names no node"):
        instance_from_json(data)


def test_repeated_edge_entry_is_one_edge(tiny_instance):
    data = instance_to_json(tiny_instance)
    data["edges"].append(dict(data["edges"][0]))
    back = instance_from_json(data)
    assert back.edge_count == tiny_instance.edge_count
    assert back.generation == back.node_count + back.edge_count


def test_undeclared_edge_label_is_located(tiny_instance):
    data = instance_to_json(tiny_instance)
    data["edges"][1]["label"] = "likes"
    with pytest.raises(InstanceError, match=r"edges\[1\].*'likes'"):
        instance_from_json(data)


def test_format_one_constraint_violation_is_an_instance_error(tiny_instance):
    # a second 'name' for node 0: functional, so the bulk load's validate rejects it
    data = instance_to_json(tiny_instance)
    data["edges"].append({"source": 0, "label": "name", "target": 4})
    with pytest.raises(InstanceError, match="functional edge 'name' leaves node 0 2 times"):
        instance_from_json(data)


def _corrupt(columns, case):
    if case == "duplicate node id":
        columns["node_ids"][1] = columns["node_ids"][0]
    elif case == "source names no node":
        columns["edges"][0][1][0] = 99
    elif case == "target names no node":
        columns["edges"][0][1][1] = 99
    elif case == "non-integer endpoint":
        columns["edges"][0][1][0] = 0.0
    elif case == "node label index out of range":
        columns["node_labels"][2] = len(columns["labels"])
    elif case == "edge label index out of range":
        columns["edges"][1][0] = -1
    elif case == "print index out of range":
        columns["prints"][0][0] = len(columns["node_ids"])
    elif case == "non-integer node id":
        columns["node_ids"][0] = "0"
    elif case == "boolean node id":
        columns["node_ids"][0] = False


COLUMNAR_CORRUPTIONS = {
    "duplicate node id": r"node_ids\[1\]: duplicate node id 0",
    "source names no node": r"edges\[0\]\[0\]: source 99 names no node",
    "target names no node": r"edges\[0\]\[1\]: target 99 names no node",
    "non-integer endpoint": r"edges\[0\]\[0\]: source 0.0 names no node",
    "node label index out of range": r"node_labels\[2\]: label index 6 out of range",
    "edge label index out of range": r"edges\[1\]: label index -1 out of range",
    "print index out of range": r"prints\[0\]: node index 8 out of range",
    "non-integer node id": r"node_ids\[0\]: node id must be a 64-bit integer, got '0'",
    "boolean node id": r"node_ids\[0\]: node id must be a 64-bit integer, got False",
}


@pytest.mark.parametrize("case", sorted(COLUMNAR_CORRUPTIONS))
def test_columnar_document_corruption_is_located(tiny_instance, case):
    data = instance_to_columnar_json(tiny_instance)
    _corrupt(data, case)
    with pytest.raises(SerializationError, match=COLUMNAR_CORRUPTIONS[case]):
        instance_from_json(data)


def test_columnar_document_round_trip(tiny_instance):
    back = instance_from_json(instance_to_columnar_json(tiny_instance))
    assert list(back.edges()) == list(tiny_instance.edges())
    assert back.generation == tiny_instance.node_count + tiny_instance.edge_count


def test_unparseable_file_names_the_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SerializationError, match="broken.json"):
        load_instance(path)
    with pytest.raises(SerializationError, match="broken.json"):
        load_scheme(path)
