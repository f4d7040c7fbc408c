"""JSON round-trip for schemes and instances.

The wire format is deliberately plain — dictionaries of sorted lists —
so dumps are diffable and stable across runs.  Print values must be
JSON-serialisable (strings, numbers, booleans, null); richer domains
need a custom encoder at the call site.

Node ids are preserved through a round trip, so programs holding node
handles keep working against a reloaded instance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, IO, List, Set, Tuple, Union

from repro.core.errors import InstanceError, SchemeError, SerializationError
from repro.core.instance import Instance
from repro.core.scheme import Scheme
from repro.graph.store import GraphStore

FORMAT_VERSION = 1

#: The columnar bulk format (checkpoint streaming): the label table is
#: written once, then flat parallel int columns — ~10× smaller and much
#: faster to parse than the per-record format 1 on large instances.
#: :func:`instance_from_json` auto-detects both formats; format 1 stays
#: the default for user-facing SAVE/LOAD documents (diffable, obvious).
COLUMNAR_FORMAT_VERSION = 2


def _require_mapping(data: Any, what: str) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise SerializationError(
            f"{what} document must be a JSON object, got {type(data).__name__}"
        )
    return data


def _require_key(data: Dict[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise SerializationError(f"{where}: missing required key {key!r}")
    return data[key]


def _require_list(data: Dict[str, Any], key: str, where: str) -> list:
    value = _require_key(data, key, where)
    if not isinstance(value, list):
        raise SerializationError(
            f"{where}: {key!r} must be an array, got {type(value).__name__}"
        )
    return value


# ----------------------------------------------------------------------
# schemes
# ----------------------------------------------------------------------


def scheme_to_json(scheme: Scheme) -> Dict[str, Any]:
    """A JSON-ready dictionary for a scheme."""
    return {
        "format": FORMAT_VERSION,
        "object_labels": sorted(scheme.object_labels),
        "printable_labels": sorted(scheme.printable_labels),
        "functional_edge_labels": sorted(scheme.functional_edge_labels),
        "multivalued_edge_labels": sorted(scheme.multivalued_edge_labels),
        "properties": sorted(list(triple) for triple in scheme.properties),
        "isa_labels": sorted(scheme.isa_labels),
    }


def scheme_from_json(data: Dict[str, Any]) -> Scheme:
    """Rebuild a scheme; domains resolve through the built-in registry."""
    data = _require_mapping(data, "scheme")
    if data.get("format") != FORMAT_VERSION:
        raise SerializationError(f"unsupported scheme format {data.get('format')!r}")
    labels = {
        key: _require_list(data, key, "scheme")
        for key in (
            "object_labels",
            "printable_labels",
            "functional_edge_labels",
            "multivalued_edge_labels",
        )
    }
    properties = []
    for position, triple in enumerate(_require_list(data, "properties", "scheme")):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise SerializationError(
                f"scheme: properties[{position}] must be a [source, edge, target] "
                f"triple, got {triple!r}"
            )
        properties.append(tuple(triple))
    try:
        scheme = Scheme(properties=properties, **labels)
        for label in data.get("isa_labels", ()):
            scheme.mark_isa(label)
        scheme.validate()
    except (TypeError, ValueError) as error:
        raise SerializationError(f"scheme: malformed declaration: {error}") from error
    return scheme


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------


def instance_to_json(instance: Instance) -> Dict[str, Any]:
    """A JSON-ready dictionary for an instance (ids included)."""
    nodes = []
    for node_id in instance.nodes():
        record = instance.node_record(node_id)
        entry: Dict[str, Any] = {"id": node_id, "label": record.label}
        if record.has_print:
            entry["print"] = record.print_value
        nodes.append(entry)
    edges = [
        {"source": edge.source, "label": edge.label, "target": edge.target}
        for edge in instance.edges()
    ]
    return {
        "format": FORMAT_VERSION,
        "scheme": scheme_to_json(instance.scheme),
        "nodes": nodes,
        "edges": edges,
    }


def instance_to_columnar_json(instance: Instance) -> Dict[str, Any]:
    """A JSON-ready *columnar* document (format 2) for an instance.

    Requires the native columnar store; the label table appears once
    under ``labels`` and nodes/edges are flat parallel int lists.
    """
    columns = instance.store.snapshot_columns()
    return {
        "format": COLUMNAR_FORMAT_VERSION,
        "scheme": scheme_to_json(instance.scheme),
        "labels": columns["labels"],
        "node_ids": columns["node_ids"],
        "node_labels": columns["node_labels"],
        "prints": columns["prints"],
        "edges": columns["edges"],
        "next_id": columns["next_id"],
    }


def _node_entry(position: int, entry: Any) -> Tuple[int, str]:
    """``(id, label)`` of a format-1 node entry, checked field by field
    so a malformed one fails with an error naming its position."""
    where = f"instance: nodes[{position}]"
    entry = _require_mapping(entry, where)
    label = _require_key(entry, "label", where)
    node_id = _require_key(entry, "id", where)
    if not isinstance(node_id, int) or isinstance(node_id, bool):
        raise SerializationError(f"{where}: 'id' must be an integer, got {node_id!r}")
    if not isinstance(label, str):
        raise SerializationError(f"{where}: 'label' must be a string, got {label!r}")
    return node_id, label


def _edge_entry(position: int, entry: Any) -> Tuple[int, str, int]:
    """``(source, label, target)`` of a format-1 edge entry, checked
    like :func:`_node_entry`."""
    where = f"instance: edges[{position}]"
    entry = _require_mapping(entry, where)
    source = _require_key(entry, "source", where)
    label = _require_key(entry, "label", where)
    target = _require_key(entry, "target", where)
    for key, endpoint in (("source", source), ("target", target)):
        if not isinstance(endpoint, int) or isinstance(endpoint, bool):
            raise SerializationError(f"{where}: {key!r} must be an integer node id, got {endpoint!r}")
    if not isinstance(label, str):
        raise SerializationError(f"{where}: 'label' must be a string, got {label!r}")
    return source, label, target


def _columns_from_records(scheme: Scheme, data: Dict[str, Any]) -> Dict[str, Any]:
    """Format 1's node and edge entries as :meth:`GraphStore.from_columns`
    columns, each entry checked once where it stands.

    Located checks (``nodes[i]`` / ``edges[i]``): entry shape, id and
    label types, label kind in the scheme, the print value's domain
    (the checked value is the one stored), value uniqueness, an object
    node carrying a print, a repeated node id and an edge endpoint that
    names no node.  The label table lists node labels, then edge
    labels, each in order of first appearance, so interning it assigns
    the ids a node-by-node replay would.  A repeated edge is kept once
    (``from_columns`` deduplicates each label's pairs).
    """
    labels: List[str] = []
    local: Dict[str, int] = {}
    domains: Dict[str, Any] = {}  # node label -> its domain, or None for object labels
    node_ids: List[int] = []
    node_labels: List[int] = []
    prints: List[List[Any]] = []
    seen_prints: Set[Tuple[str, Any]] = set()
    position_of: Dict[int, int] = {}
    for position, entry in enumerate(_require_list(data, "nodes", "instance")):
        try:
            node_id, label = entry["id"], entry["label"]
            well_formed = type(node_id) is int and type(label) is str
        except (TypeError, KeyError):
            well_formed = False
        if not well_formed:
            node_id, label = _node_entry(position, entry)
        if label not in local:
            if scheme.is_printable_label(label):
                domains[label] = scheme.domain_of(label)
            elif scheme.is_object_label(label):
                domains[label] = None
            else:
                raise InstanceError(f"{label!r} is not an object label of the scheme")
            local[label] = len(labels)
            labels.append(label)
        if "print" in entry:
            domain = domains[label]
            if domain is None:
                raise SerializationError(
                    f"instance: nodes[{position}]: object node {node_id} carries a print value"
                )
            value = domain.check(entry["print"])
            try:
                duplicate = (label, value) in seen_prints
            except TypeError:
                raise SerializationError(
                    f"instance: nodes[{position}]: print value {value!r} is not hashable"
                ) from None
            if duplicate:
                raise InstanceError(f"a {label!r} node with print value {value!r} already exists")
            seen_prints.add((label, value))
            prints.append([len(node_ids), value])
        if node_id in position_of:
            raise SerializationError(
                f"instance: nodes[{position}]: duplicate node id {node_id} "
                f"(first at nodes[{position_of[node_id]}])"
            )
        position_of[node_id] = position
        node_ids.append(node_id)
        node_labels.append(local[label])
    pairs: Dict[str, List[int]] = {}  # edge label -> flat [source, target, ...]
    for position, entry in enumerate(_require_list(data, "edges", "instance")):
        try:
            source, label, target = entry["source"], entry["label"], entry["target"]
            well_formed = type(source) is int and type(target) is int and type(label) is str
        except (TypeError, KeyError):
            well_formed = False
        if not well_formed:
            source, label, target = _edge_entry(position, entry)
        if source not in position_of or target not in position_of:
            key, endpoint = ("source", source) if source not in position_of else ("target", target)
            raise SerializationError(f"instance: edges[{position}]: {key!r} {endpoint} names no node")
        flat = pairs.get(label)
        if flat is None:
            try:
                scheme.edge_kind(label)
            except SchemeError as error:
                raise InstanceError(f"instance: edges[{position}]: {error}") from None
            flat = pairs[label] = []
        flat += (source, target)
    for label in pairs:
        local[label] = len(labels)
        labels.append(label)
    return {
        "labels": labels,
        "node_ids": node_ids,
        "node_labels": node_labels,
        "prints": prints,
        "edges": [[local[label], flat] for label, flat in pairs.items()],
    }


def instance_from_json(data: Dict[str, Any]) -> Instance:
    """Rebuild an instance, preserving node ids, and validate it.

    Accepts both the per-record format 1 and the columnar format 2
    (auto-detected by the ``format`` key).  Either way the store is
    built in bulk by :meth:`GraphStore.from_columns` and then checked
    by :meth:`Instance.validate`.
    """
    data = _require_mapping(data, "instance")
    if data.get("format") not in (FORMAT_VERSION, COLUMNAR_FORMAT_VERSION):
        raise SerializationError(f"unsupported instance format {data.get('format')!r}")
    scheme = scheme_from_json(_require_key(data, "scheme", "instance"))
    columns = _columns_from_records(scheme, data) if data["format"] == FORMAT_VERSION else data
    instance = Instance(scheme, _store=GraphStore.from_columns(columns))
    instance.validate()
    return instance


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------


def save_scheme(scheme: Scheme, path: Union[str, Path]) -> None:
    """Write a scheme to a JSON file."""
    Path(path).write_text(json.dumps(scheme_to_json(scheme), indent=2, sort_keys=True))


def _parse_file(path: Union[str, Path]) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except ValueError as error:
        raise SerializationError(f"{path}: not valid JSON: {error}") from error


def load_scheme(path: Union[str, Path]) -> Scheme:
    """Read a scheme from a JSON file."""
    return scheme_from_json(_parse_file(path))


def write_instance(instance: Instance, fp: IO[str]) -> None:
    """Stream an instance as JSON to an open text file.

    Produces byte-for-byte the document ``json.dumps(
    instance_to_json(instance), indent=2, sort_keys=True)`` would, but
    emits one node/edge entry at a time instead of materialising the
    whole instance as a second in-memory object plus its dump string —
    checkpointing a 10^5-node store must not double peak memory.
    """
    dump = json.dumps  # compact per-entry encoder
    fp.write('{\n  "edges": [')
    first = True
    for edge in instance.edges():
        fp.write("," if not first else "")
        first = False
        fp.write(
            "\n    "
            + dump(
                {"label": edge.label, "source": edge.source, "target": edge.target},
                indent=2,
                sort_keys=True,
            ).replace("\n", "\n    ")
        )
    fp.write("\n  ],\n" if not first else "],\n")
    fp.write(f'  "format": {FORMAT_VERSION},\n  "nodes": [')
    first = True
    for node_id in instance.nodes():
        record = instance.node_record(node_id)
        entry: Dict[str, Any] = {"id": node_id, "label": record.label}
        if record.has_print:
            entry["print"] = record.print_value
        fp.write("," if not first else "")
        first = False
        fp.write("\n    " + dump(entry, indent=2, sort_keys=True).replace("\n", "\n    "))
    fp.write("\n  ],\n" if not first else "],\n")
    scheme_doc = dump(scheme_to_json(instance.scheme), indent=2, sort_keys=True)
    fp.write('  "scheme": ' + scheme_doc.replace("\n", "\n  ") + "\n}")


def _write_int_list(fp: IO[str], values: Any) -> None:
    # stream a long int list in bounded chunks instead of one dump string
    fp.write("[")
    for start in range(0, len(values), 65536):
        if start:
            fp.write(",")
        fp.write(",".join(map(str, values[start : start + 65536])))
    fp.write("]")


def write_instance_columnar(instance: Instance, fp: IO[str]) -> None:
    """Stream an instance in the columnar format 2 to an open file.

    The intern (label) table is written once; node and edge columns
    follow as flat int lists emitted in bounded chunks, so checkpointing
    a 10^6-node store costs neither a second in-memory instance document
    nor one giant dump string.
    """
    columns = instance.store.snapshot_columns()
    dump = json.dumps
    fp.write('{"format": %d,\n' % COLUMNAR_FORMAT_VERSION)
    fp.write('"labels": %s,\n' % dump(columns["labels"]))
    fp.write('"next_id": %d,\n' % columns["next_id"])
    fp.write('"node_ids": ')
    _write_int_list(fp, columns["node_ids"])
    fp.write(',\n"node_labels": ')
    _write_int_list(fp, columns["node_labels"])
    fp.write(',\n"prints": %s,\n' % dump(columns["prints"]))
    fp.write('"edges": [')
    for position, (local_id, flat) in enumerate(columns["edges"]):
        if position:
            fp.write(",")
        fp.write("\n[%d, " % local_id)
        _write_int_list(fp, flat)
        fp.write("]")
    fp.write('],\n')
    fp.write('"scheme": %s}' % dump(scheme_to_json(instance.scheme), sort_keys=True))


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    """Write an instance to a JSON file (streamed, see :func:`write_instance`)."""
    with Path(path).open("w") as fp:
        write_instance(instance, fp)


def load_instance(path: Union[str, Path]) -> Instance:
    """Read an instance from a JSON file."""
    return instance_from_json(_parse_file(path))
