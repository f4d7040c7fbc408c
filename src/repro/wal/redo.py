"""Redo records: the forward dual of the undo journals.

PR 5's journals describe every mutation *backwards* (enough to undo).
At commit time this module reads the same entries *forwards* and emits
redo operations — what recovery must re-apply on top of a checkpoint.
The served store's journal already is an operation log: each store
entry maps 1:1 to a redo op (``add_node`` / ``remove_node`` /
``set_print`` / ``add_edge`` / ``remove_edge``), replayed through the
raw :class:`~repro.graph.store.GraphStore` mutators.  Section 5's
relational and Tarski engines keep their own undo journals as library
code; they are not served, so nothing logs or replays them.

Scheme changes ride along as a single ``scheme`` op holding the
post-commit scheme document.  Every commit record also carries the
store's id counter so recovered stores keep numbering where the
crashed process stopped.

``UNDO`` is logged the same way: its transaction's journal records the
reverse replay, so its redo ops are the inverse of the undone commit's.
Releases before that logged an UNDO as a ``reset`` record holding the
whole instance; :func:`apply_reset` still reads those (and replica
resyncs still reinstall a checkpoint through :func:`replace_state`),
but nothing writes them.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.instance import Instance
from repro.graph.columns import intern_label, label_name
from repro.graph.store import NO_PRINT
from repro.io.serialize import (
    instance_from_json,
    scheme_from_json,
    scheme_to_json,
)
from repro.wal.record import WalFormatError


# ----------------------------------------------------------------------
# id counters
# ----------------------------------------------------------------------


def get_next_id(database: Any) -> int:
    """The store's node id counter right now."""
    return database.session.instance._store._next_id


def set_next_id(database: Any, value: int) -> None:
    """Reinstall a recovered id counter (never moves it backwards)."""
    store = database.session.instance._store
    store._next_id = max(store._next_id, value)


# ----------------------------------------------------------------------
# extraction (commit time)
# ----------------------------------------------------------------------


def extract_redo(database: Any, journal: Any) -> List[Dict[str, Any]]:
    """Derive redo ops from a still-open committed undo ``journal``."""
    ops = _native_redo(journal)
    if journal.scheme_dirty():
        ops.append({"op": "scheme", "scheme": scheme_to_json(database.scheme)})
    return ops


def _native_redo(journal: Any) -> List[Dict[str, Any]]:
    # columnar journals carry interned label ids; ops keep the compact
    # int (``lid``) and the record ships one small ``interns`` op
    # mapping the lids it uses back to strings, because interner ids
    # are process-local and must not be trusted across a WAL boundary
    ops: List[Dict[str, Any]] = []
    interns: Dict[str, str] = {}

    def encode(value: Any) -> int:
        lid = intern_label(value) if isinstance(value, str) else value
        key = str(lid)
        if key not in interns:
            interns[key] = label_name(lid)
        return lid

    for entry in journal.entries:
        tag = entry[0]
        if tag == "add_node":
            op = {"op": "add_node", "id": entry[1], "lid": encode(entry[2])}
            if entry[3] is not NO_PRINT:
                op["print"] = entry[3]
            ops.append(op)
        elif tag == "remove_node":
            ops.append({"op": "remove_node", "id": entry[1]})
        elif tag == "set_print":
            op = {"op": "set_print", "id": entry[1]}
            if entry[3] is not NO_PRINT:
                op["print"] = entry[3]
            ops.append(op)
        elif tag == "add_edge":
            ops.append(
                {"op": "add_edge", "source": entry[1], "lid": encode(entry[2]), "target": entry[3]}
            )
        elif tag == "remove_edge":
            ops.append(
                {"op": "remove_edge", "source": entry[1], "lid": encode(entry[2]), "target": entry[3]}
            )
        # "scheme"/"bind" entries are summarised by the single trailing
        # scheme op extract_redo appends
    if interns:
        ops.insert(0, {"op": "interns", "map": interns})
    return ops


# ----------------------------------------------------------------------
# replay (recovery time)
# ----------------------------------------------------------------------


def apply_commit(database: Any, record: Dict[str, Any]) -> None:
    """Re-apply one commit record's redo ops to a recovered database."""
    interns: Dict[str, str] = {}
    for op in record.get("redo", ()):
        if op.get("op") == "interns":
            interns = op.get("map", {})
            continue
        _apply_op(database, op, interns)
    next_id = record.get("next_id")
    if isinstance(next_id, int):
        set_next_id(database, next_id)


def apply_reset(database: Any, record: Dict[str, Any]) -> None:
    """Reinstall the full instance a ``reset`` record carries.

    Older releases logged each ``UNDO`` this way; the record is read,
    never written."""
    instance = instance_from_json(record["instance"])
    replace_state(database, instance)
    next_id = record.get("next_id")
    if isinstance(next_id, int):
        set_next_id(database, next_id)


def replace_state(database: Any, instance: Instance) -> None:
    """Swap a database's state for ``instance`` wholesale."""
    from repro.interactive import Session

    database.session = Session(instance)


def _op_label(op: Dict[str, Any], interns: Dict[str, str]) -> str:
    """Decode an op's label id via the record's intern map.

    Pre-columnar releases wrote the label as a ``label`` string key;
    such ops are refused, with the migration steps.
    """
    if "lid" not in op:
        raise WalFormatError(
            f"native redo op {op.get('op')!r} carries no label id (a pre-columnar "
            "WAL with string 'label' keys, which this release cannot read); to "
            "migrate, run the previous release on the data directory, CHECKPOINT "
            "each database, then upgrade"
        )
    lid = op["lid"]
    try:
        return interns[str(lid)]
    except KeyError:
        raise WalFormatError(
            f"redo op references label id {lid} absent from the record's intern map"
        ) from None


def _apply_op(database: Any, op: Dict[str, Any], interns: Dict[str, str]) -> None:
    kind = op.get("op")
    if kind == "scheme":
        database.scheme.restore_from(scheme_from_json(op["scheme"]))
        return
    store = database.session.instance._store
    if kind == "add_node":
        store.add_node(_op_label(op, interns), op.get("print", NO_PRINT), node_id=op["id"])
    elif kind == "remove_node":
        store.remove_node(op["id"])
    elif kind == "set_print":
        store.set_print(op["id"], op.get("print", NO_PRINT))
    elif kind == "add_edge":
        store.add_edge(op["source"], _op_label(op, interns), op["target"])
    elif kind == "remove_edge":
        store.remove_edge(op["source"], _op_label(op, interns), op["target"])
    else:
        raise WalFormatError(f"unknown native redo op {kind!r}")
