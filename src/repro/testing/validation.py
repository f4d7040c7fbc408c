"""The node-by-node instance validator (oracle for ``Instance.validate``).

:meth:`repro.core.instance.Instance.validate` checks GOOD's four
instance constraints one column at a time.  This is the original
formulation, one node at a time through the store's public per-node
accessors, kept so property tests can require both to accept and
reject the same instances.
"""

from __future__ import annotations

from typing import Any, Set, Tuple

from repro.core.errors import InstanceError
from repro.core.instance import Instance


def validate_per_node(instance: Instance) -> None:
    """Re-check every instance constraint of ``instance``, node by node."""
    scheme, store = instance.scheme, instance.store
    seen_prints: Set[Tuple[str, Any]] = set()
    for node_id in store.nodes():
        record = store.node(node_id)
        if not scheme.has_node_label(record.label):
            raise InstanceError(f"node {node_id} has undeclared label {record.label!r}")
        if record.has_print:
            if not scheme.is_printable_label(record.label):
                raise InstanceError(f"object node {node_id} carries a print value")
            scheme.domain_of(record.label).check(record.print_value)
            key = (record.label, record.print_value)
            if key in seen_prints:
                raise InstanceError(f"duplicate printable node for {key!r}")
            seen_prints.add(key)
    for node_id in store.nodes():
        for edge_label in store.out_labels(node_id):
            targets = store.out_neighbours(node_id, edge_label)
            target_labels = {store.label_of(t) for t in targets}
            if len(target_labels) > 1:
                raise InstanceError(
                    f"node {node_id} has {edge_label!r}-successors with mixed labels "
                    f"{sorted(target_labels)!r}"
                )
            if scheme.is_functional(edge_label) and len(targets) > 1:
                raise InstanceError(
                    f"functional edge {edge_label!r} leaves node {node_id} "
                    f"{len(targets)} times"
                )
            source_label = store.label_of(node_id)
            for target_label in target_labels:
                if not scheme.allows_edge(source_label, edge_label, target_label):
                    raise InstanceError(
                        f"edge triple ({source_label!r}, {edge_label!r}, {target_label!r}) "
                        "is not permitted by the scheme"
                    )
