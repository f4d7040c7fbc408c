"""Memory benchmark for the compact columnar :class:`GraphStore`.

One claim to certify, against the retained dict-backed
:class:`ReferenceGraphStore` (the pre-columnar implementation, kept as
the equivalence oracle):

* **memory** — interned labels in ``array('q')`` slot columns plus CSR
  adjacency must shrink the resident bytes of a million-node graph by
  ≥3× versus per-node record objects and nested dict-of-dict-of-set
  adjacency.  Both stores are measured with the same generic
  :func:`deep_sizeof` walker (every reachable container and leaf,
  deduplicated by object identity) so neither side's self-reported
  accounting is trusted for the ratio.  The columnar store's own
  ``store_bytes()`` gauge is archived too, with a ``byte_floors``
  ceiling that :mod:`benchmarks.check_floors` checks in the ≤
  direction.

The two stores are built from the identical pseudo-random edge stream
(regenerated from the seed rather than materialised, so both graphs
never coexist with a 2M-tuple edge list).  The reference store is
measured and *released* before the columnar store is built, keeping the
benchmark's peak footprint near a single store.

Scale defaults to 10⁶ nodes / 2×10⁶ edge attempts and is overridable
via ``REPRO_BENCH_COLUMNAR_NODES`` for quick local runs; the archived
``BENCH_columnar.json`` floors are only meaningful at full scale.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import time
from array import array
from pathlib import Path

import pytest

from repro.graph import NO_PRINT, GraphStore
from repro.graph.columns import LABELS
from repro.testing import ReferenceGraphStore

RESULTS: dict = {"benchmarks": {}}

OUT_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_COLUMNAR_OUT",
        Path(__file__).resolve().parent.parent / "BENCH_columnar.json",
    )
)

NODE_COUNT = int(os.environ.get("REPRO_BENCH_COLUMNAR_NODES", "1000000"))
EDGE_ATTEMPTS = 2 * NODE_COUNT
SEED = 2590

#: archived floor — resident-bytes reduction
MIN_BYTES_RATIO = 3.0

#: per-element budget for the columnar store's own ``store_bytes()``
#: gauge: three node columns + id map + membership (~56 B/node, with
#: slack for the free list and overlays) and two CSR directions
#: (~64 B/edge including offset arrays and pending-set headroom).
BYTES_PER_NODE_CAP = 120
BYTES_PER_EDGE_CAP = 100


def edge_stream(n_nodes: int, attempts: int, seed: int):
    """The deterministic pseudo-random edge stream, regenerable so the
    two stores are built from identical input without materialising it."""
    rng = random.Random(seed)
    randrange = rng.randrange
    for _ in range(attempts):
        yield randrange(n_nodes), randrange(n_nodes)


def build_store(store_class):
    """Populate one store: ``NODE_COUNT`` object nodes, 17 printable
    ``V`` nodes, a sparse ``name`` edge (one object node per thousand
    points at a value and gets a planted ``e`` triangle, so the graph
    matches earlier archived runs) and the shared dense ``e`` stream.
    Returns ``(store, build_s)``."""
    store = store_class()
    started = time.perf_counter()
    for node in range(NODE_COUNT):
        store.add_node("N", NO_PRINT)
    values = [store.add_node("V", value) for value in range(17)]
    for node in range(0, NODE_COUNT, 1000):
        store.add_edge(node, "name", values[(node // 1000) % 17])
        store.add_edge(node, "e", node + 1)
        store.add_edge(node + 1, "e", node + 2)
        store.add_edge(node, "e", node + 2)
    for source, target in edge_stream(NODE_COUNT, EDGE_ATTEMPTS, SEED):
        store.add_edge(source, "e", target)
    return store, time.perf_counter() - started


def deep_sizeof(root) -> int:
    """Total bytes reachable from ``root``: containers, slot objects,
    array buffers and string/int leaves, each counted once by identity.
    The same walker measures both store layouts, so the ratio does not
    depend on either implementation's self-accounting."""
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        total += sys.getsizeof(obj)
        if isinstance(obj, (str, bytes, bytearray, int, float, bool, array)):
            continue  # flat buffers: already fully counted
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            attrs = getattr(obj, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            for klass in type(obj).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    value = getattr(obj, slot, None)
                    if value is not None:
                        stack.append(value)
    return total


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    OUT_PATH.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n")


def test_columnar_store_bytes():
    # --- reference store first: measure, release ---------------------
    reference, reference_build_s = build_store(ReferenceGraphStore)
    reference_bytes = deep_sizeof(reference)
    reference_edges = reference.edge_count
    del reference
    gc.collect()

    # --- columnar store from the identical edge stream --------------
    columnar, columnar_build_s = build_store(GraphStore)
    columnar_bytes = deep_sizeof(columnar) + LABELS.table_bytes()
    assert columnar.edge_count == reference_edges

    self_reported = columnar.store_bytes()
    bytes_ratio = reference_bytes / columnar_bytes
    byte_cap = NODE_COUNT * BYTES_PER_NODE_CAP + reference_edges * BYTES_PER_EDGE_CAP

    RESULTS["benchmarks"][f"columnar-{NODE_COUNT}"] = {
        "nodes": NODE_COUNT,
        "edges": reference_edges,
        "reference_build_s": round(reference_build_s, 3),
        "columnar_build_s": round(columnar_build_s, 3),
        "reference_deep_bytes": reference_bytes,
        "columnar_deep_bytes": columnar_bytes,
        "store_bytes": self_reported,
        "bytes_ratio": round(bytes_ratio, 2),
        "floors": {"bytes_ratio": MIN_BYTES_RATIO},
        "byte_floors": {"store_bytes": byte_cap},
    }

    assert bytes_ratio >= MIN_BYTES_RATIO, (
        f"columnar store only {bytes_ratio:.2f}x smaller "
        f"({reference_bytes} vs {columnar_bytes} bytes)"
    )
    assert self_reported <= byte_cap, (
        f"store_bytes {self_reported} exceeds the {byte_cap} byte ceiling"
    )
