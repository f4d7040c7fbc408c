"""Benchmarks for the transaction layer (`repro.txn`).

Undo-journal transactions (:class:`repro.txn.Transaction`) against the
full-snapshot oracle (:class:`repro.testing.SnapshotTransaction`), on
the two workloads where snapshot costs dominate:

* **small-write-50k** — committed transactions touching 10 edges each
  on a 50 000-node instance (the dominant real workload: transactions
  that succeed).  The snapshot protocol pays a full O(nodes+edges)
  copy at begin; the journal pays O(1) at begin and O(10) bookkeeping;
* **savepoint-loop-10k** — a savepoint-heavy loop (20 savepoints,
  every fourth rolled back to) on a 10 000-node instance.  Snapshots
  copy the instance per savepoint; journal savepoints are watermarks.

The headline number is asserted mechanically: the journal protocol
must be at least 10× faster on both workloads.

Both workloads pin their instances to the dict-backed
:class:`~repro.testing.ReferenceGraphStore`.  The default columnar
store's ``copy()`` is a copy-on-write fork — capturing a snapshot
there costs O(1) plus privatization of whatever the transaction later
touches, which collapses the full-copy baseline this module exists to
measure (see ``BENCH_columnar.json`` for the columnar story).  The
reference layout is where an eager full copy has its classic
O(nodes+edges) cost, so the journal-vs-snapshot comparison keeps
measuring the *protocol* discipline, not the store layout.

On top of the per-test numbers, the module writes a machine-readable
``BENCH_txn.json`` next to the repo root (path overridable via
``REPRO_BENCH_TXN_OUT``) so CI can archive the comparison without
parsing test output.  The file is written on module teardown; the
timing loops are explicit (one timed run per protocol), so the module
behaves identically under ``--benchmark-disable``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core import Instance, Scheme
from repro.core import counters as _counters
from repro.testing import ReferenceGraphStore, SnapshotTransaction
from repro.txn import Transaction

RESULTS: dict = {"benchmarks": {}}

OUT_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_TXN_OUT",
        Path(__file__).resolve().parent.parent / "BENCH_txn.json",
    )
)

#: Both workloads carry the mechanical ≥10× assertion.
REQUIRED_SPEEDUP = 10.0


def build_people(count: int):
    """A ``count``-person instance with a sparse ``knows`` backbone,
    on the reference layout (see module docstring)."""
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    instance = Instance(scheme, _store=ReferenceGraphStore())
    ids = [instance.add_object("Person") for _ in range(count)]
    for i in range(0, count - 1, 10):
        instance.add_edge(ids[i], "knows", ids[i + 1])
    return instance, ids


def exact_counts(instance):
    return instance.node_count, instance.edge_count


def timed_small_writes(instance, ids, protocol, repeats: int, edges: int):
    """Total seconds for ``repeats`` pairs of committed transactions:
    one adding ``edges`` edges, one removing them again."""
    started = time.perf_counter()
    for _ in range(repeats):
        txn = protocol(instance)
        for i in range(edges):
            instance.add_edge(ids[i], "knows", ids[i + 2])
        txn.commit()
        txn = protocol(instance)
        for i in range(edges):
            instance.remove_edge(ids[i], "knows", ids[i + 2])
        txn.commit()
    return time.perf_counter() - started


def timed_savepoint_loop(instance, ids, protocol, points: int):
    """One transaction taking ``points`` savepoints, rolling back to
    every fourth, then rolling the whole transaction back."""
    started = time.perf_counter()
    txn = protocol(instance)
    for k in range(points):
        point = txn.savepoint()
        instance.add_edge(ids[k], "knows", ids[k + 3])
        if k % 4 == 3:
            txn.rollback_to(point)
    txn.rollback()
    return time.perf_counter() - started


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    OUT_PATH.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n")


def test_small_write_on_large_instance():
    instance, ids = build_people(50_000)
    before = exact_counts(instance)
    repeats, edges = 5, 10

    with _counters.collect() as tally:
        journal_s = timed_small_writes(instance, ids, Transaction, repeats, edges)
    assert tally.txn_snapshot_captures == 0
    assert tally.txn_journal_entries == repeats * 2 * edges
    snapshot_s = timed_small_writes(instance, ids, SnapshotTransaction, repeats, edges)

    assert exact_counts(instance) == before  # every add was removed again
    speedup = snapshot_s / journal_s if journal_s else None
    RESULTS["benchmarks"]["small-write-50k"] = {
        "nodes": before[0],
        "edges": before[1],
        "repeats": repeats,
        "edges_per_txn": edges,
        "journal": {
            "seconds": round(journal_s, 6),
            "entries": tally.txn_journal_entries,
            "bytes_avoided": tally.txn_bytes_avoided,
        },
        "snapshot": {"seconds": round(snapshot_s, 6)},
        "speedup": None if speedup is None else round(speedup, 2),
    }
    assert speedup is not None and speedup >= REQUIRED_SPEEDUP, (
        f"journal only {speedup:.2f}× faster on small-write-50k"
    )


def test_savepoint_heavy_loop():
    instance, ids = build_people(10_000)
    before = exact_counts(instance)
    points = 20

    with _counters.collect() as tally:
        journal_s = timed_savepoint_loop(instance, ids, Transaction, points)
    assert tally.txn_snapshot_captures == 0  # savepoints are watermarks
    snapshot_s = timed_savepoint_loop(instance, ids, SnapshotTransaction, points)

    assert exact_counts(instance) == before
    speedup = snapshot_s / journal_s if journal_s else None
    RESULTS["benchmarks"]["savepoint-loop-10k"] = {
        "nodes": before[0],
        "edges": before[1],
        "savepoints": points,
        "journal": {
            "seconds": round(journal_s, 6),
            "entries": tally.txn_journal_entries,
            "bytes_avoided": tally.txn_bytes_avoided,
        },
        "snapshot": {"seconds": round(snapshot_s, 6)},
        "speedup": None if speedup is None else round(speedup, 2),
    }
    assert speedup is not None and speedup >= REQUIRED_SPEEDUP, (
        f"journal only {speedup:.2f}× faster on savepoint-loop-10k"
    )
