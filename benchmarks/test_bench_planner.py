"""Benchmarks for the cost-based match planner (`repro.plan`).

Planner-backed matching versus the backtracking oracle over three
workload shapes:

* ``star``   — one hub with many spokes; a hub-anchored print pattern
  rewards seeding at the (cardinality 1) constant node;
* ``chain``  — a long ``links-to`` path matched by a 2-hop pattern;
  both matchers are adjacency-driven here, so the planner's win is
  modest and *not* asserted;
* ``dense-label`` — a scale-free graph where the pattern's edge label
  is rare; the planner seeds on the tiny edge-label index instead of
  scanning the dominant node class.  This workload carries the
  mechanical ≥3× assertion.

On top of the per-test numbers, the module writes a machine-readable
``BENCH_planner.json`` next to the repo root (path overridable via
``REPRO_BENCH_PLANNER_OUT``) so CI can archive the comparison without
parsing test output.  The file is written on module teardown; the
timing loops are explicit (one timed enumeration per matcher), so the
module behaves identically under ``--benchmark-disable``.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core import Instance, Pattern
from repro.core.matching import find_matchings
from repro.hypermedia import build_scheme
from repro.plan import compile_plan
from repro.testing import find_matchings_backtracking
from repro.workloads import chain_instance, scale_free_instance

RESULTS: dict = {"benchmarks": {}}

OUT_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_PLANNER_OUT",
        Path(__file__).resolve().parent.parent / "BENCH_planner.json",
    )
)

#: The dense-label workload carries the mechanical ≥3× assertion.
ASSERTED_WORKLOAD = "dense-label-3000"
MIN_SPEEDUP = 3.0


def star_workload(hub_spokes: int = 1500):
    """A hub with ``hub_spokes`` spokes; the pattern anchors on the
    hub's name constant, so the planner starts from one node."""
    scheme = build_scheme()
    db = Instance(scheme)
    hub = db.add_object("Info")
    db.add_edge(hub, "name", db.printable("String", "hub"))
    for index in range(hub_spokes):
        spoke = db.add_object("Info")
        db.add_edge(spoke, "links-to", hub)
    pattern = Pattern(scheme)
    h = pattern.node("Info")
    name = pattern.node("String", "hub")
    s = pattern.node("Info")
    pattern.edge(h, "name", name)
    pattern.edge(s, "links-to", h)
    return db, pattern


def chain_workload(length: int = 512):
    """A links-to path matched by the 2-hop pattern a -> b -> c."""
    scheme = build_scheme()
    db, _ = chain_instance(scheme, length)
    pattern = Pattern(scheme)
    a = pattern.node("Info")
    b = pattern.node("Info")
    c = pattern.node("Info")
    pattern.edge(a, "links-to", b)
    pattern.edge(b, "links-to", c)
    return db, pattern


def dense_label_workload(n_nodes: int = 3000, hot_edges: int = 8):
    """A scale-free ``links-to`` graph plus a handful of ``hot`` edges;
    the pattern asks for the rare label, so the edge-label index wins
    over scanning the 3000-strong Info class."""
    scheme = build_scheme()
    private = scheme.copy()
    private.declare("Info", "hot", "Info", functional=False)
    rng = random.Random(42)
    db, nodes = scale_free_instance(rng, private, n_nodes=n_nodes, attach=3)
    for _ in range(hot_edges):
        db.add_edge(rng.choice(nodes), "hot", rng.choice(nodes))
    pattern = Pattern(private)
    x = pattern.node("Info")
    y = pattern.node("Info")
    pattern.edge(x, "hot", y)
    return db, pattern


WORKLOADS = [
    ("star-1500", star_workload),
    ("chain-512", chain_workload),
    (ASSERTED_WORKLOAD, dense_label_workload),
]


def timed_enumeration(matcher, pattern, instance):
    """(seconds, canonical matchings) for one full enumeration."""
    started = time.perf_counter()
    found = sorted(tuple(sorted(m.items())) for m in matcher(pattern, instance))
    return time.perf_counter() - started, found


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    OUT_PATH.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name,build", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_planner_vs_backtracking(name, build):
    instance, pattern = build()
    plan = compile_plan(pattern, instance)

    # warm the plan cache so the timed planner run measures execution
    _, planned = timed_enumeration(find_matchings, pattern, instance)
    planned_s, planned_again = timed_enumeration(find_matchings, pattern, instance)
    backtrack_s, backtracked = timed_enumeration(
        find_matchings_backtracking, pattern, instance
    )

    # both matchers enumerate the identical matching set
    assert planned == planned_again == backtracked

    speedup = backtrack_s / planned_s if planned_s else None
    RESULTS["benchmarks"][name] = {
        "nodes": instance.node_count,
        "edges": instance.edge_count,
        "matchings": len(planned),
        "plan": [step.describe() for step in plan.steps],
        "estimated_rows": plan.estimated_rows,
        "planner": {"seconds": round(planned_s, 6)},
        "backtracking": {"seconds": round(backtrack_s, 6)},
        "speedup": None if speedup is None else round(speedup, 2),
    }

    if name == ASSERTED_WORKLOAD:
        # the acceptance number: the edge-label index must beat the
        # label-scan-driven backtracking search by at least 3×
        assert speedup is not None and speedup >= MIN_SPEEDUP, (
            f"planner only {speedup:.2f}× faster on {name}"
        )
