"""Benchmarks for the semi-naive fixpoint engine (`repro.rules`).

Transitive closure over three link-graph shapes — chain (worst case
for naive evaluation: O(n) rounds, each re-enumerating O(n²)
matchings), grid and tree — comparing the naive full-rematch strategy
against the semi-naive delta-driven default.  The headline numbers are
asserted mechanically: on the largest chain the semi-naive engine must
be at least 5× faster, and every delta round must enumerate fewer
matchings than the opening full round.

On top of the per-test numbers, the module writes a machine-readable
``BENCH_fixpoint.json`` next to the repo root (path overridable via
``REPRO_BENCH_FIXPOINT_OUT``) so CI can archive the comparison without
parsing test output.  The file is written on module teardown; the
timing loops are explicit (one timed run per strategy), so the module
behaves identically under ``--benchmark-disable``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core import EdgeAddition, Pattern
from repro.hypermedia import build_scheme
from repro.rules import RuleProgram, Rule
from repro.testing import run_naive
from repro.workloads import chain_instance, grid_instance, tree_instance

RESULTS: dict = {"benchmarks": {}}

OUT_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_FIXPOINT_OUT",
        Path(__file__).resolve().parent.parent / "BENCH_fixpoint.json",
    )
)

#: The largest chain carries the mechanical ≥5× assertion.
LARGEST_CHAIN = 128

WORKLOADS = [
    ("chain-16", lambda s: chain_instance(s, 16)[0]),
    ("chain-32", lambda s: chain_instance(s, 32)[0]),
    (f"chain-{LARGEST_CHAIN}", lambda s: chain_instance(s, LARGEST_CHAIN)[0]),
    ("grid-6x6", lambda s: grid_instance(s, 6, 6)[0]),
    ("tree-d6", lambda s: tree_instance(s, 6)[0]),
]


def tc_rules(scheme):
    """reaches := links-to ∪ (reaches ∘ links-to) — transitive closure."""
    private = scheme.copy()
    private.declare("Info", "reaches", "Info", functional=False)
    base = Pattern(private)
    a = base.add_node("Info")
    b = base.add_node("Info")
    base.add_edge(a, "links-to", b)
    step = Pattern(private)
    x = step.add_node("Info")
    y = step.add_node("Info")
    z = step.add_node("Info")
    step.add_edge(x, "reaches", y)
    step.add_edge(y, "links-to", z)
    kinds = {"reaches": "multivalued"}
    return [
        Rule("base", EdgeAddition(base, [(a, "reaches", b)], new_label_kinds=kinds)),
        Rule("step", EdgeAddition(step, [(x, "reaches", z)], new_label_kinds=kinds)),
    ]


def closure_size(instance) -> int:
    return sum(
        len(instance.out_neighbours(node, "reaches")) for node in instance.nodes()
    )


def run_seminaive(program: RuleProgram, instance):
    """``program.run`` in the ``(instance, reports, stats)`` shape of
    the reference loops."""
    result, reports = program.run(instance)
    return result, reports, program.last_stats


def timed_run(program: RuleProgram, instance, run, repeats: int = 3):
    """(best seconds, result instance, FixpointStats) over ``repeats`` runs.

    Best-of-N wall clock: the speedup assertions below compare two
    strategies on workloads that finish in milliseconds, where a single
    noisy run would dominate the ratio.
    """
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        result, _, stats = run(program, instance)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result, stats


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    OUT_PATH.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name,build", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_transitive_closure_strategies(name, build):
    scheme = build_scheme()
    instance = build(scheme)
    program = RuleProgram(tc_rules(scheme))

    semi_s, semi, semi_stats = timed_run(program, instance, run_seminaive)
    naive_s, naive, naive_stats = timed_run(program, instance, run_naive)

    # both strategies derive the same closure
    assert closure_size(semi) == closure_size(naive)

    speedup = naive_s / semi_s if semi_s else None
    RESULTS["benchmarks"][name] = {
        "nodes": instance.node_count,
        "edges": instance.edge_count,
        "closure_edges": closure_size(semi),
        "rounds": semi_stats.total_rounds,
        "seminaive": {
            "seconds": round(semi_s, 6),
            "matchings": semi_stats.matchings_enumerated,
            "full_matchings": semi_stats.full_matchings,
            "delta_matchings": semi_stats.delta_matchings,
            "per_round_matchings": semi_stats.per_round_matchings(),
            "per_round_delta_sizes": semi_stats.per_round_delta_sizes(),
        },
        "naive": {
            "seconds": round(naive_s, 6),
            "matchings": naive_stats.matchings_enumerated,
        },
        "speedup": None if speedup is None else round(speedup, 2),
    }

    # semi-naive never enumerates more matchings than full rematching
    assert semi_stats.matchings_enumerated <= naive_stats.matchings_enumerated

    if name == "tree-d6":
        # shallow, bushy closure: the workload whose per-seed overhead
        # once made semi-naive *slower* than naive (0.63×).  Seeded
        # compiled runners plus the delta-vs-full fallback heuristic
        # must keep semi-naive at least break-even here.
        assert speedup is not None and speedup >= 1.0, (
            f"semi-naive regressed below naive on {name}: {speedup:.2f}×"
        )

    if name == f"chain-{LARGEST_CHAIN}":
        # the acceptance numbers: ≥5× wall clock on the largest chain,
        # and every delta round cheaper than the opening full round
        assert speedup is not None and speedup >= 5.0, (
            f"semi-naive only {speedup:.2f}× faster on {name}"
        )
        per_round = semi_stats.per_round_matchings()
        assert per_round, "no rounds recorded"
        assert max(per_round[1:]) < per_round[0], (
            "delta rounds should enumerate fewer matchings than round 1: "
            f"{per_round[:5]}..."
        )
