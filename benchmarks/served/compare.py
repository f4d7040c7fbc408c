"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/served/compare.py A.json B.json

A is the parent, B the change.  Every workload x end-to-end metric gets
one row, judged with the bound ``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` — the run-to-run spread of either side (distance
  between its quartiles over its median) is wider than the bound, so
  the runs cannot tell a regression from noise;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B wins at least nine tenths of the run pairs and the
  medians differ by more than A's own spread (the rule a gain must meet);
* ``within``     — none of the above.

The traced runs' counters (``detail.exact_counters``: plan-cache hits
and misses, index probes, journal entries, WAL bytes and fsyncs over a
fixed number of requests) must repeat exactly between runs on the same
seed; any difference is listed and fails the comparison.  Exits 1 on a
regression, a failed operation or a counter mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

REPO = Path(__file__).resolve().parents[2]


def load(path: str) -> List[Dict[str, Any]]:
    """Every result in the file, each carrying its invocation's stamp."""
    results = []
    for invocation in json.loads(Path(path).read_text()):
        for result in invocation["results"]:
            results.append({**result, "stamp": invocation["stamp"]})
    return results


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, str]:
    """The verdict for one row and the numbers behind it."""
    sign = 1.0 if better == "lower" else -1.0
    a_low, a_mid, a_high = quartiles(a)
    b_low, b_mid, b_high = quartiles(b)
    spread = max((a_high - a_low) / a_mid, (b_high - b_low) / b_mid)
    worse = sign * (b_mid - a_mid) / a_mid
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif pairs and wins >= 0.9 * len(pairs) and abs(b_mid - a_mid) > (a_high - a_low) and worse < 0:
        verdict = "improved"
    else:
        verdict = "within"
    numbers = (
        f"A {a_mid:.4g} [{a_low:.4g}, {a_high:.4g}] n={len(a)}  "
        f"B {b_mid:.4g} [{b_low:.4g}, {b_high:.4g}] n={len(b)}  "
        f"worse by {worse:+.1%} (bound {bound:.0%}, spread {spread:.1%}), B wins {wins} loses {losses} of {len(pairs)} pairs"
    )
    return verdict, numbers


def counter_mismatches(results: List[Dict[str, Any]]) -> List[str]:
    """Traced counters that differ between runs on one workload and seed.

    They come from the in-process pass, which replays one client's
    stream on one thread whatever the workload's client count.
    """
    seen: Dict[Tuple[str, int, bool], Dict[str, int]] = {}
    problems = []
    for result in results:
        if result["trace"] != 1:
            continue
        key = (result["workload"], result["stamp"]["seed"], result["stamp"]["quick"])
        counters = result["detail"]["exact_counters"]
        first = seen.setdefault(key, counters)
        for name in sorted(set(first) | set(counters)):
            if first.get(name) != counters.get(name):
                problems.append(f"{key[0]} seed {key[1]}: {name} {first.get(name)} != {counters.get(name)}")
    return problems


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    a_results, b_results = load(argv[0]), load(argv[1])
    failed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        a_runs = [r for r in a_results if r["workload"] == workload and r["trace"] == 0]
        b_runs = [r for r in b_results if r["workload"] == workload and r["trace"] == 0]
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict, numbers = judge(
                [r["metrics"][name]["value"] for r in a_runs],
                [r["metrics"][name]["value"] for r in b_runs],
                metric["better"],
                metric["bound"],
            )
            failed |= verdict == "regressed"
            print(f"{workload:18s} {name:10s} {verdict:10s} {numbers}")
        lost = sum(r["failed"] for r in a_runs + b_runs)
        if lost:
            failed = True
            print(f"{workload:18s} failed_share regressed  {lost} operations failed or answered wrongly (bound: none)")
    problems = counter_mismatches(a_results + b_results)
    for problem in problems:
        print(f"counter mismatch: {problem}")
    if not problems and any(r["trace"] == 1 for r in a_results + b_results):
        print("traced counters repeat exactly on every workload and seed")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
