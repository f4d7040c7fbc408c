#!/usr/bin/env python
"""Guard: no archived benchmark speedup may regress below its floor.

Scans every ``BENCH_*.json`` the benchmark modules wrote next to the
repo root and re-checks each workload's mechanical floor against the
recorded numbers, so a perf regression that slips past the in-test
assertions (e.g. a bench file archived from a stale run) still fails
CI loudly.  Three sources of floors, in order:

* an explicit ``floor`` key inside a workload entry (``BENCH_wcoj``
  writes these) is checked against that entry's ``speedup``;
* a ``floors`` dict inside an entry maps *metric name* → minimum and
  is checked against the entry's own metrics (``BENCH_cluster`` writes
  these: scale-out floors);
* a ``byte_floors`` dict inside an entry maps *metric name* → maximum
  and is checked in the ≤ direction (``BENCH_columnar`` writes these:
  the store's resident bytes must stay *under* the cap);
* a ``required_*`` key inside an entry (``BENCH_wal``)
  is checked against the entry's other ``*speedup*`` metric;
* :data:`KNOWN_FLOORS` pins the floors the older benchmark modules
  assert in-test but do not embed in their JSON.

Usage: ``python benchmarks/check_floors.py [directory]`` (defaults to
the repo root).  Exits non-zero listing every violated floor.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: (file name, workload) → minimum speedup, mirroring the assertions in
#: the corresponding benchmarks/test_bench_*.py modules.
KNOWN_FLOORS = {
    ("BENCH_planner.json", "dense-label-3000"): 3.0,
    ("BENCH_fixpoint.json", "chain-128"): 5.0,
    ("BENCH_fixpoint.json", "tree-d6"): 1.0,
}


def floor_checks(file_name: str, workload: str, entry: dict):
    """Yield (metric name, measured, bound, direction) for one entry.

    ``direction`` is ``">="`` for speedup/throughput floors and
    ``"<="`` for byte ceilings.
    """
    if not isinstance(entry, dict):
        return
    known = KNOWN_FLOORS.get((file_name, workload))
    if known is not None and entry.get("speedup") is not None:
        yield "speedup", entry["speedup"], known, ">="
    if entry.get("floor") is not None and entry.get("speedup") is not None:
        yield "speedup", entry["speedup"], entry["floor"], ">="
    floors = entry.get("floors")
    if isinstance(floors, dict):
        for metric, floor in floors.items():
            measured = entry.get(metric)
            if isinstance(floor, (int, float)) and isinstance(measured, (int, float)):
                yield metric, measured, floor, ">="
    byte_floors = entry.get("byte_floors")
    if isinstance(byte_floors, dict):
        for metric, ceiling in byte_floors.items():
            measured = entry.get(metric)
            if isinstance(ceiling, (int, float)) and isinstance(measured, (int, float)):
                yield metric, measured, ceiling, "<="
    for key, required in entry.items():
        if not key.startswith("required_") or not isinstance(required, (int, float)):
            continue
        measured = [
            (name, value)
            for name, value in entry.items()
            if "speedup" in name
            and not name.startswith("required_")
            and isinstance(value, (int, float))
        ]
        for name, value in measured:
            yield name, value, required, ">="


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    bench_files = sorted(root.glob("BENCH_*.json"))
    if not bench_files:
        print(f"check_floors: no BENCH_*.json under {root}", file=sys.stderr)
        return 1
    checked, failures = 0, []
    for path in bench_files:
        payload = json.loads(path.read_text())
        for workload, entry in sorted(payload.get("benchmarks", {}).items()):
            for metric, measured, bound, direction in floor_checks(
                path.name, workload, entry
            ):
                checked += 1
                holds = measured >= bound if direction == ">=" else measured <= bound
                status = "ok" if holds else "FAIL"
                kind = "floor" if direction == ">=" else "ceiling"
                print(
                    f"{status:4} {path.name} {workload}: "
                    f"{metric}={measured} ({kind} {bound})"
                )
                if not holds:
                    failures.append((path.name, workload, metric, measured, bound))
    if failures:
        print(f"\ncheck_floors: {len(failures)} floor(s) violated", file=sys.stderr)
        return 1
    print(f"\ncheck_floors: {checked} floor(s) hold across {len(bench_files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
