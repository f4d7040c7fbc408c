"""Benchmarks for the durability layer (`repro.wal`).

Two questions a WAL design must answer with numbers:

* **commit throughput vs fsync policy** — ``always`` pays one fsync
  per commit; ``group:<ms>`` coalesces every committer that arrives
  while a flush is in progress into the next single fsync (classic
  group commit); ``off`` is the no-durability upper bound.  The
  headline is asserted mechanically: under 32 concurrent committers,
  group commit must deliver at least 3× the ``always`` throughput (in
  practice it lands at 4–5× here, with >10× fewer fsyncs);
* **recovery time vs WAL length** — replay cost grows with the number
  of records written since the last checkpoint, and a checkpoint
  resets it: after ``CHECKPOINT`` the same database recovers by
  loading the snapshot and replaying zero records.

On top of the per-test numbers, the module writes a machine-readable
``BENCH_wal.json`` next to the repo root (path overridable via
``REPRO_BENCH_WAL_OUT``) so CI can archive the comparison without
parsing test output.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.core import Scheme
from repro.io.serialize import scheme_to_json
from repro.wal import WalWriter, recover_catalog

RESULTS: dict = {"benchmarks": {}}

OUT_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_WAL_OUT",
        Path(__file__).resolve().parent.parent / "BENCH_wal.json",
    )
)

#: Group commit must beat one-fsync-per-commit by at least this factor.
REQUIRED_GROUP_SPEEDUP = 3.0

THREADS = 32
COMMITS_PER_THREAD = 20
BEST_OF = 5


def teardown_module(_module) -> None:
    OUT_PATH.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n")


def commit_record(i: int) -> dict:
    return {
        "kind": "commit",
        "lsn": i,
        "redo": [{"op": "add_node", "id": i, "label": "Person"}],
        "next_id": i + 1,
    }


def committer_storm(path: Path, policy: str) -> dict:
    """``THREADS`` concurrent committers, each appending and *waiting
    for durability* ``COMMITS_PER_THREAD`` times; returns throughput."""
    writer = WalWriter(path, policy)
    barrier = threading.Barrier(THREADS + 1)

    def run() -> None:
        barrier.wait()
        for i in range(COMMITS_PER_THREAD):
            writer.append(commit_record(i)).wait(30.0)

    threads = [threading.Thread(target=run) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    commits = THREADS * COMMITS_PER_THREAD
    stats = {
        "commits": commits,
        "elapsed_s": round(elapsed, 6),
        "commits_per_s": round(commits / elapsed, 1),
        "fsyncs": writer.fsyncs,
    }
    writer.close()
    path.unlink()
    return stats


def best_throughput(path: Path, policy: str) -> dict:
    best = None
    for _ in range(BEST_OF):
        stats = committer_storm(path, policy)
        if best is None or stats["commits_per_s"] > best["commits_per_s"]:
            best = stats
    return best


def test_commit_throughput_by_fsync_policy(tmp_path):
    segment = tmp_path / "bench.ndjson"
    always = best_throughput(segment, "always")
    group = best_throughput(segment, "group:0")
    off = best_throughput(segment, "off")
    speedup = group["commits_per_s"] / always["commits_per_s"]
    RESULTS["benchmarks"]["commit-throughput"] = {
        "threads": THREADS,
        "commits_per_thread": COMMITS_PER_THREAD,
        "always": always,
        "group:0": group,
        "off": off,
        "group_speedup_over_always": round(speedup, 2),
        "required_speedup": REQUIRED_GROUP_SPEEDUP,
    }
    print(
        f"\ncommit throughput ({THREADS} committers): "
        f"always {always['commits_per_s']:,.0f}/s ({always['fsyncs']} fsyncs), "
        f"group:0 {group['commits_per_s']:,.0f}/s ({group['fsyncs']} fsyncs), "
        f"off {off['commits_per_s']:,.0f}/s — group is {speedup:.1f}x always"
    )
    # group commit coalesced concurrent committers into fewer fsyncs
    assert group["fsyncs"] < always["fsyncs"]
    assert speedup >= REQUIRED_GROUP_SPEEDUP, (
        f"group commit delivered only {speedup:.2f}x the always-policy "
        f"throughput (required {REQUIRED_GROUP_SPEEDUP}x)"
    )


def build_database(root: Path, commits: int) -> None:
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    catalog, _ = recover_catalog(root, fsync_policy="off")
    catalog.create("g", scheme_data=scheme_to_json(scheme))
    database = catalog.get("g")
    for i in range(commits):
        database.run_program(f'addnode Person(name -> n) {{ n: String = "p{i}" }}')
        ticket = database.take_ticket()
        if ticket is not None:
            ticket.wait(5.0)
    catalog.close_durability()


def timed_recovery(root: Path) -> tuple:
    started = time.perf_counter()
    catalog, report = recover_catalog(root, fsync_policy="off")
    elapsed = time.perf_counter() - started
    counts = catalog.get("g").counts()
    catalog.close_durability()
    return elapsed, report.databases[0], counts


def test_recovery_time_vs_wal_length(tmp_path):
    lengths = (100, 400)
    runs = {}
    for commits in lengths:
        root = tmp_path / f"data-{commits}"
        build_database(root, commits)
        elapsed, entry, counts = timed_recovery(root)
        assert entry["records_replayed"] == commits
        runs[str(commits)] = {
            "wal_records": commits,
            "recovery_s": round(elapsed, 6),
            "records_per_s": round(commits / elapsed, 1),
        }
        # checkpoint collapses the same database to zero-replay recovery
        catalog, _ = recover_catalog(root, fsync_policy="off")
        catalog.get("g").checkpoint()
        catalog.close_durability()
        after_s, after_entry, after_counts = timed_recovery(root)
        assert after_entry["records_replayed"] == 0
        assert after_counts == counts  # checkpoint lost nothing
        runs[str(commits)]["after_checkpoint_s"] = round(after_s, 6)
    RESULTS["benchmarks"]["recovery-time"] = runs
    print("\nrecovery time vs WAL length:")
    for commits, stats in runs.items():
        print(
            f"  {commits:>4} records: {stats['recovery_s'] * 1000:8.1f} ms replay "
            f"-> {stats['after_checkpoint_s'] * 1000:6.1f} ms after CHECKPOINT"
        )
