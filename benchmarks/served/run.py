"""The served-request benchmark: one command, five workloads.

    python3 benchmarks/served/run.py --workload point_read --seed 1 --seconds 10 --trace 0

spawns the real server as a subprocess on a fresh data directory,
drives it closed-loop over ``GoodClient`` connections for ``--seconds``,
checks the final state against a pure ``repro.core`` replay, and prints
every metric by name and unit; the last line of standard output is one
JSON object.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones (see README.md).  Without ``--workload`` every
workload runs in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"

SETUPS = 3
CHECKED_PATTERNS = 50
RECOVERY_PROBES = 20

Metric = Dict[str, Any]


def _metric(value: float, unit: str) -> Metric:
    return {"value": value, "unit": unit}


def _prepare(seed: int, quick: bool, run_dir: Path):
    """The seeded world, its instance file, and the set-up's first MATCH."""
    import gen
    from repro.io.serialize import save_instance

    world = gen.World(seed, gen.QUICK_SCALE if quick else gen.SCALE)
    instance_path = run_dir / "instance.json"
    save_instance(world.instance, instance_path)
    return world, instance_path, gen.point_pattern(world.pilot_names[0])


def _result(
    workload: str, trace: int, attempted: int, failed: int, problems: List[str], metrics: Dict[str, Metric],
    detail: Dict[str, Any],
) -> Dict[str, Any]:  # fmt: skip
    return {
        "workload": workload,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems[:10],
        "metrics": metrics,
        "detail": detail,
    }


# ----------------------------------------------------------------------
# --trace 0: the end-to-end run
# ----------------------------------------------------------------------
def run_end_to_end(workload: str, seed: int, seconds: float, quick: bool, run_dir: Path) -> Dict[str, Any]:
    import gen
    import harness

    world, instance_path, probe = _prepare(seed, quick, run_dir)
    routed = workload == "routed_point_read"

    # set-up is measured SETUPS times, each on a fresh data dir; the
    # last server stays up for the measured phase
    setup_s: List[float] = []
    server = None
    try:
        for attempt in range(1 if quick else SETUPS):
            if server is not None:
                server.stop()
            server, took, _checkpoint = harness.setup(run_dir / f"data-{attempt}", instance_path, probe, routed)
            setup_s.append(took)
        before = harness.database_stats(server.client)
        driven = harness.drive(server, gen.streams(workload, world, seed), seconds)
        delta = harness.counter_delta(before, harness.database_stats(server.client))

        # correctness: replay what was acknowledged on a pure instance
        rng = random.Random(f"{seed}/check")
        oracle = world.instance
        writes = driven.all_writes()
        harness.replay(oracle, writes)
        checks, mismatches = harness.check_state(
            server.client, oracle, harness.sample_patterns(driven, rng, CHECKED_PATTERNS)
        )
        recovery_s = None
        if writes and not routed:
            probes = [request["probe"] for request in rng.sample(writes, min(RECOVERY_PROBES, len(writes)))]
            server, recovery_s, more, lost = harness.crash_and_recover(server, oracle, probes)
            checks += more
            mismatches += lost
    finally:
        if server is not None:
            server.stop()

    metrics = {
        "ops_per_s": _metric(len(driven.samples) / driven.wall, "1/s"),
        "p50_ms": _metric(driven.percentile_ms(0.50), "ms"),
        "p95_ms": _metric(driven.percentile_ms(0.95), "ms"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
    }
    # ungated detail: per operation type, with the tail the sample supports
    detail: Dict[str, Any] = {"clients": gen.CLIENTS[workload], "setup_s_each": setup_s}
    for kind in ("read", "write"):
        samples = len(driven.latencies(kind))
        if samples:
            detail[kind] = {
                "samples": samples,
                "p50_ms": driven.percentile_ms(0.50, kind),
                "p95_ms": driven.percentile_ms(0.95, kind),
                # p99 needs ten samples beyond it
                "p99_ms": driven.percentile_ms(0.99, kind) if samples >= 1000 else None,
                "max_ms": driven.percentile_ms(1.0, kind),
            }
    if recovery_s is not None:
        detail["recovery_s"] = recovery_s
    detail["server_counters"] = {
        key: delta.get(key, 0)
        for key in (
            "queries", "runs", "matchings_enumerated", "plan_cache_hits", "plan_cache_misses",
            "index_probes", "txn_journal_entries", "wal_appends", "wal_bytes", "wal_fsyncs", "checkpoints",
        )
    }  # fmt: skip
    return _result(
        workload, 0, driven.attempted + checks, driven.failed + len(mismatches), driven.errors + mismatches,
        metrics, detail,
    )  # fmt: skip


# ----------------------------------------------------------------------
# --trace 1: the per-layer run
# ----------------------------------------------------------------------
def run_per_layer(workload: str, seed: int, seconds: float, quick: bool, run_dir: Path) -> Dict[str, Any]:
    import gen
    import harness
    import spans

    world, instance_path, probe = _prepare(seed, quick, run_dir)
    routed = workload == "routed_point_read"
    rng = random.Random(f"{seed}/check")
    router: Dict[str, Any] = {}
    routed_p50 = None

    # -- served pass: what only the running system can tell ------------
    server = None
    try:
        if routed:
            # the same stream through the router first, then directly
            server, _took, _checkpoint = harness.setup(run_dir / "routed", instance_path, probe, True)
            through = harness.drive(server, gen.streams(workload, world, seed), seconds / 4)
            routed_p50 = through.percentile_ms(0.50)
            router = server.client.stats()["cluster"]["router"]
            server.stop()
        server, _took, checkpoint = harness.setup(run_dir / "data", instance_path, probe)
        before = harness.database_stats(server.client)
        driven = harness.drive(server, gen.streams(workload, world, seed), seconds / 4 if routed else seconds / 2)
        after = harness.database_stats(server.client)
        delta = harness.counter_delta(before, after)
        rss_mb = server.rss_mb()
        oracle = world.instance
        harness.replay(oracle, driven.all_writes())
        probes = harness.sample_patterns(driven, rng, RECOVERY_PROBES)
        server, recovery_s, checks, mismatches = harness.crash_and_recover(server, oracle, probes)
    finally:
        if server is not None:
            server.stop()
    socket_p50 = driven.percentile_ms(0.50)
    # the oracle graph is done with; the traced half should not pay to collect it
    world.instance = oracle = None

    # -- traced pass: where the time goes, in-process ------------------
    count = spans.TRACED_REQUESTS[workload] // (10 if quick else 1)
    traced = spans.run_traced_pass(
        run_dir / "inprocess", instance_path, gen.streams(workload, world, seed)[0], count
    )
    layers, glue_us = spans.layer_means_us(traced.tracer, traced.requests)
    # parts and whole are compared net of garbage-collector pauses
    gc_us = layers.pop("gc", 0.0)
    whole_us = (sum(traced.whole_ns) - traced.whole_gc_ns) / traced.requests / 1e3
    traced_us = sum(traced.traced_ns) / traced.requests / 1e3 - gc_us
    span_sum_us = sum(layers.values())
    checkpoint_spans = traced.tracer.durations("checkpoint")
    checkpoint_us = layers.get("checkpoint", 0.0) + layers.get("checkpoint_begin", 0.0)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{workload}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "spans": traced.tracer.rows()})
    )

    ops = max(1, delta.get("queries", 0) + delta.get("runs", 0))
    commits = delta.get("runs", 0)
    lookups = delta.get("plan_cache_hits", 0) + delta.get("plan_cache_misses", 0)
    matchings = delta.get("matchings_enumerated", 0)

    def per_commit(key: str) -> float:
        return delta.get(key, 0) / commits if commits else 0.0

    def layer(name: str) -> float:
        return layers.get(name, 0.0)

    metrics = {
        # server.protocol
        "decode_us": _metric(layer("decode"), "us"),
        "encode_us": _metric(layer("encode"), "us"),
        "response_bytes_per_op": _metric(traced.reply_bytes / traced.requests, "B"),
        # dsl
        "parse_us": _metric(layer("parse"), "us"),
        # plan
        "plan_us": _metric(layer("plan"), "us"),
        "plan_cache_hit_rate": _metric(delta.get("plan_cache_hits", 0) / lookups if lookups else 0.0, "ratio"),
        # plan.executor + core.matching
        "execute_us": _metric(layer("execute") + layer("match"), "us"),
        "index_probes_per_matching": _metric(delta.get("index_probes", 0) / matchings if matchings else 0.0, "ratio"),
        "matchings_per_op": _metric(matchings / ops, "count"),
        # core.operations + graph.store
        "apply_us": _metric(layer("apply"), "us"),
        "store_bytes": _metric(after.get("store_bytes", 0), "B"),
        "rss_mb": _metric(rss_mb, "MB"),
        # txn
        "txn_us": _metric(layer("txn"), "us"),
        "journal_entries_per_commit": _metric(per_commit("txn_journal_entries"), "count"),
        # wal
        "commit_journal_us": _metric(layer("commit_journal"), "us"),
        "fsync_us": _metric(layer("fsync"), "us"),
        "fsync_wait_us": _metric(layer("fsync_wait"), "us"),
        "wal_bytes_per_commit": _metric(per_commit("wal_bytes"), "B"),
        "wal_fsyncs_per_commit": _metric(per_commit("wal_fsyncs"), "count"),
        "checkpoints": _metric(delta.get("checkpoints", 0), "count"),
        "checkpoint_us": _metric(checkpoint_us, "us"),
        "checkpoint_ms_each": _metric(
            statistics.mean(checkpoint_spans) / 1e6 if checkpoint_spans else 0.0, "ms"
        ),
        "recovery_s": _metric(recovery_s, "s"),
        # mvcc
        "publish_us": _metric(layer("publish"), "us"),
        "pin_us": _metric(layer("pin"), "us"),
        "versions_published": _metric(
            after["snapshots"]["versions_published"] - before["snapshots"]["versions_published"], "count"
        ),
        "version_chain_length": _metric(after["snapshots"]["version_chain_length"], "count"),
        # server.session + server.server
        "lock_wait_p95_ms": _metric(after["lock_wait"]["p95_ms"] or 0.0, "ms"),
        "counts_us": _metric(layer("counts"), "us"),
        "bind_us": _metric(layer("bind"), "us"),
        "glue_us": _metric(glue_us, "us"),
        "gc_us": _metric(gc_us, "us"),
        "server_residual_ms": _metric(socket_p50 - statistics.median(traced.whole_ns) / 1e6, "ms"),
        # cluster.router
        "router_hop_ms": _metric(routed_p50 - socket_p50 if routed else 0.0, "ms"),
        "router_reads_to_owner": _metric(router.get("reads_to_owner", 0), "count"),
        # io.serialize
        "load_parse_s": _metric(traced.load_parse_s, "s"),
        "checkpoint_bytes": _metric(checkpoint["bytes"], "B"),
        # the tracing itself: parts against whole
        "inprocess_whole_us": _metric(whole_us, "us"),
        "span_sum_share": _metric(span_sum_us / whole_us, "ratio"),
        "trace_overhead_share": _metric(traced_us / whole_us - 1.0, "ratio"),
    }
    return _result(
        workload, 1, driven.attempted + checks + traced.requests, driven.failed + len(mismatches),
        driven.errors + mismatches, metrics,
        {"traced_requests": traced.requests, "socket_p50_ms": socket_p50, "exact_counters": traced.counts},
    )  # fmt: skip


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def stamp(seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    import gen

    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *argv], cwd=REPO, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "scale": gen.QUICK_SCALE if quick else gen.SCALE,
        "fsync": "always",
    }


def print_report(result: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']} — {kind} ==")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:>14.4f} {metric['unit']}")
    detail = result["detail"]
    for kind in ("read", "write"):
        if kind in detail:
            row = detail[kind]
            p99 = "n/a (<1000 samples)" if row["p99_ms"] is None else f"{row['p99_ms']:.3f} ms"
            print(
                f"  {kind}: {row['samples']} samples, p50 {row['p50_ms']:.3f} ms, "
                f"p95 {row['p95_ms']:.3f} ms, p99 {p99}, max {row['max_ms']:.3f} ms"
            )
    if "recovery_s" in detail:
        print(
            f"  durability: SIGKILL + restart recovered every sampled acknowledged write in "
            f"{detail['recovery_s']:.3f} s (fsync=always on both sides; the sandbox's page cache "
            "makes fsync cheap and survives the kill)"
        )
    if result["trace"]:
        share = result["metrics"]["span_sum_share"]["value"]
        print(
            f"  parts vs whole (net of collector pauses): spans sum to {share:.1%} of the untraced in-process call; "
            f"{result['metrics']['server_residual_ms']['value']:.3f} ms of the socket p50 "
            f"({detail['socket_p50_ms']:.3f} ms) is outside it"
        )
    print(f"  failed_share {result['failed_share']:.6f} ({result['failed']} of {result['attempted']})")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one of the five workloads (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="a tenth of the graph, one set-up, one second: a smoke run")
    parser.add_argument("--out", type=Path, help="append this invocation's results to a JSON file (for compare.py)")
    args = parser.parse_args(argv)

    source = REPO / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {source}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    import gen

    if args.workload is not None and args.workload not in gen.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(gen.WORKLOADS)})")
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"])
    workloads = [args.workload] if args.workload else list(gen.WORKLOADS)
    runner = run_per_layer if args.trace else run_end_to_end

    results = []
    for workload in workloads:
        run_dir = OUT / f"run-{os.getpid()}"
        run_dir.mkdir(parents=True)
        try:
            result = runner(workload, args.seed, seconds, args.quick, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        print_report(result)
        results.append(result)

    if args.out is not None:
        existing = json.loads(args.out.read_text()) if args.out.exists() else []
        existing.append({"stamp": stamp(args.seed, seconds, args.quick), "results": results})
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(existing, indent=1))
    if args.workload:
        last = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        last = {
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": {result["workload"]: result["metrics"] for result in results},
        }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
