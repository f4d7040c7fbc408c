"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tour``                 — run the paper's figures end to end and
  print a one-line report per figure (a smoke test of the whole model);
* ``export {scheme,instance} [-o FILE]`` — Graphviz DOT of the
  hyper-media example (render with ``dot -Tpng``);
* ``stats FILE``           — census of a JSON-serialised instance;
* ``validate FILE``        — load a JSON instance and re-check every
  Section 2 constraint; exit code 1 on violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import Program
from repro.core.errors import GoodError
from repro.hypermedia import build_instance, build_scheme, build_version_chain
from repro.hypermedia import figures as F
from repro.io import load_instance
from repro.viz import instance_to_dot, scheme_to_dot, summarize_instance


def _cmd_tour(_args: argparse.Namespace) -> int:
    scheme = build_scheme()
    db, handles = build_instance(scheme)
    print(f"Figs. 1-3   scheme + instance: {db.node_count} nodes, {db.edge_count} edges")
    steps = [
        ("Figs. 4-7  ", [F.fig6_node_addition(scheme)]),
        ("Figs. 8-9  ", [F.fig8_node_addition(scheme)]),
        ("Figs. 10-11", [F.fig10_edge_addition(scheme)]),
        ("Figs. 12-13", [F.fig12_node_addition(scheme), F.fig13_edge_addition(scheme)]),
        ("Figs. 14-15", [F.fig14_node_deletion(scheme)]),
        ("Fig. 16    ", list(F.fig16_update(scheme))),
        ("Figs. 26-27", F.fig26_operations(scheme)[0]),
        ("Figs. 28-29", list(F.fig28_operations(scheme))),
    ]
    for label, ops in steps:
        result = Program(list(ops)).run(db)
        print(f"{label} {'; '.join(r.summary() for r in result.reports)}")
    chain_db, _ = build_version_chain(scheme)
    result = Program(list(F.fig18_operations(scheme))).run(chain_db)
    print(f"Figs. 17-19 {result.reports[-1].summary()}")
    method = F.fig20_update_method(scheme)
    result = Program([F.fig21_call(scheme)], methods=[method]).run(db)
    print(f"Figs. 20-21 {result.reports[0].summary()}")
    print("tour complete.")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    scheme = build_scheme()
    if args.what == "scheme":
        dot = scheme_to_dot(scheme, "hyper-media-scheme")
    else:
        db, _ = build_instance(scheme)
        dot = instance_to_dot(db, "hyper-media-instance")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dot + "\n")
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import os

    from repro.viz import operation_to_dot, pattern_to_dot

    scheme = build_scheme()
    os.makedirs(args.directory, exist_ok=True)
    artifacts = {
        "fig01_scheme.dot": scheme_to_dot(scheme, "fig1"),
        "fig04_pattern.dot": pattern_to_dot(F.fig4_pattern(scheme).pattern, "fig4"),
        "fig06_node_addition.dot": operation_to_dot(F.fig6_node_addition(scheme)),
        "fig08_pair_aggregates.dot": operation_to_dot(F.fig8_node_addition(scheme)),
        "fig10_edge_addition.dot": operation_to_dot(F.fig10_edge_addition(scheme)),
        "fig12_set_node.dot": operation_to_dot(F.fig12_node_addition(scheme)),
        "fig13_contains.dot": operation_to_dot(F.fig13_edge_addition(scheme)),
        "fig14_node_deletion.dot": operation_to_dot(F.fig14_node_deletion(scheme)),
        "fig16_delete_modified.dot": operation_to_dot(F.fig16_update(scheme)[0]),
        "fig16_add_modified.dot": operation_to_dot(F.fig16_update(scheme)[1]),
        "fig18_abstraction.dot": operation_to_dot(F.fig18_operations(scheme)[2]),
        "fig26_negation.dot": pattern_to_dot(
            F.fig26_negated_pattern(scheme).negated, "fig26"
        ),
        "fig28_closure_step.dot": operation_to_dot(F.fig28_operations(scheme)[1].edge_addition),
    }
    db, _handles = build_instance(scheme)
    artifacts["fig02_instance.dot"] = instance_to_dot(db, "fig2-3")
    for name, dot in sorted(artifacts.items()):
        path = os.path.join(args.directory, name)
        with open(path, "w") as handle:
            handle.write(dot + "\n")
    print(f"wrote {len(artifacts)} DOT files to {args.directory}/")
    print("render with: dot -Tpng <file> -o <file>.png")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    instance = load_instance(args.file)
    print(summarize_instance(instance))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.dsl import parse_pattern
    from repro.plan import explain_pattern

    try:
        instance = load_instance(args.instance)
        if args.pattern.startswith("@"):
            with open(args.pattern[1:]) as handle:
                source = handle.read()
        else:
            source = args.pattern
        pattern, _bindings = parse_pattern(source, instance.scheme)
    except (GoodError, OSError, ValueError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 1
    print(explain_pattern(pattern, instance))
    if args.execute:
        from repro.core import find_matchings
        from repro.core.macros import match_negated
        from repro.core.pattern import NegatedPattern

        if isinstance(pattern, NegatedPattern):
            total = len(list(match_negated(pattern, instance)))
        else:
            total = sum(1 for _ in find_matchings(pattern, instance))
        print(f"matchings: {total}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core import counters as _counters
    from repro.dsl import parse_program

    try:
        instance = load_instance(args.instance)
        with open(args.script) as handle:
            source = handle.read()
        program = parse_program(source, instance.scheme)
    except (GoodError, OSError, ValueError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 1
    with _counters.collect() as tally:
        if args.savepoint:
            code = _run_with_savepoints(program, instance, args)
        else:
            code = _run_atomic(program, instance, args)
    if args.txn_stats:
        print(
            "txn: "
            f"{tally.txn_journal_entries} journal entries, "
            f"{tally.txn_snapshot_captures} snapshot captures, "
            f"{tally.txn_rollbacks} rollbacks, "
            f"~{tally.txn_bytes_avoided} snapshot bytes avoided",
            file=sys.stderr,
        )
    return code


def _run_atomic(program, instance, args: argparse.Namespace) -> int:
    from repro.io import save_instance

    try:
        result = program.run(instance, in_place=True, atomic=args.atomic)
    except (GoodError, OSError, ValueError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        report = getattr(error, "failure_report", None)
        if report is not None:
            print(report.summary(), file=sys.stderr)
        return 1
    for report in result.reports:
        print(report.summary())
    if args.output:
        save_instance(result.instance, args.output)
        print(f"wrote {args.output}")
    else:
        print(
            f"result: {result.instance.node_count} nodes, "
            f"{result.instance.edge_count} edges (use -o to save)"
        )
    return 0


def _run_with_savepoints(program, instance, args: argparse.Namespace) -> int:
    """``repro run --savepoint N``: checkpoint every N operations.

    On failure the instance is rolled back only to the most recent
    savepoint — the completed prefix survives — and, with ``-o``, that
    partial-but-consistent state is saved before exiting non-zero.
    """
    from repro.core.methods import ExecutionContext
    from repro.io import save_instance
    from repro.txn import Transaction

    context = ExecutionContext(program.methods)
    txn = Transaction(instance, name="cli-run")
    last = txn.savepoint("start")
    kept = 0
    reports = []
    try:
        for index, operation in enumerate(program.operations):
            reports.append(operation.apply(instance, context))
            if (index + 1) % args.savepoint == 0:
                last = txn.savepoint(f"op-{index + 1}")
                kept = index + 1
    except GoodError as error:
        txn.rollback_to(last)
        txn.commit()
        failed = len(reports)
        print(f"ERROR at operation {failed}: {error}", file=sys.stderr)
        print(
            f"rolled back to savepoint {last.name!r}; "
            f"{kept} of {len(program.operations)} operations kept",
            file=sys.stderr,
        )
        for report in reports[:kept]:
            print(report.summary())
        if args.output:
            save_instance(instance, args.output)
            print(f"wrote {args.output} (state at savepoint {last.name!r})")
        return 1
    txn.commit()
    for report in reports:
        print(report.summary())
    if args.output:
        save_instance(instance, args.output)
        print(f"wrote {args.output}")
    else:
        print(
            f"result: {instance.node_count} nodes, "
            f"{instance.edge_count} edges (use -o to save)"
        )
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:
    from repro.core.errors import GoodError as _GoodError
    from repro.dsl import parse_program
    from repro.interactive import Session
    from repro.io import save_instance

    try:
        instance = load_instance(args.instance)
    except (OSError, ValueError, GoodError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 1
    session = Session(instance)
    print(
        f"GOOD shell — {instance.node_count} nodes, {instance.edge_count} edges.\n"
        "Enter DSL statements (end with a blank line). Commands: :show, :dot,\n"
        ":save FILE, :undo, :quit"
    )
    buffer: list = []
    stream = sys.stdin
    while True:
        try:
            prompt = "....> " if buffer else "good> "
            if stream.isatty():
                line = input(prompt)
            else:
                line = stream.readline()
                if not line:
                    break
                line = line.rstrip("\n")
        except EOFError:
            break
        stripped = line.strip()
        if stripped.startswith(":"):
            command, _, argument = stripped.partition(" ")
            if command in (":quit", ":q"):
                break
            if command == ":show":
                print(session.show())
            elif command == ":dot":
                print(session.to_dot())
            elif command == ":undo":
                try:
                    session.undo()
                    print("undone.")
                except _GoodError as error:
                    print(f"ERROR: {error}")
            elif command == ":save":
                if not argument:
                    print("usage: :save FILE")
                else:
                    save_instance(session.instance, argument)
                    print(f"wrote {argument}")
            else:
                print(f"unknown command {command!r}")
            continue
        if stripped:
            buffer.append(line)
            continue
        if not buffer:
            continue
        source = "\n".join(buffer)
        buffer = []
        try:
            result = session.update(source)
        except _GoodError as error:
            print(f"ERROR: {error}")
            continue
        for report in result.reports:
            print(report.summary())
    # flush any pending statement at EOF (piped input without a
    # trailing blank line)
    if buffer:
        try:
            result = session.update("\n".join(buffer))
            for report in result.reports:
                print(report.summary())
        except _GoodError as error:
            print(f"ERROR: {error}")
    if args.output:
        save_instance(session.instance, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import Catalog, GoodServer
    from repro.txn.guards import ResourceLimits

    if args.workers > 1 or args.replicas > 0:
        return _serve_cluster(args)
    report = None
    if args.data_dir:
        from repro.wal import recover_catalog

        try:
            catalog, report = recover_catalog(
                args.data_dir, fsync_policy=args.fsync, checkpoint_bytes=args.checkpoint_bytes
            )
        except (GoodError, OSError) as error:
            print(f"ERROR: {error}", file=sys.stderr)
            return 1
        if report.databases:
            print(report.summary())
    else:
        catalog = Catalog()
    try:
        for spec in args.db or ():
            name, _, path = spec.partition("=")
            if not name or not path:
                print(f"ERROR: --db expects NAME=FILE, got {spec!r}", file=sys.stderr)
                return 1
            if name in catalog:
                # already recovered from the data dir; the durable copy
                # wins over the seed file
                continue
            catalog.load_file(name, path)
    except (GoodError, OSError, ValueError) as error:
        catalog.close_durability()
        print(f"ERROR: {error}", file=sys.stderr)
        return 1
    server = GoodServer(
        catalog,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_clients,
        max_queue=args.queue,
        lock_timeout=args.lock_timeout,
        default_limits=ResourceLimits(
            max_matchings=args.max_matchings, max_call_depth=args.max_call_depth
        ),
    )
    if report is not None:
        for entry in report.databases:
            server.stats.charge(
                entry["name"], recoveries=1, wal_torn=entry["torn_records"]
            )

    async def _serve() -> None:
        host, port = await server.start()
        names = ", ".join(catalog.names()) or "none (clients can CREATE)"
        durable = f" — data dir: {args.data_dir} (fsync={args.fsync})" if args.data_dir else ""
        print(f"serving GOOD on {host}:{port} — databases: {names}{durable}")
        print("stop with Ctrl-C")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nserver stopped.")
    finally:
        catalog.close_durability()
    return 0


def _serve_cluster(args: argparse.Namespace) -> int:
    """``repro serve --workers N [--replicas M]``: the scale-out path.

    Boots N shard worker processes (each with its own WAL'd directory
    under ``--data-dir``), M WAL-tailing read replicas, and a
    consistent-hash router in this process speaking the ordinary
    protocol — existing clients connect to the printed address
    unchanged.  Without ``--data-dir`` the cluster serves from a
    temporary directory (fsync off) that is deleted on exit.
    """
    import os
    import time as _time

    from repro.cluster import GoodCluster
    from repro.server import GoodClient

    cluster = GoodCluster(
        workers=args.workers,
        replicas=args.replicas,
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        fsync=args.fsync if args.data_dir else None,
        checkpoint_bytes=args.checkpoint_bytes,
        pool_size=args.max_clients,
        max_waiting=args.queue,
    )
    try:
        host, port = cluster.start()
    except (GoodError, OSError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 1
    try:
        if args.db:
            with GoodClient(host, port) as client:
                for spec in args.db:
                    name, _, path = spec.partition("=")
                    if not name or not path:
                        print(f"ERROR: --db expects NAME=FILE, got {spec!r}", file=sys.stderr)
                        return 1
                    if any(e["name"] == name for e in client.list()["databases"]):
                        continue  # recovered from the data dir; it wins
                    client.load(name, os.path.abspath(path))
        durable = (
            f" — data dir: {cluster.data_dir} (fsync={cluster.fsync})"
            if args.data_dir
            else " — ephemeral (no --data-dir)"
        )
        print(
            f"serving GOOD cluster on {host}:{port} — "
            f"{args.workers} worker(s), {args.replicas} replica(s){durable}"
        )
        print("stop with Ctrl-C")
        while True:
            _time.sleep(1)
    except KeyboardInterrupt:
        print("\ncluster stopped.")
        return 0
    finally:
        cluster.stop()


def _cmd_recover(args: argparse.Namespace) -> int:
    import json as _json

    from repro.wal import recover_catalog

    try:
        catalog, report = recover_catalog(
            args.data_dir, fsync_policy="off", validate=args.validate
        )
    except (GoodError, OSError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 1
    try:
        if args.json:
            print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(report.summary())
    finally:
        catalog.close_durability()
    return 0


def _cmd_connect(args: argparse.Namespace) -> int:
    from repro.server import GoodClient, RemoteError
    from repro.server.protocol import ProtocolError

    host, _, port_text = args.address.partition(":")
    try:
        port = int(port_text) if port_text else 2590
    except ValueError:
        print(f"ERROR: bad port in {args.address!r}", file=sys.stderr)
        return 1
    try:
        client = GoodClient(host or "127.0.0.1", port).connect()
    except OSError as error:
        print(f"ERROR: cannot connect to {host}:{port}: {error}", file=sys.stderr)
        return 1
    hello = client.hello()
    names = ", ".join(entry["name"] for entry in hello["databases"]) or "none"
    print(f"connected to {host}:{port} (protocol {hello['protocol']}) — databases: {names}")
    cluster = hello.get("cluster")
    if cluster:
        print(
            f"cluster endpoint: {cluster.get('workers', 0)} worker(s), "
            f"{cluster.get('replicas', 0)} read replica(s) behind this router"
        )
    if args.use:
        try:
            client.use(args.use)
            print(f"using {args.use!r}")
        except (RemoteError, ProtocolError) as error:
            print(f"ERROR: {error}", file=sys.stderr)
            client.close()
            return 1
    print(
        "Enter DSL statements (end with a blank line) to RUN them remotely.\n"
        "Commands: :use NAME, :list, :match {PATTERN}, :explain {PATTERN},\n"
        ":browse NODE [HOPS], :limit MATCHINGS [DEPTH], :undo, :save FILE,\n"
        ":stats, :quit"
    )
    code = _connect_repl(client)
    client.close()
    return code


def _render_stats(stats) -> list:
    """Human-readable lines for the ``STATS`` payload.

    The payload is nested (per-database counters, snapshot gauges,
    latency windows); a raw JSON dump buries the numbers people
    actually look for, so render the interesting ones directly.
    """

    def window(label: str, ring) -> str:
        if not ring or not ring.get("samples"):
            return f"{label}: no samples"
        return (
            f"{label}: p50 {ring['p50_ms']}ms, p95 {ring['p95_ms']}ms, "
            f"max {ring['max_ms']}ms ({ring['samples']} samples)"
        )

    def human_bytes(count: int) -> str:
        size = float(count)
        for unit in ("B", "KiB", "MiB", "GiB"):
            if size < 1024.0 or unit == "GiB":
                return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
            size /= 1024.0
        return f"{int(count)} B"

    conns = stats.get("connections", {})
    lines = [
        f"uptime {stats.get('uptime_s', 0)}s",
        f"connections: {conns.get('open', 0)} open / {conns.get('total', 0)} total"
        f" — queue {stats.get('queue_depth', 0)}, running {stats.get('running', 0)}",
    ]
    if "intern_table_size" in stats:
        lines.append(
            f"label interner: {stats.get('intern_table_size', 0)} labels, "
            f"{human_bytes(stats.get('intern_table_bytes', 0))}"
        )
    cluster = stats.get("cluster")
    if cluster:
        router = cluster.get("router", {})
        lines.append(
            f"cluster: {len(cluster.get('workers', {}))} worker(s), "
            f"{len(cluster.get('replicas', {}))} replica(s) — "
            f"reads to replicas {router.get('reads_to_replicas', 0)}, "
            f"to owners {router.get('reads_to_owner', 0)}, "
            f"writes {router.get('writes', 0)}"
        )
        for name, replica in sorted(cluster.get("replicas", {}).items()):
            lag = replica.get("lag", {})
            worst = max(lag.values()) if lag else 0
            lines.append(
                f"  replica {name}: {len(replica.get('applied', {}))} database(s) "
                f"applied, worst lag {worst} LSN(s)"
            )
    total = stats.get("total", {})
    if total:
        lines.append(
            f"totals: {total.get('requests', 0)} requests "
            f"({total.get('errors', 0)} errors), {total.get('runs', 0)} runs, "
            f"{total.get('queries', 0)} queries, "
            f"{total.get('matchings_enumerated', 0)} matchings"
        )
        lines.append("  " + window("latency", total.get("latency")))
        lines.append("  " + window("lock wait", total.get("lock_wait")))
    for name, bucket in sorted(stats.get("databases", {}).items()):
        lines.append(f"database {name}:")
        lines.append(
            f"  requests {bucket.get('requests', 0)} "
            f"({bucket.get('errors', 0)} errors), runs {bucket.get('runs', 0)}, "
            f"queries {bucket.get('queries', 0)}, "
            f"rollbacks {bucket.get('rollbacks', 0)}"
        )
        lines.append(
            f"  plans: {bucket.get('plan_cache_hits', 0)} cached / "
            f"{bucket.get('plan_cache_misses', 0)} compiled, "
            f"{bucket.get('index_probes', 0)} index probes"
        )
        if bucket.get("wal_appends") or bucket.get("checkpoints"):
            lines.append(
                f"  wal: {bucket.get('wal_appends', 0)} appends, "
                f"{bucket.get('wal_fsyncs', 0)} fsyncs, "
                f"{bucket.get('wal_bytes', 0)} bytes, "
                f"{bucket.get('checkpoints', 0)} checkpoints"
            )
        if "store_bytes" in bucket:
            lines.append(f"  memory: store {human_bytes(bucket['store_bytes'])} resident")
        snapshots = bucket.get("snapshots")
        if snapshots:
            lines.append(
                f"  snapshots: {snapshots.get('snapshots_pinned', 0)} pinned, "
                f"chain length {snapshots.get('version_chain_length', 0)}, "
                f"{snapshots.get('versions_published', 0)} published, "
                f"{snapshots.get('versions_gced', 0)} gc'd, "
                f"~{snapshots.get('snapshot_bytes_shared', 0)} bytes shared"
            )
        lines.append("  " + window("latency", bucket.get("latency")))
        lines.append("  " + window("lock wait", bucket.get("lock_wait")))
    return lines


def _connect_repl(client) -> int:
    from repro.core.errors import GoodError as _GoodError

    def command(stripped: str) -> bool:
        """Handle one ``:command``; returns False on :quit."""
        name, _, argument = stripped.partition(" ")
        argument = argument.strip()
        if name in (":quit", ":q"):
            return False
        if name == ":use" and argument:
            print(f"using {client.use(argument)['using']['name']!r}")
        elif name == ":list":
            for entry in client.list()["databases"]:
                print(
                    f"  {entry['name']:<20} {entry['backend']:<10} "
                    f"{entry['nodes']} nodes, {entry['edges']} edges"
                )
        elif name == ":match" and argument:
            found = client.match(argument)
            print(f"{found['total']} matchings")
            for matching in found["matchings"][:20]:
                print(f"  {matching}")
        elif name == ":explain" and argument:
            explained = client.explain(argument)
            print(explained["text"])
            strategy = explained.get("strategy", "left-deep")
            print(
                f"(backend={explained['backend']}, strategy={strategy}, "
                f"cached={explained['cached']})"
            )
        elif name == ":browse" and argument:
            parts = argument.split()
            found = client.browse(int(parts[0]), hops=int(parts[1]) if len(parts) > 1 else 1)
            print(f"nodes: {found['nodes']}")
        elif name == ":limit" and argument:
            parts = argument.split()
            budgets = client.limit(
                max_matchings=int(parts[0]),
                max_call_depth=int(parts[1]) if len(parts) > 1 else None,
            )
            print(f"budgets: {budgets}")
        elif name == ":undo":
            print(f"undone: {client.undo()}")
        elif name == ":save" and argument:
            print(f"saved: {client.save(argument)['saved']}")
        elif name == ":stats":
            for line in _render_stats(client.stats()):
                print(line)
        else:
            print(f"unknown or incomplete command {stripped!r}")
        return True

    buffer: list = []

    def run_buffer() -> None:
        source = "\n".join(buffer)
        buffer.clear()
        result = client.run(source)
        for report in result["reports"]:
            print(report["summary"])
        print(f"database now: {result['nodes']} nodes, {result['edges']} edges")

    stream = sys.stdin
    while True:
        try:
            prompt = "....> " if buffer else "good> "
            if stream.isatty():
                line = input(prompt)
            else:
                line = stream.readline()
                if not line:
                    break
                line = line.rstrip("\n")
        except EOFError:
            break
        stripped = line.strip()
        try:
            if stripped.startswith(":"):
                if not command(stripped):
                    return 0
            elif stripped:
                buffer.append(line)
            elif buffer:
                run_buffer()
        except (_GoodError, ValueError, OSError) as error:
            buffer.clear()
            print(f"ERROR: {error}")
    if buffer:
        try:
            run_buffer()
        except (_GoodError, ValueError, OSError) as error:
            print(f"ERROR: {error}")
            return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        instance = load_instance(args.file)  # loading validates
    except (GoodError, OSError, ValueError) as error:
        print(f"INVALID: {error}", file=sys.stderr)
        return 1
    print(f"OK: {instance.node_count} nodes, {instance.edge_count} edges")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GOOD: a Graph-Oriented Object Database Model (PODS 1990 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    tour = commands.add_parser("tour", help="run the paper's figures end to end")
    tour.set_defaults(handler=_cmd_tour)

    export = commands.add_parser("export", help="DOT export of the hyper-media example")
    export.add_argument("what", choices=["scheme", "instance"])
    export.add_argument("-o", "--output", help="write to a file instead of stdout")
    export.set_defaults(handler=_cmd_export)

    figures = commands.add_parser("figures", help="export the paper's figures as DOT")
    figures.add_argument("-d", "--directory", default="figures-dot")
    figures.set_defaults(handler=_cmd_figures)

    stats = commands.add_parser("stats", help="census of a JSON instance")
    stats.add_argument("file")
    stats.set_defaults(handler=_cmd_stats)

    explain = commands.add_parser(
        "explain", help="show the match plan for a DSL pattern (no execution)"
    )
    explain.add_argument("instance", help="JSON instance file")
    explain.add_argument(
        "pattern", help="DSL pattern text, or @FILE to read the pattern from FILE"
    )
    explain.add_argument(
        "--execute",
        action="store_true",
        help="also run the plan and print the matching count",
    )
    explain.set_defaults(handler=_cmd_explain)

    run = commands.add_parser(
        "run", help="run a DSL program (see repro.dsl) against a JSON instance"
    )
    run.add_argument("instance", help="JSON instance file")
    run.add_argument("script", help="DSL program file")
    run.add_argument("-o", "--output", help="write the transformed instance here")
    run.add_argument(
        "--no-atomic",
        dest="atomic",
        action="store_false",
        help="on failure, keep partial state instead of rolling back",
    )
    run.add_argument(
        "--savepoint",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint every N operations; on failure roll back only "
        "to the last savepoint and keep the completed prefix",
    )
    run.add_argument(
        "--txn-stats",
        action="store_true",
        help="print transaction-layer counters (journal entries, "
        "snapshot captures, rollbacks, copy bytes avoided) to stderr",
    )
    run.set_defaults(handler=_cmd_run, atomic=True)

    shell = commands.add_parser(
        "shell", help="interactive DSL shell over a JSON instance"
    )
    shell.add_argument("instance", help="JSON instance file")
    shell.add_argument("-o", "--output", help="save the final state here on exit")
    shell.set_defaults(handler=_cmd_shell)

    validate = commands.add_parser("validate", help="validate a JSON instance")
    validate.add_argument("file")
    validate.set_defaults(handler=_cmd_validate)

    serve = commands.add_parser(
        "serve", help="serve a catalog of GOOD databases over TCP (see repro.server)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("-p", "--port", type=int, default=2590)
    serve.add_argument(
        "--db",
        action="append",
        metavar="NAME=FILE",
        help="serve a JSON instance file under NAME (repeatable)",
    )
    serve.add_argument(
        "--max-clients", type=int, default=8, help="concurrent requests executing"
    )
    serve.add_argument(
        "--queue", type=int, default=64, help="admission queue bound (then OVERLOADED)"
    )
    serve.add_argument(
        "--lock-timeout", type=float, default=30.0, help="seconds to wait for a database lock"
    )
    serve.add_argument(
        "--max-matchings", type=int, default=None, help="default per-session matching budget"
    )
    serve.add_argument(
        "--max-call-depth", type=int, default=None, help="default per-session recursion budget"
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="serve durably from DIR: recover its databases on boot, "
        "write-ahead log every commit, checkpoint periodically",
    )
    serve.add_argument(
        "--fsync",
        default="always",
        metavar="POLICY",
        help="WAL fsync policy: always (default), group:<ms> (group "
        "commit, coalescing fsyncs), or off (OS decides)",
    )
    serve.add_argument(
        "--checkpoint-bytes",
        type=int,
        default=4 * 1024 * 1024,
        help="auto-checkpoint a database once its WAL segment exceeds "
        "this many bytes (0 disables; default 4MiB)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="scale out: shard the catalog over N worker processes "
        "behind a consistent-hash router (see repro.cluster)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="M",
        help="with --workers: add M WAL-fed read replica processes; "
        "MATCH/QUERY/BROWSE/EXPORT fan out to caught-up replicas",
    )
    serve.set_defaults(handler=_cmd_serve)

    recover = commands.add_parser(
        "recover",
        help="recover a serve --data-dir offline and report what was replayed",
    )
    recover.add_argument("data_dir", metavar="DIR")
    recover.add_argument(
        "--validate",
        action="store_true",
        help="re-check every Section 2 constraint on the recovered instances",
    )
    recover.add_argument("--json", action="store_true", help="machine-readable report")
    recover.set_defaults(handler=_cmd_recover)

    connect = commands.add_parser(
        "connect", help="interactive client for a served GOOD catalog"
    )
    connect.add_argument("address", help="HOST[:PORT] of a repro serve instance")
    connect.add_argument("-u", "--use", help="select this database on connect")
    connect.set_defaults(handler=_cmd_connect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
