"""The shard worker: one durable :class:`GoodServer` per process.

A worker is simply ``repro serve`` minus the CLI chrome: it recovers
its own data directory (``<cluster-dir>/worker-<i>/``), serves the
NDJSON protocol on its assigned port, and prints exactly one READY
line of JSON on stdout so the supervisor can scrape the bound address
without racing the bind::

    {"ready": true, "name": "worker-0", "host": "127.0.0.1", "port": 40001, "pid": 1234}

The worker holds the flock on its directory for its lifetime, so a
supervisor bug that double-spawns a shard is refused by the LOCK file
instead of corrupting the WAL.  Run directly with
``python -m repro.cluster.worker --data-dir DIR``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import List, Optional

from repro.core.errors import GoodError
from repro.wal.manager import DEFAULT_CHECKPOINT_BYTES


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.worker", description="one GOOD shard worker"
    )
    parser.add_argument("--data-dir", required=True, help="this worker's durable directory")
    parser.add_argument("--name", default=None, help="worker name (defaults to the dir name)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="port to bind (0 = ephemeral, reported on READY)"
    )
    parser.add_argument("--fsync", default="always")
    parser.add_argument("--checkpoint-bytes", type=int, default=DEFAULT_CHECKPOINT_BYTES)
    parser.add_argument("--max-clients", type=int, default=8)
    parser.add_argument("--queue", type=int, default=64)
    parser.add_argument("--lock-timeout", type=float, default=30.0)
    return parser


async def _serve(args: argparse.Namespace) -> int:
    from repro.server import GoodServer
    from repro.wal import recover_catalog

    catalog, report = recover_catalog(
        args.data_dir,
        fsync_policy=args.fsync,
        checkpoint_bytes=args.checkpoint_bytes,
    )
    name = args.name or os.path.basename(os.path.normpath(args.data_dir))
    server = GoodServer(
        catalog,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_clients,
        max_queue=args.queue,
        lock_timeout=args.lock_timeout,
    )
    for entry in report.databases:
        server.stats.charge(entry["name"], recoveries=1, wal_torn=entry["torn_records"])
    try:
        host, port = await server.start()
        print(
            json.dumps(
                {
                    "ready": True,
                    "name": name,
                    "host": host,
                    "port": port,
                    "pid": os.getpid(),
                    "databases": catalog.names(),
                    "recovered": report.recovered,
                    "records_replayed": report.records_replayed,
                }
            ),
            flush=True,
        )
        await server.serve_forever()
    finally:
        await server.stop()
        catalog.close_durability()
    return 0


def worker_main(argv: Optional[List[str]] = None) -> int:
    """Process entry point; prints a READY (or error) JSON line."""
    args = build_worker_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0
    except (GoodError, OSError) as error:
        print(json.dumps({"ready": False, "error": str(error)}), flush=True)
        print(f"ERROR: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(worker_main())
