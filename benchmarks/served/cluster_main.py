"""Serve one shard worker behind the cluster router (``routed_point_read``).

``repro serve --workers 1`` takes the single-server path, so the only
way to get "router + exactly one worker, no replica" is to start
:class:`repro.cluster.GoodCluster` directly.  Prints one READY JSON
line with the router's address, then serves until SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import threading

from repro.cluster import GoodCluster


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--fsync", default="always")
    parser.add_argument("--checkpoint-bytes", type=int, required=True)
    args = parser.parse_args()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    cluster = GoodCluster(
        workers=1, replicas=0, data_dir=args.data_dir, fsync=args.fsync, checkpoint_bytes=args.checkpoint_bytes
    )
    host, port = cluster.start()
    try:
        print(json.dumps({"ready": True, "host": host, "port": port}), flush=True)
        stop.wait()
    finally:
        cluster.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
