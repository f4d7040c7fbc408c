"""WAL-fed read replicas.

A replica process follows one or more worker data directories *read
only* — it never takes the ``LOCK`` flock, never writes a byte — and
keeps an in-memory copy of every database by:

1. **resync** — load the newest valid checkpoint image, then replay
   every WAL segment at or above the checkpoint's epoch (the same
   epoch walk recovery does, minus the truncation: a torn tail here
   means the writer is mid-append, so the replica just stops before it
   and retries next poll);
2. **tail** — incrementally read newly appended records from the
   current segment (:meth:`~repro.wal.log.WalReader.tail` from a byte
   offset), advancing to the next segment when the writer rotates.

Failure modes, and how the tailer reads them off the filesystem:

* segment grew → new commits: apply them;
* segment has a torn tail → writer is mid-append: stop at the valid
  prefix, keep the offset, retry next poll (never truncate — the
  writer owns that file);
* a damaged record with an intact one after it → corruption, not a
  tail: the scan raises, the poll counts an error and keeps its offset;
* segment *shrank* below our offset → the worker crashed and recovery
  truncated a torn tail we had not yet crossed: full resync;
* segment vanished → a checkpoint pruned past us: full resync from the
  new checkpoint image;
* database directory vanished → ``DROP``: forget it;
* new directory with ``meta.json`` → ``CREATE``: resync it in.

Ordering is the read-your-writes linchpin: for each database the
tailer applies records, **publishes** the new MVCC version, and only
then advances the shared ``applied`` LSN map.  A router that observes
``applied[db] >= L`` and forwards a read here is therefore guaranteed
to pin a version containing commit ``L``.

The replica serves the ordinary NDJSON protocol through
:class:`ReplicaServer`, whose sessions refuse every write/catalog verb
with a structured ``REPLICA_READ_ONLY`` error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.core.errors import GoodError
from repro.server.catalog import Catalog
from repro.server.protocol import register_error_code
from repro.server.server import GoodServer
from repro.server.session import VERBS, ServerSession
from repro.wal.checkpoint import checkpoint_instance, checkpoint_name, parse_epoch, segment_name
from repro.wal.log import WalReader
from repro.wal.manager import DataDirectory, META_NAME
from repro.wal.record import WalFormatError
from repro.wal.redo import apply_commit, apply_reset, replace_state, set_next_id

#: verbs a replica refuses (everything that could mutate state)
READ_ONLY_REFUSED = frozenset(
    verb for verb, (_handler, mode) in VERBS.items() if mode in ("write", "catalog")
)


class ReplicaReadOnlyError(GoodError):
    """A write/catalog verb reached a read replica."""


register_error_code(ReplicaReadOnlyError, "REPLICA_READ_ONLY")


class ReplicaSession(ServerSession):
    """A server session that refuses every mutating verb."""

    async def dispatch(self, verb: str, args: Dict[str, Any]):
        if verb in READ_ONLY_REFUSED:
            raise ReplicaReadOnlyError(
                f"{verb} is not served by a read replica; "
                "send writes to the shard owner (via the router)"
            )
        return await super().dispatch(verb, args)


class _FollowedDatabase:
    """Tailer bookkeeping for one database: where we are in its WAL."""

    def __init__(self, directory: Path, epoch: int, offset: int, lsn: int) -> None:
        self.directory = directory
        self.epoch = epoch
        self.offset = offset
        self.lsn = lsn


class WalTailer:
    """Follows worker data directories, applying WAL into ``catalog``.

    The tailer is the replica's *only* writer, so it mutates databases
    without any lock; concurrent reads are MVCC-pinned to published
    versions and never observe a half-applied batch.
    """

    def __init__(self, catalog: Catalog, follow: Iterable[Union[str, Path]]) -> None:
        self.catalog = catalog
        self.follow = [Path(root) for root in follow]
        #: db name -> highest LSN whose commit is visible to readers;
        #: updated strictly after the version publish (read-your-writes)
        self.applied: Dict[str, int] = {}
        self._state: Dict[str, _FollowedDatabase] = {}
        self.polls = 0
        self.records_applied = 0
        self.resyncs = 0
        self.errors = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._advanced = threading.Condition()

    # ------------------------------------------------------------------
    # one polling pass
    # ------------------------------------------------------------------
    def poll_once(self) -> int:
        """Scan every followed directory once; returns records applied."""
        self.polls += 1
        applied = 0
        seen: Dict[str, Path] = {}
        for root in self.follow:
            try:
                entries = sorted(root.iterdir()) if root.exists() else []
            except OSError:
                continue
            for entry in entries:
                if entry.name in seen or not (entry / META_NAME).exists():
                    continue
                seen[entry.name] = entry
                try:
                    applied += self._sync_database(entry.name, entry)
                except (OSError, ValueError, GoodError):
                    # the worker may be mid-create, mid-drop or
                    # mid-crash; leave this database for the next poll
                    self.errors += 1
        for name in list(self._state):
            if name not in seen:  # DROPped on the owner
                self._state.pop(name, None)
                self.applied.pop(name, None)
                if name in self.catalog:
                    self.catalog.drop(name)
        if applied:
            self.records_applied += applied
            with self._advanced:
                self._advanced.notify_all()
        return applied

    def _sync_database(self, name: str, directory: Path) -> int:
        state = self._state.get(name)
        if state is None:
            return self._resync(name, directory)
        applied = 0
        while True:
            segment = directory / segment_name(state.epoch)
            if not segment.exists():
                # a checkpoint pruned our segment out from under us; the
                # records we had not reached live only in the image now
                return applied + self._resync(name, directory)
            records, new_offset = WalReader.tail(segment, state.offset)
            if new_offset < state.offset:
                # the file shrank: the worker crashed and recovery
                # truncated a torn tail behind our offset
                return applied + self._resync(name, directory)
            applied += self._apply(name, state, records)
            state.offset = new_offset
            if (directory / segment_name(state.epoch + 1)).exists():
                # the writer rotated; our segment is complete
                state.epoch += 1
                state.offset = 0
                continue
            return applied

    def _apply(self, name: str, state: _FollowedDatabase, records: List[Dict[str, Any]]) -> int:
        applied = 0
        database = self.catalog.get(name)
        for record in records:
            lsn = record.get("lsn", 0)
            if lsn <= state.lsn:
                continue  # the checkpoint image already contained it
            kind = record.get("kind")
            if kind == "commit":
                apply_commit(database, record)
            elif kind == "reset":
                apply_reset(database, record)
            else:
                raise WalFormatError(f"unknown WAL record kind {kind!r}")
            state.lsn = lsn
            applied += 1
        if applied:
            database.last_commit_lsn = state.lsn
            # publish BEFORE advancing the applied map: a reader routed
            # here after seeing applied >= L must pin a version with L
            database.publish_version()
            self.applied[name] = state.lsn
        return applied

    def _resync(self, name: str, directory: Path) -> int:
        """Rebuild a database from its newest checkpoint + all segments."""
        DataDirectory._read_meta(directory)
        doc, epoch, _skipped = DataDirectory._latest_valid_checkpoint(directory)
        instance = checkpoint_instance(directory / checkpoint_name(epoch), doc)
        if name in self.catalog:
            database = self.catalog.get(name)
            replace_state(database, instance)
        else:
            database = self.catalog.add(name, instance)
        set_next_id(database, doc["next_id"])
        state = _FollowedDatabase(directory, epoch, 0, doc["last_lsn"])
        applied = 0
        present = sorted(
            e
            for e in (parse_epoch(path.name) for path in directory.glob("wal-*.ndjson"))
            if e >= epoch
        )
        for segment_epoch in present:
            state.epoch = segment_epoch
            state.offset = 0
            records, state.offset = WalReader.tail(
                directory / segment_name(segment_epoch), 0
            )
            applied += self._apply(name, state, records)
        self.resyncs += 1
        self._state[name] = state
        # even a no-new-records resync must publish: replace_state
        # rebound the session, and the applied map must cover CREATEd
        # databases the router has not seen commits for yet
        database.last_commit_lsn = state.lsn
        database.publish_version()
        self.applied[name] = state.lsn
        with self._advanced:
            self._advanced.notify_all()
        return applied

    # ------------------------------------------------------------------
    # background thread
    # ------------------------------------------------------------------
    def start(self, interval: float = 0.05) -> None:
        """Poll every ``interval`` seconds on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("tailer already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    self.poll_once()
                except Exception:
                    # never let the tailer die: a transient filesystem
                    # race heals on the next poll
                    self.errors += 1
                self._stop.wait(interval)

        self._thread = threading.Thread(target=loop, name="wal-tailer", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def wait_applied(self, name: str, lsn: int, timeout: float = 10.0) -> bool:
        """Block until ``applied[name] >= lsn`` (tests, catch-up gates)."""
        deadline = time.monotonic() + timeout
        with self._advanced:
            while self.applied.get(name, -1) < lsn:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._advanced.wait(remaining)
        return True

    def info(self) -> Dict[str, Any]:
        """The ``REPLICA`` payload."""
        return {
            "replica": True,
            "applied": dict(self.applied),
            "polls": self.polls,
            "records_applied": self.records_applied,
            "resyncs": self.resyncs,
            "errors": self.errors,
            "following": [str(root) for root in self.follow],
        }


class ReplicaServer(GoodServer):
    """A read-only :class:`GoodServer` fed by a :class:`WalTailer`."""

    session_class = ReplicaSession

    def __init__(self, tailer: WalTailer, **kwargs: Any) -> None:
        super().__init__(tailer.catalog, **kwargs)
        self.tailer = tailer

    def replication_info(self) -> Dict[str, Any]:
        return self.tailer.info()


# ----------------------------------------------------------------------
# process entry point
# ----------------------------------------------------------------------


def build_replica_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.replica", description="one GOOD read replica"
    )
    parser.add_argument(
        "--follow",
        action="append",
        required=True,
        metavar="DIR",
        help="worker data directory to tail (repeatable)",
    )
    parser.add_argument("--name", default="replica")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--poll-interval", type=float, default=0.05)
    parser.add_argument("--max-clients", type=int, default=8)
    parser.add_argument("--queue", type=int, default=64)
    return parser


async def _serve(args: argparse.Namespace) -> int:
    tailer = WalTailer(Catalog(), args.follow)
    tailer.poll_once()  # initial sync before accepting reads
    server = ReplicaServer(
        tailer,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_clients,
        max_queue=args.queue,
    )
    tailer.start(args.poll_interval)
    try:
        host, port = await server.start()
        print(
            json.dumps(
                {
                    "ready": True,
                    "name": args.name,
                    "replica": True,
                    "host": host,
                    "port": port,
                    "pid": os.getpid(),
                    "databases": tailer.catalog.names(),
                }
            ),
            flush=True,
        )
        await server.serve_forever()
    finally:
        tailer.stop()
        await server.stop()
    return 0


def replica_main(argv: Optional[List[str]] = None) -> int:
    """Process entry point; prints a READY (or error) JSON line."""
    args = build_replica_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0
    except (GoodError, OSError) as error:
        print(json.dumps({"ready": False, "error": str(error)}), flush=True)
        print(f"ERROR: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(replica_main())
