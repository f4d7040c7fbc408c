"""The durable data directory: layout, locking, recovery.

On-disk layout (one directory per served database)::

    <data-dir>/
      LOCK                      # flock'd + pid: single-server guard
      <db-name>/
        meta.json               # {"name", "backend": "native", "format"}
        checkpoint-<E>.json     # state at the start of epoch E
        wal-<E>.ndjson          # redo records appended during epoch E
      .tmp/                     # staging for atomic database creation
      .trash/                   # staging for atomic database deletion

Invariants:

* exactly one *current* epoch per database: its checkpoint plus its
  (possibly torn) segment reconstruct the state; stale epochs are
  leftovers of an interrupted checkpoint and are deleted on recovery;
* database create/drop are atomic with respect to the data directory —
  a fully populated directory is ``rename``\\ d in, a dropped one is
  ``rename``\\ d out to ``.trash`` before deletion, so a crash can
  never leave a half-created or half-deleted database under its name;
* the ``LOCK`` file is held with ``flock`` for the life of the
  process; a second server pointed at the same directory is refused
  (:class:`DataDirLockedError`) instead of silently corrupting it.

:func:`recover_catalog` is the boot path: lock the directory, then for
every database load the newest valid checkpoint, replay the epoch's
WAL (truncating a torn tail; a corrupt segment stops recovery with a
:class:`~repro.wal.record.WalFormatError` and is left untouched), and
hand back a serving
:class:`~repro.server.catalog.Catalog` plus a :class:`RecoveryReport`.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.wal.checkpoint import (
    BACKEND,
    checkpoint_instance,
    checkpoint_name,
    fsync_dir,
    load_checkpoint,
    parse_epoch,
    segment_name,
    write_checkpoint,
)
from repro.wal.log import CommitTicket, WalReader, WalWriter, parse_fsync_policy
from repro.wal.record import WalError, WalFormatError

try:  # POSIX: advisory whole-file lock, auto-released on process death
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None

META_NAME = "meta.json"
LOCK_NAME = "LOCK"
META_FORMAT = 1

#: Auto-checkpoint once a segment grows past this many bytes (0 = never).
DEFAULT_CHECKPOINT_BYTES = 4 * 1024 * 1024

_SAFE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


class DataDirLockedError(WalError):
    """The data directory is already served by another process."""


class DatabaseDurability:
    """One database's WAL writer, epoch bookkeeping and checkpoints."""

    def __init__(
        self,
        directory: Union[str, Path],
        name: str,
        policy: Any = "always",
        epoch: int = 0,
        lsn: int = 0,
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
    ) -> None:
        self.directory = Path(directory)
        self.name = name
        self.policy = parse_fsync_policy(policy)
        self.epoch = epoch
        self.lsn = lsn
        self.checkpoint_bytes = checkpoint_bytes
        self.checkpoints_taken = 0
        self.writer = WalWriter(self.directory / segment_name(epoch), self.policy)
        self._drained = {"appends": 0, "fsyncs": 0, "bytes": 0, "checkpoints": 0}
        # one checkpoint may stream at a time; set at begin_checkpoint
        # (under the write lock), cleared when the job finishes
        self._checkpoint_active = False

    # ------------------------------------------------------------------
    # commit-time records
    # ------------------------------------------------------------------
    def commit_journal(self, database: Any, journal: Any) -> CommitTicket:
        """Append one commit record derived from ``journal`` (redo dual).

        Every write is logged this way, ``UNDO`` included: its journal
        records the reverse replay like any other change.  Nothing
        writes ``reset`` records any more; recovery still reads them.
        """
        from repro.wal.redo import extract_redo, get_next_id

        redo = extract_redo(database, journal)
        self.lsn += 1
        return self.writer.append(
            {
                "kind": "commit",
                "lsn": self.lsn,
                "redo": redo,
                "next_id": get_next_id(database),
            }
        )

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def begin_checkpoint(self, database: Any) -> "CheckpointJob":
        """The fast, locked half of a checkpoint: pin + rotate.

        Must run under the database's write lock (no concurrent
        commits).  It pins the current MVCC version, records the
        commit horizon, and rotates the writer to a fresh segment —
        all O(1) — then returns a :class:`CheckpointJob` whose
        ``stream()`` writes the pinned state to disk and may run
        *after* the lock is released: writers keep committing into the
        new segment while the old state streams.  Recovery copes with
        a crash mid-stream by replaying every segment from the newest
        durable checkpoint's epoch upward.
        """
        from repro.wal.redo import get_next_id

        if self._checkpoint_active:
            raise WalError(
                f"database {self.name!r}: a checkpoint is already streaming"
            )
        try:
            reader = database.read_view()
            try:
                previous = self.epoch
                new_epoch = previous + 1
                last_lsn = self.lsn
                next_id = get_next_id(reader)
                self.writer.rotate(self.directory / segment_name(new_epoch))
                self.epoch = new_epoch
            except BaseException:
                reader.release()
                raise
        except BaseException as error:
            self.writer.poison(error)
            raise
        self._checkpoint_active = True
        return CheckpointJob(self, reader, new_epoch, previous, last_lsn, next_id)

    def checkpoint(self, database: Any) -> Dict[str, Any]:
        """Synchronous checkpoint: begin (pin + rotate) then stream inline."""
        return self.begin_checkpoint(database).stream()

    def maybe_checkpoint(self, database: Any) -> Optional["CheckpointJob"]:
        """Begin an auto-checkpoint when the segment outgrew the threshold.

        Returns the streaming job (or ``None``); the caller either
        streams it inline or defers it past the write lock.
        """
        if (
            self.checkpoint_bytes
            and not self._checkpoint_active
            and self.writer.poisoned is None
            and self.writer.written_offset >= self.checkpoint_bytes
        ):
            return self.begin_checkpoint(database)
        return None

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def drain_charges(self) -> Dict[str, int]:
        """WAL counter deltas since the last drain, as STATS charges.

        Group-mode fsyncs complete on the flusher thread, so a delta
        drained right after a commit may lag by one fsync; the next
        drain catches it up.
        """
        current = {
            "appends": self.writer.appends,
            "fsyncs": self.writer.fsyncs,
            "bytes": self.writer.bytes_written,
            "checkpoints": self.checkpoints_taken,
        }
        delta = {
            ("checkpoints" if key == "checkpoints" else f"wal_{key}"): current[key]
            - self._drained[key]
            for key in current
            if current[key] != self._drained[key]
        }
        self._drained = current
        return delta

    def poison(self, error: BaseException) -> None:
        """Disable the writer after a commit-path failure."""
        self.writer.poison(error)

    def close(self) -> None:
        """Flush and close the writer."""
        self.writer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DatabaseDurability({self.name!r}, "
            f"epoch={self.epoch}, lsn={self.lsn})"
        )


class CheckpointJob:
    """The streaming half of a two-phase checkpoint.

    Created by :meth:`DatabaseDurability.begin_checkpoint` under the
    database's write lock, holding a pinned snapshot reader and the
    commit horizon captured at rotation.  ``stream()`` does the slow
    work — serializing the pinned state and pruning pre-checkpoint
    files — and is safe to run after the lock is released.
    """

    def __init__(
        self,
        durability: "DatabaseDurability",
        reader: Any,
        epoch: int,
        previous_epoch: int,
        last_lsn: int,
        next_id: int,
    ) -> None:
        self.durability = durability
        self.reader = reader
        self.epoch = epoch
        self.previous_epoch = previous_epoch
        self.last_lsn = last_lsn
        self.next_id = next_id
        self._done = False

    def stream(self) -> Dict[str, Any]:
        """Write the pinned state to disk; returns the CHECKPOINT payload.

        On any failure the writer is poisoned — a half-finished
        checkpoint must not be built upon, exactly as a dead process
        would not be.  The pinned version is always released.
        """
        if self._done:
            raise WalError("checkpoint job was already streamed")
        self._done = True
        durability = self.durability
        try:
            try:
                path = write_checkpoint(
                    durability.directory,
                    self.epoch,
                    self.reader.to_instance(),
                    last_lsn=self.last_lsn,
                    next_id=self.next_id,
                )
                for stale in list(durability.directory.glob("checkpoint-*.json")) + list(
                    durability.directory.glob("wal-*.ndjson")
                ):
                    if 0 <= parse_epoch(stale.name) < self.epoch:
                        try:
                            stale.unlink()
                        except OSError:  # pragma: no cover - best-effort cleanup
                            pass
                fsync_dir(durability.directory)
                durability.checkpoints_taken += 1
                return {
                    "epoch": self.epoch,
                    "previous_epoch": self.previous_epoch,
                    "last_lsn": self.last_lsn,
                    "bytes": path.stat().st_size,
                }
            except BaseException as error:
                durability.writer.poison(error)
                raise
        finally:
            durability._checkpoint_active = False
            self.reader.release()


class RecoveryReport:
    """What recovery found and did, per database."""

    def __init__(self) -> None:
        self.databases: List[Dict[str, Any]] = []

    @property
    def recovered(self) -> int:
        """How many databases were brought back."""
        return len(self.databases)

    @property
    def records_replayed(self) -> int:
        """Total WAL records re-applied across databases."""
        return sum(entry["records_replayed"] for entry in self.databases)

    @property
    def torn_records(self) -> int:
        """Total torn tail records dropped across databases."""
        return sum(entry["torn_records"] for entry in self.databases)

    def to_json(self) -> Dict[str, Any]:
        """A JSON-ready summary (CLI output, tests)."""
        return {
            "recovered": self.recovered,
            "records_replayed": self.records_replayed,
            "torn_records": self.torn_records,
            "databases": list(self.databases),
        }

    def summary(self) -> str:
        """One line per database, human-readable."""
        if not self.databases:
            return "recovery: data directory holds no databases"
        lines = []
        for entry in self.databases:
            note = ""
            if entry["torn_records"]:
                note = f", dropped a torn tail ({entry['torn_records']} record)"
            if entry["stale_files_removed"]:
                note += f", removed {entry['stale_files_removed']} stale file(s)"
            lines.append(
                f"recovered {entry['name']!r}: "
                f"checkpoint epoch {entry['epoch']}, "
                f"replayed {entry['records_replayed']} record(s){note}"
            )
        return "\n".join(lines)


class DataDirectory:
    """A locked durable home for a catalog's databases."""

    def __init__(
        self,
        root: Union[str, Path],
        fsync_policy: Any = "always",
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
    ) -> None:
        self.root = Path(root)
        self.policy = parse_fsync_policy(fsync_policy)
        self.checkpoint_bytes = checkpoint_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock_file = None
        self._acquire_lock()
        self._trash_counter = 0

    # ------------------------------------------------------------------
    # single-writer lock
    # ------------------------------------------------------------------
    def _acquire_lock(self) -> None:
        lock_path = self.root / LOCK_NAME
        handle = open(lock_path, "a+")
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    handle.seek(0)
                    holder = handle.read().strip() or "unknown pid"
                    handle.close()
                    raise DataDirLockedError(
                        f"data directory {self.root} is already served "
                        f"(LOCK held by {holder})"
                    ) from None
            else:  # pragma: no cover - non-POSIX: stale-pid heuristic
                handle.seek(0)
                existing = handle.read().strip()
                if existing.isdigit() and _pid_alive(int(existing)):
                    handle.close()
                    raise DataDirLockedError(
                        f"data directory {self.root} is already served "
                        f"(LOCK held by pid {existing})"
                    )
        except DataDirLockedError:
            raise
        except Exception:
            handle.close()
            raise
        handle.seek(0)
        handle.truncate()
        handle.write(str(os.getpid()))
        handle.flush()
        self._lock_file = handle

    def close(self) -> None:
        """Release the directory lock (writers are closed by their
        owning :class:`DatabaseDurability` objects)."""
        if self._lock_file is not None:
            if fcntl is not None:
                try:
                    fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - defensive
                    pass
            self._lock_file.close()
            self._lock_file = None

    def __enter__(self) -> "DataDirectory":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _db_dir(self, name: str) -> Path:
        if not _SAFE_NAME.match(name or ""):
            raise WalError(
                f"database name {name!r} is not durable-safe "
                "(letters, digits, '.', '_', '-'; must not start with '.')"
            )
        return self.root / name

    def list_databases(self) -> List[str]:
        """Names of all databases present on disk, sorted."""
        found = []
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and (entry / META_NAME).exists():
                found.append(entry.name)
        return found

    # ------------------------------------------------------------------
    # atomic create / drop
    # ------------------------------------------------------------------
    def attach_new(self, database: Any) -> None:
        """Durably create ``database``'s directory and wire its WAL.

        The directory is fully populated (meta, checkpoint-0, empty
        segment) in ``.tmp`` and renamed into place, so a crash leaves
        either no trace or a complete, recoverable database.
        """
        from repro.wal.redo import get_next_id

        target = self._db_dir(database.name)
        if target.exists():
            raise WalError(
                f"data directory already holds a database named {database.name!r}"
            )
        staging = self.root / ".tmp" / f"{database.name}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        meta_path = staging / META_NAME
        with open(meta_path, "w") as fp:
            json.dump(
                {"format": META_FORMAT, "name": database.name, "backend": BACKEND},
                fp,
                sort_keys=True,
            )
            fp.flush()
            os.fsync(fp.fileno())
        write_checkpoint(
            staging,
            0,
            database.to_instance(),
            last_lsn=0,
            next_id=get_next_id(database),
        )
        segment = staging / segment_name(0)
        with open(segment, "ab") as fp:
            os.fsync(fp.fileno())
        fsync_dir(staging)
        os.rename(staging, target)
        fsync_dir(self.root)
        database.durability = DatabaseDurability(
            target,
            database.name,
            policy=self.policy,
            epoch=0,
            lsn=0,
            checkpoint_bytes=self.checkpoint_bytes,
        )

    def drop_database(self, database: Any) -> None:
        """Atomically remove a database's directory (rename-to-trash)."""
        if database.durability is not None:
            database.durability.close()
            database.durability = None
        source = self._db_dir(database.name)
        if not source.exists():
            return
        trash_root = self.root / ".trash"
        trash_root.mkdir(exist_ok=True)
        self._trash_counter += 1
        grave = trash_root / f"{database.name}-{os.getpid()}-{self._trash_counter}"
        os.rename(source, grave)
        fsync_dir(self.root)
        shutil.rmtree(grave, ignore_errors=True)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover_into(self, catalog: Any, validate: bool = False) -> RecoveryReport:
        """Rebuild every on-disk database into ``catalog``.

        Call with a catalog whose ``durability`` is not yet attached
        (:func:`recover_catalog` does); the per-database wiring happens
        here, not through the catalog's create hook.
        """
        self._sweep_staging()
        report = RecoveryReport()
        for name in self.list_databases():
            report.databases.append(self._recover_database(catalog, name, validate=validate))
        return report

    def _sweep_staging(self) -> None:
        for staging in (self.root / ".tmp", self.root / ".trash"):
            if staging.exists():
                shutil.rmtree(staging, ignore_errors=True)

    def _recover_database(self, catalog: Any, name: str, validate: bool = False) -> Dict[str, Any]:
        from repro.wal.redo import apply_commit, apply_reset, set_next_id

        directory = self.root / name
        self._read_meta(directory)
        doc, epoch, skipped = self._latest_valid_checkpoint(directory)
        instance = checkpoint_instance(directory / checkpoint_name(epoch), doc)
        database = catalog.add(name, instance)
        set_next_id(database, doc["next_id"])
        lsn = doc["last_lsn"]
        # a checkpoint rotates *before* it streams, so a crash
        # mid-stream leaves durable commits in segments newer than the
        # newest durable checkpoint: replay every epoch from the
        # checkpoint's upward, in order, skipping records the
        # checkpoint image already contains
        present = {
            parse_epoch(path.name)
            for path in directory.glob("wal-*.ndjson")
            if parse_epoch(path.name) >= epoch
        }
        segment_epochs = sorted(present | {epoch})
        replayed = commits = resets = torn = 0
        for segment_epoch in segment_epochs:
            segment = directory / segment_name(segment_epoch)
            if not segment.exists():
                # crash between checkpoint publish and segment rotation:
                # the checkpoint already holds everything
                with open(segment, "ab") as fp:
                    os.fsync(fp.fileno())
            records, segment_torn = WalReader.scan_and_truncate(segment)
            torn += segment_torn
            for record in records:
                if record.get("lsn", 0) <= doc["last_lsn"]:
                    continue
                kind = record.get("kind")
                if kind == "commit":
                    apply_commit(database, record)
                    commits += 1
                elif kind == "reset":
                    apply_reset(database, record)
                    resets += 1
                else:
                    raise WalFormatError(
                        f"{segment}: unknown WAL record kind {kind!r} "
                        f"at lsn {record.get('lsn')!r}"
                    )
                replayed += 1
                lsn = max(lsn, record.get("lsn", lsn))
        stale_removed = self._remove_stale_epochs(directory, epoch)
        if validate:
            database.to_instance().validate()
        # the replay mutated the live state past the version published
        # at construction: re-publish so readers see the recovered state
        database.publish_version()
        database.last_commit_lsn = lsn
        database.durability = DatabaseDurability(
            directory,
            name,
            policy=self.policy,
            epoch=segment_epochs[-1],
            lsn=lsn,
            checkpoint_bytes=self.checkpoint_bytes,
        )
        return {
            "name": name,
            "epoch": epoch,
            "last_lsn": lsn,
            "records_replayed": replayed,
            "commits_replayed": commits,
            "resets_replayed": resets,
            "segments_replayed": len(segment_epochs),
            "torn_records": torn,
            "invalid_checkpoints_skipped": skipped,
            "stale_files_removed": stale_removed,
        }

    @staticmethod
    def _read_meta(directory: Path) -> None:
        """Read and check ``meta.json``: the one gate before recovery or
        a replica resync touches a database directory."""
        try:
            meta = json.loads((directory / META_NAME).read_text())
        except (OSError, ValueError) as error:
            raise WalFormatError(f"{directory}: unreadable {META_NAME}: {error}") from error
        if not isinstance(meta, dict) or "backend" not in meta:
            raise WalFormatError(f"{directory}: malformed {META_NAME}")
        if meta["backend"] != BACKEND:
            raise WalFormatError(
                f"{directory}: the database was served on the {meta['backend']!r} "
                "backend, which this release does not serve; to migrate, EXPORT it "
                "with the previous release, then LOAD the exported document as native"
            )

    @staticmethod
    def _latest_valid_checkpoint(directory: Path) -> Tuple[Dict[str, Any], int, int]:
        candidates = sorted(
            (path for path in directory.glob("checkpoint-*.json")),
            key=lambda path: parse_epoch(path.name),
            reverse=True,
        )
        skipped = 0
        for path in candidates:
            epoch = parse_epoch(path.name)
            if epoch < 0:
                skipped += 1
                continue
            try:
                return load_checkpoint(path), epoch, skipped
            except WalFormatError:
                skipped += 1
        raise WalFormatError(
            f"{directory}: no valid checkpoint found "
            f"({len(candidates)} candidate(s), all invalid)"
        )

    @staticmethod
    def _remove_stale_epochs(directory: Path, epoch: int) -> int:
        """Drop non-chosen checkpoints, pre-checkpoint segments, tmps.

        Segments at or above the chosen checkpoint's epoch are kept —
        they hold commits newer than the checkpoint image (a
        checkpoint that crashed mid-stream leaves its fresh segment
        behind without a matching checkpoint file).
        """
        removed = 0
        for path in directory.glob("checkpoint-*.json"):
            if parse_epoch(path.name) != epoch:
                path.unlink()
                removed += 1
        for path in directory.glob("wal-*.ndjson"):
            if parse_epoch(path.name) < epoch:
                path.unlink()
                removed += 1
        for path in directory.glob("*.tmp"):
            path.unlink()
            removed += 1
        if removed:
            fsync_dir(directory)
        return removed


def _pid_alive(pid: int) -> bool:  # pragma: no cover - non-POSIX fallback
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def recover_catalog(
    root: Union[str, Path],
    fsync_policy: Any = "always",
    checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
    validate: bool = False,
) -> Tuple[Any, RecoveryReport]:
    """Boot path: lock ``root``, recover every database, return the
    serving catalog (durability attached) and the recovery report."""
    from repro.server.catalog import Catalog

    directory = DataDirectory(root, fsync_policy=fsync_policy, checkpoint_bytes=checkpoint_bytes)
    try:
        catalog = Catalog()
        report = directory.recover_into(catalog, validate=validate)
    except BaseException:
        directory.close()
        raise
    catalog.durability = directory
    return catalog, report
