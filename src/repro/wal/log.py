"""WAL segment writer/reader: append, fsync policies, group commit.

:class:`WalWriter` appends framed records (:mod:`repro.wal.record`) to
one segment file and controls *when* they become durable:

* ``always`` — every append fsyncs before returning: the classic
  one-commit-one-fsync policy, durable but disk-bound;
* ``group:<ms>`` — a group-commit batcher: appenders enqueue a
  :class:`CommitTicket` and a flusher thread coalesces everything that
  accumulated (waiting at most ``<ms>`` extra milliseconds) into one
  fsync — the standard trick for making commit throughput scale with
  concurrency instead of disk latency;
* ``off`` — never fsync; the OS decides (fast, durable only against
  process death, not power loss).

Durability code is sprinkled with the crash points of
:mod:`repro.txn.faults` (``wal.append.before``, ``wal.append.torn``,
``wal.fsync.before``, ``wal.fsync.after``).  A simulated crash at
``wal.fsync.before`` also *truncates the file to the last fsynced
offset*: the test harness restarts within the same OS, so un-fsynced
page-cache bytes would otherwise survive the "crash" — truncation
models the power loss the fsync was there to beat.  After any crash or
I/O error the writer is *poisoned*: further appends fail, mirroring a
dead process, so memory and disk cannot silently diverge.

:class:`WalReader` scans segments tolerantly: a torn tail (partial
write of the final record) is detected by CRC and reported with the
valid byte length so recovery can drop it.  A damaged record with an
intact one after it is corruption, not a tail, and raises instead.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.txn import faults
from repro.wal.record import WalError, encode_record, scan_records


class FsyncPolicy:
    """A parsed fsync policy: ``always``, ``group:<ms>``, or ``off``."""

    ALWAYS = "always"
    GROUP = "group"
    OFF = "off"

    def __init__(self, mode: str, group_delay_ms: float = 0.0) -> None:
        if mode not in (self.ALWAYS, self.GROUP, self.OFF):
            raise WalError(f"unknown fsync mode {mode!r}")
        if group_delay_ms < 0:
            raise WalError(f"group delay must be >= 0, got {group_delay_ms!r}")
        self.mode = mode
        self.group_delay_ms = group_delay_ms

    def __str__(self) -> str:
        if self.mode == self.GROUP:
            text = f"{self.group_delay_ms:g}"
            return f"group:{text}"
        return self.mode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FsyncPolicy({str(self)!r})"


def parse_fsync_policy(text: Union[str, FsyncPolicy]) -> FsyncPolicy:
    """Parse ``always`` / ``group:<ms>`` / ``off`` (CLI flag format)."""
    if isinstance(text, FsyncPolicy):
        return text
    text = text.strip().lower()
    if text == FsyncPolicy.ALWAYS:
        return FsyncPolicy(FsyncPolicy.ALWAYS)
    if text == FsyncPolicy.OFF:
        return FsyncPolicy(FsyncPolicy.OFF)
    if text == FsyncPolicy.GROUP:
        return FsyncPolicy(FsyncPolicy.GROUP, 0.0)
    if text.startswith("group:"):
        try:
            delay = float(text[len("group:") :])
        except ValueError:
            raise WalError(f"bad group delay in fsync policy {text!r}") from None
        return FsyncPolicy(FsyncPolicy.GROUP, delay)
    raise WalError(f"unknown fsync policy {text!r} (expected always, group:<ms>, or off)")


class CommitTicket:
    """One appended record's durability handle.

    ``wait`` blocks until the record's bytes are fsynced (or the policy
    says they never will be), re-raising the writer's failure if the
    flush died.  Commit paths append under the database write lock but
    *wait after releasing it*, which is what lets concurrent commits
    coalesce into one fsync.
    """

    def __init__(self, offset: int) -> None:
        self.offset = offset
        self._done = threading.Event()
        self._error: Optional[BaseException] = None

    def _complete(self) -> None:
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    @property
    def done(self) -> bool:
        """Whether durability (or failure) has been decided."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until durable; raise if the flush failed."""
        if not self._done.wait(timeout):
            raise WalError(f"timed out waiting for WAL fsync at offset {self.offset}")
        if self._error is not None:
            raise self._error


class WalWriter:
    """Append-only writer for one WAL segment file."""

    def __init__(self, path: Union[str, Path], policy: Union[str, FsyncPolicy] = "always") -> None:
        self.path = Path(path)
        self.policy = parse_fsync_policy(policy)
        # unbuffered: the written offset *is* the file offset, which the
        # torn-tail simulation and group-commit bookkeeping rely on
        self._file = open(self.path, "ab", buffering=0)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # serializes fsync/rotate/close against the flusher without
        # blocking appends; always acquired *before* ``_lock``
        self._flush_lock = threading.RLock()
        self._written = self._file.tell()
        self._synced = self._written
        self._pending: List[CommitTicket] = []
        self._poison: Optional[BaseException] = None
        self._closing = False
        self._flusher: Optional[threading.Thread] = None
        # lifetime counters (survive rotation; the manager drains them
        # into the server's STATS)
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, doc: Dict[str, Any]) -> CommitTicket:
        """Frame and write one record; returns its durability ticket."""
        data = encode_record(doc)
        with self._lock:
            self._require_usable()
            try:
                faults.crash_here("wal.append.before")
                if faults.crash_armed("wal.append.torn"):
                    # model a crash mid-write: half the record reaches
                    # the file, then the "process" dies
                    self._file.write(data[: max(1, len(data) // 2)])
                    self._written = self._file.tell()
                    faults.crash_here("wal.append.torn")
                self._file.write(data)
            except BaseException as error:
                self._poison = error
                self._fail_pending_locked(error)
                raise
            self._written = self._file.tell()
            self.appends += 1
            self.bytes_written += len(data)
            ticket = CommitTicket(self._written)
            if self.policy.mode == FsyncPolicy.OFF:
                ticket._complete()
                return ticket
            if self.policy.mode == FsyncPolicy.ALWAYS:
                try:
                    self._fsync_locked()
                except BaseException as error:
                    self._poison = error
                    self._fail_pending_locked(error)
                    ticket._fail(error)
                    raise
                ticket._complete()
                return ticket
            # group mode: enqueue and wake the flusher
            self._pending.append(ticket)
            self._ensure_flusher_locked()
            self._cond.notify_all()
            return ticket

    def _require_usable(self) -> None:
        if self._closing:
            raise WalError(f"WAL writer for {self.path} is closed")
        if self._poison is not None:
            raise WalError(
                f"WAL writer for {self.path} is poisoned by an earlier failure: {self._poison}"
            ) from self._poison

    # ------------------------------------------------------------------
    # fsync machinery
    # ------------------------------------------------------------------
    def _fsync_locked(self) -> None:
        """One fsync of everything written so far (caller holds lock)."""
        try:
            faults.crash_here("wal.fsync.before")
        except BaseException:
            # the un-fsynced page-cache bytes die with the "power":
            # truncate back to the last offset an fsync made durable
            self._simulate_power_loss_locked()
            raise
        os.fsync(self._file.fileno())
        self._synced = self._written
        self.fsyncs += 1
        faults.crash_here("wal.fsync.after")

    def _simulate_power_loss_locked(self) -> None:
        try:
            self._file.truncate(self._synced)
            self._file.seek(self._synced)
            self._written = self._synced
        except OSError:  # pragma: no cover - the crash still propagates
            pass

    def _fail_pending_locked(self, error: BaseException) -> None:
        for ticket in self._pending:
            ticket._fail(error)
        self._pending.clear()
        self._cond.notify_all()

    def _ensure_flusher_locked(self) -> None:
        if self._flusher is None or not self._flusher.is_alive():
            self._flusher = threading.Thread(
                target=self._flush_loop, name=f"wal-flusher:{self.path.name}", daemon=True
            )
            self._flusher.start()

    def _flush_loop(self) -> None:
        delay = self.policy.group_delay_ms / 1000.0
        while True:
            with self._lock:
                while not self._pending and not self._closing and self._poison is None:
                    self._cond.wait()
                if (self._closing or self._poison is not None) and not self._pending:
                    return
            if delay > 0:
                # bounded accumulation: let more committers pile onto
                # this flush (at most the configured window)
                threading.Event().wait(delay)
            with self._flush_lock:
                with self._lock:
                    batch = self._pending
                    self._pending = []
                    if not batch:
                        continue
                    target = self._written
                    file = self._file
                # fsync *outside* ``_lock``: appenders keep writing (and
                # queueing tickets for the next batch) while this batch
                # goes durable, so concurrency grows the batches instead
                # of stalling behind the disk
                error: Optional[BaseException] = None
                try:
                    faults.crash_here("wal.fsync.before")
                except BaseException as exc:
                    error = exc
                    with self._lock:
                        self._simulate_power_loss_locked()
                if error is None:
                    try:
                        os.fsync(file.fileno())
                    except BaseException as exc:
                        error = exc
                if error is None:
                    with self._lock:
                        self._synced = max(self._synced, target)
                        self.fsyncs += 1
                    try:
                        faults.crash_here("wal.fsync.after")
                    except BaseException as exc:
                        error = exc
                if error is not None:
                    with self._lock:
                        self._poison = error
                        for ticket in batch:
                            ticket._fail(error)
                        self._fail_pending_locked(error)
                        self._cond.notify_all()
                    return
                for ticket in batch:
                    ticket._complete()

    def flush(self) -> None:
        """Synchronously make everything appended so far durable."""
        with self._flush_lock, self._lock:
            self._require_usable()
            if self.policy.mode == FsyncPolicy.OFF:
                return
            if self._synced >= self._written and not self._pending:
                return
            if self.policy.mode == FsyncPolicy.ALWAYS:
                self._fsync_locked()
                return
            batch = self._pending
            self._pending = []
            try:
                self._fsync_locked()
            except BaseException as error:
                self._poison = error
                for ticket in batch:
                    ticket._fail(error)
                raise
            for ticket in batch:
                ticket._complete()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def written_offset(self) -> int:
        """Bytes written to the current segment so far."""
        with self._lock:
            return self._written

    @property
    def synced_offset(self) -> int:
        """Bytes of the current segment known durable."""
        with self._lock:
            return self._synced

    @property
    def poisoned(self) -> Optional[BaseException]:
        """The failure that disabled this writer, if any."""
        return self._poison

    def rotate(self, new_path: Union[str, Path]) -> None:
        """Switch appends to a fresh segment (checkpoint truncation).

        Pending group-commit tickets are flushed into the old segment
        first, so no ticket ever spans segments.
        """
        with self._flush_lock:
            if self.policy.mode != FsyncPolicy.OFF:
                self.flush()
            with self._lock:
                self._require_usable()
                self._file.close()
                self.path = Path(new_path)
                self._file = open(self.path, "ab", buffering=0)
                self._written = self._file.tell()
                self._synced = self._written

    def poison(self, error: BaseException) -> None:
        """Disable the writer after an external commit-path failure."""
        with self._lock:
            if self._poison is None:
                self._poison = error
            self._fail_pending_locked(error)

    def close(self, flush: bool = True) -> None:
        """Flush (unless poisoned or told not to) and close the file."""
        if flush and self._poison is None and self.policy.mode != FsyncPolicy.OFF:
            try:
                self.flush()
            except WalError:
                pass
        with self._lock:
            self._closing = True
            self._cond.notify_all()
            flusher = self._flusher
        if flusher is not None and flusher.is_alive():
            flusher.join(timeout=5.0)
        with self._flush_lock, self._lock:
            if not self._file.closed:
                self._file.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalWriter({str(self.path)!r}, policy={self.policy})"


class WalReader:
    """Torn-tail tolerant, corruption-refusing segment scanning."""

    @staticmethod
    def scan(path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], int, int]:
        """Decode a segment: ``(records, valid_byte_length, torn)``.

        Raises :class:`~repro.wal.record.WalFormatError` for a corrupt
        or binary-format segment (see :func:`scan_records`).
        """
        return scan_records(Path(path).read_bytes(), str(path))

    @staticmethod
    def tail(path: Union[str, Path], offset: int) -> Tuple[List[Dict[str, Any]], int]:
        """Read complete records appended past ``offset``; never truncates.

        The read-replica primitive: the writer process is *alive*, so an
        incomplete final line is almost certainly a record mid-``write``
        — the tailer keeps its offset at the last intact record boundary
        and simply retries on the next poll.  Returns ``(records,
        new_offset)``.  A file shorter than ``offset`` (the writer
        crashed, recovery truncated a torn tail) surfaces as
        ``new_offset < offset`` with no records, which tells the tailer
        to resynchronise from the newest checkpoint.  A corrupt record
        with an intact one after it raises
        :class:`~repro.wal.record.WalFormatError` instead of stalling at
        the bad offset.
        """
        with open(path, "rb") as fp:
            size = os.fstat(fp.fileno()).st_size
            if size < offset:
                return [], size
            fp.seek(offset)
            data = fp.read()
        records, valid_length, _torn = scan_records(data, str(path), offset)
        return records, offset + valid_length

    @staticmethod
    def scan_and_truncate(path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], int]:
        """Decode a segment, truncating any torn tail in place.

        Returns ``(records, torn)`` where ``torn`` counts dropped tail
        records (0 or 1).  After this the segment re-scans cleanly.  A
        corrupt segment raises before anything is truncated.
        """
        path = Path(path)
        records, valid_length, torn = WalReader.scan(path)
        if torn:
            with open(path, "rb+") as fp:
                fp.truncate(valid_length)
                fp.flush()
                os.fsync(fp.fileno())
        return records, torn
