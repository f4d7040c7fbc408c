"""Durability: write-ahead logging, checkpoints, crash recovery.

The GOOD paper's instances are mutated in place; everything upstream of
this package keeps them in memory only.  ``repro.wal`` adds the classic
redo story on top of PR 5's undo journals:

* :mod:`repro.wal.record` — the NDJSON record framing: one CRC-guarded
  JSON document per line;
* :mod:`repro.wal.log` — :class:`~repro.wal.log.WalWriter` (append +
  fsync with ``always`` / ``group:<ms>`` / ``off`` policies and a
  group-commit batcher) and :class:`~repro.wal.log.WalReader`
  (torn-tail tolerant segment scan);
* :mod:`repro.wal.redo` — derive *redo* records from a committed undo
  journal of the native store and re-apply them during recovery (the
  relational and Tarski engines are library code and are never logged);
* :mod:`repro.wal.checkpoint` — atomic instance snapshots that let
  replayed segments be truncated;
* :mod:`repro.wal.manager` — the data directory: per-database WAL +
  checkpoint layout, single-writer locking, atomic create/drop, and
  :func:`~repro.wal.manager.recover_catalog` which rebuilds a serving
  catalog from disk on boot.
"""

from repro.wal.log import FsyncPolicy, WalReader, WalWriter, parse_fsync_policy
from repro.wal.manager import (
    DataDirectory,
    DatabaseDurability,
    DataDirLockedError,
    RecoveryReport,
    recover_catalog,
)
from repro.wal.record import WalError, WalFormatError

__all__ = [
    "DataDirectory",
    "DatabaseDurability",
    "DataDirLockedError",
    "FsyncPolicy",
    "RecoveryReport",
    "WalError",
    "WalFormatError",
    "WalReader",
    "WalWriter",
    "parse_fsync_policy",
    "recover_catalog",
]
