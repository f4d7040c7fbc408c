"""Checkpoints: atomic on-disk snapshots that bound WAL replay.

A checkpoint file ``checkpoint-<epoch>.json`` holds the full instance
(plus the scheme, the id counter and the last LSN) as it stood the
moment WAL segment ``wal-<epoch>.ndjson`` was started.  Recovery loads
the newest *valid* checkpoint and replays only the segments from that
epoch on — so checkpointing is what keeps recovery time proportional
to the WAL written since, not to the database's lifetime.

The write protocol is the classic atomic-publish dance:

1. write ``checkpoint-<epoch>.json.tmp`` (the instance streamed in
   columnar format 2 by :func:`repro.io.serialize.write_instance_columnar`
   — the label table once, then flat int columns — with no second
   in-memory copy) and ``fsync`` it;
2. ``os.replace`` onto the final name (atomic on POSIX);
3. ``fsync`` the directory so the rename itself is durable.

:func:`~repro.io.serialize.instance_from_json` still reads the
per-record format 1, so checkpoints written by earlier releases load.

A crash at any point leaves either the old checkpoint or the new one
fully intact — never a half-written file under the real name.  Crash
points: ``wal.checkpoint.written`` (tmp durable, not yet published),
``wal.checkpoint.renamed`` (published, directory not yet synced),
``wal.checkpoint.after``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.errors import GoodError
from repro.core.instance import Instance
from repro.io.serialize import instance_from_json, write_instance_columnar
from repro.txn import faults
from repro.wal.record import WalFormatError

CHECKPOINT_FORMAT = 1

#: The backend every checkpoint and ``meta.json`` names.  Only the
#: native store is served; the key stays so the previous release can
#: read what this one writes.
BACKEND = "native"


def checkpoint_name(epoch: int) -> str:
    """File name of the checkpoint opening ``epoch``."""
    return f"checkpoint-{epoch:08d}.json"


def segment_name(epoch: int) -> str:
    """File name of the WAL segment of ``epoch``."""
    return f"wal-{epoch:08d}.ndjson"


def parse_epoch(filename: str) -> int:
    """The epoch encoded in a checkpoint/segment file name (or -1)."""
    stem = filename.rsplit(".", 1)[0] if filename.endswith(".json") else filename[: -len(".ndjson")]
    try:
        return int(stem.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return -1


def fsync_dir(path: Union[str, Path]) -> None:
    """Make a directory entry change (rename/create/unlink) durable."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_checkpoint(
    directory: Union[str, Path],
    epoch: int,
    instance: Instance,
    *,
    last_lsn: int,
    next_id: int,
) -> Path:
    """Atomically publish ``checkpoint-<epoch>.json``; returns its path."""
    directory = Path(directory)
    final = directory / checkpoint_name(epoch)
    tmp = directory / (checkpoint_name(epoch) + ".tmp")
    header = {
        "format": CHECKPOINT_FORMAT,
        "kind": "checkpoint",
        "backend": BACKEND,
        "epoch": epoch,
        "last_lsn": last_lsn,
        "next_id": next_id,
    }
    with open(tmp, "w") as fp:
        # compose {header..., "instance": <streamed>} without building
        # the instance document in memory
        fp.write(json.dumps(header, sort_keys=True)[:-1])
        fp.write(', "instance": ')
        write_instance_columnar(instance, fp)
        fp.write("}")
        fp.flush()
        os.fsync(fp.fileno())
    faults.crash_here("wal.checkpoint.written")
    os.replace(tmp, final)
    faults.crash_here("wal.checkpoint.renamed")
    fsync_dir(directory)
    faults.crash_here("wal.checkpoint.after")
    return final


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and validate a checkpoint document."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise WalFormatError(f"{path}: unreadable checkpoint: {error}") from error
    if not isinstance(doc, dict) or doc.get("kind") != "checkpoint":
        raise WalFormatError(f"{path}: not a checkpoint document")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise WalFormatError(f"{path}: unsupported checkpoint format {doc.get('format')!r}")
    for key in ("backend", "epoch", "last_lsn", "next_id", "instance"):
        if key not in doc:
            raise WalFormatError(f"{path}: checkpoint missing key {key!r}")
    return doc


def checkpoint_instance(path: Union[str, Path], doc: Dict[str, Any]) -> Instance:
    """The validated instance of the checkpoint document ``doc`` read
    from ``path``.

    A checkpoint whose instance document is malformed or breaks an
    instance constraint is a corrupt file, so the error is a
    :class:`WalFormatError` naming it rather than the loader's own.
    """
    try:
        return instance_from_json(doc["instance"])
    except GoodError as error:
        raise WalFormatError(f"{path}: corrupt checkpoint instance: {error}") from error
