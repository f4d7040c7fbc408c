"""WAL record framing: CRC-guarded NDJSON records.

A segment is newline-delimited JSON (NDJSON) with a checksum prefix::

    <crc32 as 8 hex digits> <compact JSON document>\\n

The CRC covers the JSON bytes, so a partially written tail (torn by a
crash mid-``write``) is detected record-precisely: scanning stops at
the first line that is incomplete, fails its checksum, or does not
parse, and reports the byte offset up to which the segment is valid.
Everything before that offset is trustworthy — each record was fully
written and checksummed — which is exactly the contract recovery needs
to truncate the tail and continue.

A bad record is a *torn tail* only if no intact record follows it: a
crash can only tear the last write.  A bad record with an intact one
behind it is corruption of fsynced data, and :func:`scan_records`
raises :class:`WalFormatError` naming the segment and the byte offset
instead of reporting a tail that recovery would truncate.

Earlier releases could also write a binary segment format, recognised
by its :data:`BINARY_MAGIC` header.  It is no longer read; scanning
such a segment raises :class:`WalFormatError` with the migration steps
rather than mistaking the header for a torn first record.

Engine payloads are not plain JSON: minirel rows hold ``("v", value)``
*tuples* (hashed by the table indexes, so a list round trip would
corrupt them) and Tarski relations are sets of pairs.  :func:`jsonify`
/ :func:`dejsonify` make the round trip faithful by encoding tuples as
``{"$t": [...]}`` marker objects (and escaping any real mapping that
happens to carry a ``$t`` key).
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import GoodError


class WalError(GoodError):
    """Base class for durability failures."""


class WalFormatError(WalError):
    """A WAL record or checkpoint that cannot be decoded."""


_CRC_WIDTH = 8  # zlib.crc32 as zero-padded lowercase hex
_SEPARATOR = b" "

#: Header of a segment in the retired binary format.  A text segment's
#: first byte is a hex digit, so the header is unambiguous.
BINARY_MAGIC = b"GWB1\x00\n"


# ----------------------------------------------------------------------
# tuple-safe JSON values
# ----------------------------------------------------------------------


def jsonify(value: Any) -> Any:
    """Encode ``value`` into plain JSON, preserving tuple-ness.

    Tuples become ``{"$t": [items...]}``; a genuine dict with a ``$t``
    key is escaped as ``{"$d": {...}}`` so decoding is unambiguous.
    """
    if isinstance(value, tuple):
        return {"$t": [jsonify(item) for item in value]}
    if isinstance(value, list):
        return [jsonify(item) for item in value]
    if isinstance(value, dict):
        encoded = {key: jsonify(item) for key, item in value.items()}
        if "$t" in encoded or "$d" in encoded:
            return {"$d": encoded}
        return encoded
    return value


def dejsonify(value: Any) -> Any:
    """Invert :func:`jsonify`."""
    if isinstance(value, dict):
        if set(value) == {"$t"}:
            return tuple(dejsonify(item) for item in value["$t"])
        if set(value) == {"$d"}:
            return {key: dejsonify(item) for key, item in value["$d"].items()}
        return {key: dejsonify(item) for key, item in value.items()}
    if isinstance(value, list):
        return [dejsonify(item) for item in value]
    return value


# ----------------------------------------------------------------------
# record framing
# ----------------------------------------------------------------------


def encode_record(doc: Dict[str, Any]) -> bytes:
    """Frame one document as a checksummed NDJSON line."""
    payload = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return f"{crc:08x}".encode("ascii") + _SEPARATOR + payload + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Decode one complete line (without requiring the newline).

    Raises :class:`WalFormatError` on any framing, checksum, or JSON
    problem; :func:`scan_records` decides whether that is a torn tail
    or a corrupt segment.
    """
    line = line.rstrip(b"\n")
    if len(line) < _CRC_WIDTH + 1 or line[_CRC_WIDTH : _CRC_WIDTH + 1] != _SEPARATOR:
        raise WalFormatError("record too short or missing checksum separator")
    try:
        expected = int(line[:_CRC_WIDTH], 16)
    except ValueError:
        raise WalFormatError("record checksum is not hexadecimal") from None
    payload = line[_CRC_WIDTH + 1 :]
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != expected:
        raise WalFormatError(
            f"record checksum mismatch (stored {expected:08x}, computed {actual:08x})"
        )
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise WalFormatError(f"record payload is not valid JSON: {error}") from None
    if not isinstance(doc, dict):
        raise WalFormatError(f"record payload must be a JSON object, got {type(doc).__name__}")
    return doc


def scan_records(
    data: bytes, segment: str = "WAL segment", start: int = 0
) -> Tuple[List[Dict[str, Any]], int, int]:
    """Scan segment bytes; stop at a torn tail, refuse corruption.

    ``data`` is the segment from byte ``start`` on (a tailer reads from
    an offset) and ``segment`` names it in errors.  Returns ``(records,
    valid_length, torn)``: the decoded records, the length of the
    intact prefix of ``data``, and 1 if a torn tail follows that prefix
    (else 0).

    Raises :class:`WalFormatError` for a binary-format segment, and for
    a bad record that an intact record follows: that is corruption, not
    a torn tail, so the caller must not truncate at it.
    """
    if start == 0 and data.startswith(BINARY_MAGIC):
        raise WalFormatError(
            f"{segment}: binary WAL segment, which this release cannot read; to "
            "migrate, run the previous release with --wal-format text, CHECKPOINT "
            "each database, then upgrade"
        )
    records: List[Dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:  # incomplete final line: torn mid-write
            return records, offset, 1
        try:
            records.append(decode_line(data[offset : newline + 1]))
        except WalFormatError as error:
            intact = _next_intact_record(data, newline + 1)
            if intact is not None:
                raise WalFormatError(
                    f"{segment}: corrupt record at byte {start + offset}: {error}; "
                    f"an intact record follows at byte {start + intact}, so this is "
                    "not a torn tail and nothing was truncated"
                ) from None
            return records, offset, 1
        offset = newline + 1
    return records, offset, 0


def _next_intact_record(data: bytes, offset: int) -> Optional[int]:
    """Offset of the first complete, decodable line at or past ``offset``."""
    while True:
        newline = data.find(b"\n", offset)
        if newline == -1:
            return None
        try:
            decode_line(data[offset : newline + 1])
        except WalFormatError:
            offset = newline + 1
        else:
            return offset
