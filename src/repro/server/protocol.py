"""The wire protocol: newline-delimited JSON frames, versioned.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
A request frame is::

    {"good": 1, "id": 7, "verb": "RUN", "args": {"program": "..."}}

``good`` is the protocol version (rejected if it is not
:data:`PROTOCOL_VERSION`), ``id`` is an opaque client token echoed back
verbatim, ``verb`` names the action and ``args`` is a verb-specific
object (optional; defaults to ``{}``).  The response is either::

    {"good": 1, "id": 7, "ok": true, "result": {...}}
    {"good": 1, "id": 7, "ok": false, "error": {"code": "...", ...}}

Error payloads are structured: ``code`` is a stable machine-readable
string from the table below, ``type`` the Python exception class name,
``message`` the human text, and ``details`` an optional object (for
rolled-back runs it carries the
:class:`~repro.txn.transaction.FailureReport` fields).  The code table
maps the library's exception hierarchy onto the wire so clients can
dispatch without parsing messages.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.errors import (
    BackendError,
    DomainError,
    EdgeConflictError,
    GoodError,
    InstanceError,
    MethodError,
    OperationError,
    PatternError,
    ResourceLimitError,
    SchemeError,
    SerializationError,
    TransactionError,
)

PROTOCOL_VERSION = 1

#: Hard ceiling on one frame (request or response), in bytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class ProtocolError(GoodError):
    """A malformed, oversized, or unintelligible frame."""


# ----------------------------------------------------------------------
# error codes
# ----------------------------------------------------------------------

#: Exception class -> stable wire code.  First match in method-resolution
#: order wins, so subclasses may override their parents.
ERROR_CODES: Dict[type, str] = {
    ProtocolError: "PROTOCOL",
    ResourceLimitError: "RESOURCE_LIMIT",
    TransactionError: "TXN_ERROR",
    EdgeConflictError: "EDGE_CONFLICT",
    OperationError: "OPERATION",
    SchemeError: "SCHEME",
    InstanceError: "INSTANCE",
    PatternError: "PATTERN",
    MethodError: "METHOD",
    DomainError: "DOMAIN",
    BackendError: "BACKEND",
    SerializationError: "BAD_PAYLOAD",
    TimeoutError: "TIMEOUT",
    # on Python < 3.11 asyncio.TimeoutError is not builtins.TimeoutError
    asyncio.TimeoutError: "TIMEOUT",
}


def register_error_code(exc_type: type, code: str) -> None:
    """Map an exception class to a wire code (used by server modules)."""
    ERROR_CODES[exc_type] = code


def _register_library_codes() -> None:
    # imported lazily so protocol stays importable without the whole
    # library (the mappings below reach into sibling packages)
    from repro.dsl import DslError
    from repro.interactive.session import SessionError

    ERROR_CODES.setdefault(DslError, "PARSE")
    ERROR_CODES.setdefault(SessionError, "SESSION")


_register_library_codes()


def error_code(error: BaseException) -> str:
    """The stable wire code for an exception (walks the MRO)."""
    for klass in type(error).__mro__:
        if klass in ERROR_CODES:
            return ERROR_CODES[klass]
    if isinstance(error, GoodError):
        return "GOOD"
    return "INTERNAL"


def error_payload(error: BaseException) -> Dict[str, Any]:
    """The structured ``error`` object for a response frame."""
    payload: Dict[str, Any] = {
        "code": error_code(error),
        "type": type(error).__name__,
        "message": str(error),
    }
    report = getattr(error, "failure_report", None)
    if report is not None and is_dataclass(report):
        payload["details"] = {"failure_report": asdict(report)}
    return payload


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """One JSON object as a ``\\n``-terminated UTF-8 line."""
    data = json.dumps(frame, separators=(",", ":"), sort_keys=True).encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES} byte limit")
    return data


def decode_request(line: bytes) -> Tuple[Any, str, Dict[str, Any]]:
    """Parse and validate one request line -> ``(id, verb, args)``."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES} byte limit")
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from error
    if not isinstance(frame, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(frame).__name__}")
    version = frame.get("good")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this server speaks {PROTOCOL_VERSION})"
        )
    verb = frame.get("verb")
    if not isinstance(verb, str) or not verb:
        raise ProtocolError("request carries no verb")
    args = frame.get("args", {})
    if not isinstance(args, dict):
        raise ProtocolError(f"args must be an object, got {type(args).__name__}")
    return frame.get("id"), verb.upper(), args


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """A success frame echoing the request id."""
    return {"good": PROTOCOL_VERSION, "id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, error: BaseException) -> Dict[str, Any]:
    """A failure frame echoing the request id."""
    return {
        "good": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": error_payload(error),
    }


def decode_response(line: bytes) -> Dict[str, Any]:
    """Client side: parse one response line (shape-checked)."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"response is not valid JSON: {error}") from error
    if not isinstance(frame, dict) or "ok" not in frame:
        raise ProtocolError("response frame carries no 'ok' field")
    if frame.get("good") != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported response protocol version {frame.get('good')!r}")
    return frame


def require_arg(args: Dict[str, Any], key: str, kind: Optional[type] = None) -> Any:
    """Fetch a mandatory verb argument with a structured error."""
    if key not in args:
        raise ProtocolError(f"missing required argument {key!r}")
    value = args[key]
    if kind is not None and not isinstance(value, kind):
        raise ProtocolError(
            f"argument {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value
