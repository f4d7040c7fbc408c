"""Serving GOOD databases over the network.

The paper sketches GOOD as an *implementable* end-user database model
(Section 5); this package is the database-management half: a concurrent
TCP server exposing the transactional core of :mod:`repro.txn` to many
clients at once.

* :mod:`repro.server.protocol` — versioned newline-delimited JSON
  frames with structured error codes;
* :mod:`repro.server.catalog`  — named databases on the native graph
  store, import/export via :mod:`repro.io` (Section 5's relational
  and Tarski engines are library code, not served);
* :mod:`repro.server.locks`    — per-database writer mutexes and
  bounded admission control;
* :mod:`repro.server.session`  — per-connection verb dispatch with
  per-session resource budgets;
* :mod:`repro.server.stats`    — live counters and latency percentiles
  behind the ``STATS`` verb;
* :mod:`repro.server.server`   — the asyncio server plus a
  background-thread harness;
* :mod:`repro.server.client`   — a blocking socket client.

CLI entry points: ``repro serve`` and ``repro connect``.
"""

from repro.server.catalog import Catalog, CatalogError, ServedDatabase, UnknownDatabaseError
from repro.server.client import GoodClient, RemoteError
from repro.server.locks import AdmissionController, AdmissionError
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    decode_response,
    encode_frame,
    error_code,
    error_payload,
    error_response,
    ok_response,
)
from repro.server.server import BackgroundServer, GoodServer
from repro.server.session import ServerSession
from repro.server.stats import DatabaseStats, LatencyRing, ServerStats

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "BackgroundServer",
    "Catalog",
    "CatalogError",
    "DatabaseStats",
    "GoodClient",
    "GoodServer",
    "LatencyRing",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "ServedDatabase",
    "ServerSession",
    "ServerStats",
    "UnknownDatabaseError",
    "decode_request",
    "decode_response",
    "encode_frame",
    "error_code",
    "error_payload",
    "error_response",
    "ok_response",
]
