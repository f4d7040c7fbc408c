"""A blocking socket client for the GOOD server.

Usable from tests, scripts and the ``repro connect`` REPL without any
asyncio on the caller's side::

    with GoodClient("127.0.0.1", 2590) as client:
        client.use("library")
        client.run("addnode Person() {}")
        for matching in client.match("{ p: Person }")["matchings"]:
            print(matching["p"])

Every call sends one request frame and blocks for its response.  A
failure response raises :class:`RemoteError`, which carries the
structured payload (``code``, ``error_type``, ``details``) so callers
can dispatch on stable codes rather than message text.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from typing import Any, Dict, Optional

from repro.core.errors import GoodError
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_response,
    encode_frame,
)

#: RemoteError codes worth retrying: the failure is in the transport or
#: a crashed cluster member, not in the request itself.
TRANSIENT_ERROR_CODES = frozenset({"WORKER_UNAVAILABLE"})


class RemoteError(GoodError):
    """A structured error response from the server."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.code = payload.get("code", "INTERNAL")
        self.error_type = payload.get("type", "")
        self.details = payload.get("details", {})
        message = payload.get("message", "")
        super().__init__(f"[{self.code}] {message}")
        self.remote_message = message


class GoodClient:
    """One blocking connection to a :class:`~repro.server.GoodServer`.

    ``retries`` (default 0 — off) enables bounded reconnect-and-resend
    on *transient* failures: connection refused/reset/broken-pipe, an
    EOF mid-response, or a structured ``WORKER_UNAVAILABLE`` error from
    a cluster router whose shard worker died mid-request.  Each attempt
    sleeps ``backoff * 2^attempt``, jittered ±50%, before reconnecting
    — the jitter keeps a thundering herd of clients from re-arriving in
    lockstep while a crashed worker restarts.

    Caveat worth knowing: a retried ``RUN`` whose first attempt died
    *after* the server committed re-applies the program.  The server's
    runs are atomic either way; callers for whom duplicate application
    matters should keep retries off for writes (the default).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 60.0,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        #: transient failures survived (observable in tests)
        self.retries_used = 0
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> "GoodClient":
        """Open the TCP connection (idempotent)."""
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        """Close the connection (idempotent; best-effort ``BYE``)."""
        if self._sock is None:
            return
        try:
            self._sock.sendall(encode_frame(self._frame("BYE", {})))
        except OSError:
            pass
        try:
            self._file.close()
            self._sock.close()
        finally:
            self._sock = None
            self._file = None

    def __enter__(self) -> "GoodClient":
        return self.connect()

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------
    def _frame(self, verb: str, args: Dict[str, Any]) -> Dict[str, Any]:
        return {"good": PROTOCOL_VERSION, "id": next(self._ids), "verb": verb, "args": args}

    def call(self, verb: str, **args: Any) -> Dict[str, Any]:
        """One request/response round trip; returns the ``result``.

        With ``retries > 0``, transient transport failures tear the
        connection down, back off with jitter, reconnect and resend —
        up to ``retries`` times before the error propagates.
        """
        attempt = 0
        while True:
            try:
                return self._call_once(verb, args)
            except Exception as error:
                if attempt >= self.retries or not self._is_transient(error):
                    raise
                attempt += 1
                self.retries_used += 1
                self._teardown()
                delay = self.backoff * (2 ** (attempt - 1))
                time.sleep(delay * (0.5 + random.random()))

    def _call_once(self, verb: str, args: Dict[str, Any]) -> Dict[str, Any]:
        self.connect()
        frame = self._frame(verb, args)
        self._sock.sendall(encode_frame(frame))
        line = self._file.readline()
        if not line:
            # surface EOF as a reset so the retry machinery and callers
            # treat a died-mid-response server like a refused connect
            raise ConnectionResetError("connection closed by the server")
        response = decode_response(line)
        if response.get("id") != frame["id"]:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match request id {frame['id']!r}"
            )
        if not response["ok"]:
            raise RemoteError(response.get("error", {}))
        return response.get("result", {})

    @staticmethod
    def _is_transient(error: BaseException) -> bool:
        if isinstance(
            error,
            (
                ConnectionRefusedError,
                ConnectionResetError,
                ConnectionAbortedError,
                BrokenPipeError,
            ),
        ):
            return True
        return isinstance(error, RemoteError) and error.code in TRANSIENT_ERROR_CODES

    def _teardown(self) -> None:
        """Drop the connection without the BYE courtesy (it is dead)."""
        if self._sock is None:
            return
        try:
            self._file.close()
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        finally:
            self._sock = None
            self._file = None

    # ------------------------------------------------------------------
    # convenience verbs
    # ------------------------------------------------------------------
    def hello(self) -> Dict[str, Any]:
        return self.call("HELLO")

    def ping(self) -> bool:
        return bool(self.call("PING").get("pong"))

    def list(self) -> Dict[str, Any]:
        return self.call("LIST")

    def use(self, name: str) -> Dict[str, Any]:
        return self.call("USE", name=name)

    def create(
        self,
        name: str,
        scheme: Optional[Dict[str, Any]] = None,
        instance: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        args: Dict[str, Any] = {"name": name}
        if scheme is not None:
            args["scheme"] = scheme
        if instance is not None:
            args["instance"] = instance
        return self.call("CREATE", **args)

    def drop(self, name: str) -> Dict[str, Any]:
        return self.call("DROP", name=name)

    def load(self, name: str, path: str) -> Dict[str, Any]:
        return self.call("LOAD", name=name, path=path)

    def run(self, program: str, db: Optional[str] = None) -> Dict[str, Any]:
        return self.call("RUN", program=program, **({"db": db} if db else {}))

    def query(self, program: str, db: Optional[str] = None) -> Dict[str, Any]:
        return self.call("QUERY", program=program, **({"db": db} if db else {}))

    def match(
        self, pattern: str, limit: Optional[int] = None, db: Optional[str] = None
    ) -> Dict[str, Any]:
        args: Dict[str, Any] = {"pattern": pattern}
        if limit is not None:
            args["limit"] = limit
        if db:
            args["db"] = db
        return self.call("MATCH", **args)

    def explain(self, pattern: str, db: Optional[str] = None) -> Dict[str, Any]:
        return self.call("EXPLAIN", pattern=pattern, **({"db": db} if db else {}))

    def browse(self, node: int, hops: int = 1, db: Optional[str] = None) -> Dict[str, Any]:
        return self.call("BROWSE", node=node, hops=hops, **({"db": db} if db else {}))

    def export(self, db: Optional[str] = None) -> Dict[str, Any]:
        return self.call("EXPORT", **({"db": db} if db else {}))

    def save(self, path: str, db: Optional[str] = None) -> Dict[str, Any]:
        return self.call("SAVE", path=path, **({"db": db} if db else {}))

    def undo(self, db: Optional[str] = None) -> Dict[str, Any]:
        return self.call("UNDO", **({"db": db} if db else {}))

    def checkpoint(self, db: Optional[str] = None) -> Dict[str, Any]:
        """Force a checkpoint: snapshot to disk, truncate the WAL."""
        return self.call("CHECKPOINT", **({"db": db} if db else {}))

    def limit(
        self,
        max_matchings: Optional[int] = None,
        max_call_depth: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Set this session's budgets; omitted budgets are unchanged.

        With no arguments this just reports the current budgets.
        """
        args: Dict[str, Any] = {}
        if max_matchings is not None:
            args["max_matchings"] = max_matchings
        if max_call_depth is not None:
            args["max_call_depth"] = max_call_depth
        return self.call("LIMIT", **args)

    def stats(self) -> Dict[str, Any]:
        return self.call("STATS")
