"""The asyncio TCP server and its background-thread harness.

:class:`GoodServer` accepts newline-delimited JSON frames
(:mod:`repro.server.protocol`), admits each request through the bounded
:class:`~repro.server.locks.AdmissionController`, dispatches it via the
connection's :class:`~repro.server.session.ServerSession` (which pins
a snapshot for reads and takes the per-database writer mutex for
writes) and runs the actual GOOD work on a thread pool so concurrent
readers make progress while the event loop keeps accepting connections.

Isolation argument, in one paragraph: writers hold the database's
:class:`~repro.server.locks.WriteMutex` for the whole atomic run and
publish an immutable snapshot version only after the commit completes;
readers pin a published version and never touch a lock.  The
:mod:`repro.txn` layer guarantees a failed run restores the exact
pre-run state before the mutex is released — so every reader observes
either the pre-run or the post-commit state, never a torn intermediate
one.

:class:`BackgroundServer` runs a :class:`GoodServer` on its own event
loop in a daemon thread — the harness tests, benchmarks and
``examples/server_demo.py`` use to serve and connect from one process.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from repro.server.catalog import Catalog
from repro.server.locks import AdmissionController, WriteMutex
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_request,
    encode_frame,
    error_response,
    ok_response,
)
from repro.server.session import ServerSession
from repro.server.stats import ServerStats
from repro.txn.guards import ResourceLimits, limits as guard_limits

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 2590  # PODS 1990, backwards


class GoodServer:
    """One catalog of GOOD databases, served over TCP."""

    #: Per-connection session type; the cluster's replica server swaps
    #: in a read-only subclass without touching the accept loop.
    session_class = ServerSession

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
        *,
        max_concurrent: int = 8,
        max_queue: int = 64,
        max_workers: Optional[int] = None,
        lock_timeout: float = 30.0,
        default_limits: Optional[ResourceLimits] = None,
        ring_capacity: int = 1024,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        self.host = host
        self.port = port
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.max_workers = max_workers if max_workers is not None else max_concurrent
        self.lock_timeout = lock_timeout
        self.default_limits = default_limits if default_limits is not None else ResourceLimits()
        self.stats = ServerStats(ring_capacity)
        self.address: Optional[Tuple[str, int]] = None
        # asyncio primitives are created in start() so they bind to the
        # serving loop (pre-3.10 primitives capture a loop at creation)
        self.admission: Optional[AdmissionController] = None
        self.catalog_lock: Optional[asyncio.Lock] = None
        self._locks: Dict[str, WriteMutex] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self.admission = AdmissionController(self.max_concurrent, self.max_queue)
        self.catalog_lock = asyncio.Lock()
        self._locks = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="good-worker"
        )
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port, limit=MAX_FRAME_BYTES + 2
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        """Block serving until cancelled or :meth:`stop` is called."""
        if self._server is None:
            raise RuntimeError("server not started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Stop accepting and release the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # session plumbing
    # ------------------------------------------------------------------
    def lock_for(self, name: str) -> WriteMutex:
        """The (lazily created) per-database writer mutex."""
        lock = self._locks.get(name)
        if lock is None:
            lock = self._locks[name] = WriteMutex()
        return lock

    async def run_blocking(
        self, fn: Callable[[], Any], limits: Optional[ResourceLimits] = None
    ) -> Any:
        """Run ``fn`` on the worker pool, budgets armed in-thread."""
        if limits is not None and (
            limits.max_matchings is not None or limits.max_call_depth is not None
        ):
            budgets = limits

            def work() -> Any:
                with guard_limits(budgets.max_matchings, budgets.max_call_depth):
                    return fn()

        else:
            work = fn
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, work)

    def stats_snapshot(self, raw: bool = False) -> Dict[str, Any]:
        """The ``STATS`` payload, including live admission state and the
        per-database snapshot-registry gauges."""
        admission = self.admission
        payload = self.stats.snapshot(
            queue_depth=admission.queue_depth if admission else 0,
            running=admission.running if admission else 0,
            raw=raw,
        )
        for name in self.catalog.names():
            try:
                database = self.catalog.get(name)
            except Exception:  # racing a DROP
                continue
            bucket = payload["databases"].get(name)
            if bucket is None:
                # a database nobody has queried yet still reports gauges
                bucket = payload["databases"][name] = self.stats.database(name).snapshot(raw=raw)
            bucket["snapshots"] = database.snapshots.gauges()
            if database.durability is not None:
                bucket["lsn"] = database.durability.lsn
            if database.session is not None:
                # columnar memory gauges (native stores account their
                # own resident columns)
                store = database.session.instance.store
                if hasattr(store, "store_bytes"):
                    bucket["store_bytes"] = store.store_bytes()
        from repro.graph.columns import LABELS

        payload["intern_table_size"] = len(LABELS)
        payload["intern_table_bytes"] = LABELS.table_bytes()
        return payload

    def replication_info(self) -> Dict[str, Any]:
        """The ``REPLICA`` payload; the replica server overrides this."""
        return {"replica": False}

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------
    async def _on_connect(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        session = self.session_class(self)
        self.stats.connections_open += 1
        self.stats.connections_total += 1
        try:
            while not session.closed:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    oversized = ProtocolError(
                        f"frame exceeds the {MAX_FRAME_BYTES} byte limit"
                    )
                    writer.write(encode_frame(error_response(None, oversized)))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._serve_frame(session, line)
                writer.write(encode_frame(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # client vanished
            pass
        finally:
            self.stats.connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass  # connection teardown racing server shutdown

    async def _serve_frame(self, session: ServerSession, line: bytes) -> Dict[str, Any]:
        request_id: Any = None
        database: Optional[str] = None
        failed = False
        started = time.perf_counter()
        try:
            request_id, verb, args = decode_request(line)
            async with self.admission.admit():
                result, database = await session.dispatch(verb, args)
            response = ok_response(request_id, result)
        except Exception as error:
            failed = True
            response = error_response(request_id, error)
        elapsed = time.perf_counter() - started
        if database is not None and database not in self.catalog:
            database = None  # e.g. the verb was DROP
        self.stats.record(database, elapsed, error=failed)
        return response


class BackgroundServer:
    """A :class:`GoodServer` on its own loop in a daemon thread."""

    def __init__(self, server: GoodServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # surface bind failures to start()
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._shutdown.wait()
        await self.server.stop()

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Start serving; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("background server already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name="good-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start within the timeout")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        assert self.server.address is not None
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the server down and join the thread."""
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
