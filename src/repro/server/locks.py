"""Concurrency core: the per-database writer mutex and admission control.

*Queries* (``MATCH``, ``QUERY``, ``EXPLAIN``, ``BROWSE``, ``EXPORT``,
``SAVE``) take **no lock at all**: they pin an immutable snapshot
version (:mod:`repro.mvcc`) and run against it.  Only *program runs*
and catalog mutations (``RUN``, ``UNDO``, ``CHECKPOINT``, ``CREATE``,
``DROP``, ``LOAD``) serialize, on the :class:`WriteMutex` — a plain
writer-only mutex.

No client can observe a torn intermediate state: an atomic run only
ever commits or fully rolls back (the :mod:`repro.txn` guarantee), and
a version is only published *after* a commit completes, under the
writer's mutex.

:class:`AdmissionController` bounds the work the server accepts: at
most ``max_concurrent`` requests execute at once, at most ``max_queue``
wait; past that, requests are refused immediately with
:class:`AdmissionError` (wire code ``OVERLOADED``) rather than piling
up latency.  ``queue_depth`` feeds the ``STATS`` verb.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import AsyncIterator, Optional

from repro.core.errors import GoodError
from repro.server.protocol import register_error_code


class AdmissionError(GoodError):
    """The server is saturated; the request was refused, not queued."""


register_error_code(AdmissionError, "OVERLOADED")


class WriteMutex:
    """The per-database lock: writers exclusive, readers absent.

    There is deliberately no ``read_locked`` — a read that asks for a
    lock is a bug, and it fails loudly here.
    """

    def __init__(self) -> None:
        self._lock = asyncio.Lock()

    @asynccontextmanager
    async def write_locked(self, timeout: Optional[float] = None) -> AsyncIterator[None]:
        """Hold the writer mutex for the block; ``timeout`` bounds the wait."""
        await _acquire(self._lock.acquire(), timeout)
        try:
            yield
        finally:
            self._lock.release()

    @property
    def state(self) -> str:
        """Debugging/stats snapshot: ``idle`` or ``w``."""
        return "w" if self._lock.locked() else "idle"


async def _acquire(waiter, timeout: Optional[float]) -> None:
    if timeout is None:
        await waiter
        return
    try:
        await asyncio.wait_for(waiter, timeout)
    except asyncio.TimeoutError:
        raise TimeoutError(
            f"timed out after {timeout:g}s waiting for the write lock"
        ) from None


class AdmissionController:
    """Bounded concurrency + bounded queue, refuse-don't-collapse."""

    def __init__(self, max_concurrent: int = 8, max_queue: int = 64) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self._slots = asyncio.Semaphore(max_concurrent)
        self._queued = 0
        self._running = 0
        self.admitted_total = 0
        self.rejected_total = 0

    @property
    def queue_depth(self) -> int:
        """Requests admitted but waiting for an execution slot."""
        return self._queued

    @property
    def running(self) -> int:
        """Requests currently holding an execution slot."""
        return self._running

    @asynccontextmanager
    async def admit(self) -> AsyncIterator[None]:
        """Hold one execution slot for the block, or refuse at once."""
        if self._queued >= self.max_queue:
            self.rejected_total += 1
            raise AdmissionError(
                f"server saturated: {self._running} running, "
                f"{self._queued} queued (queue limit {self.max_queue})"
            )
        self._queued += 1
        try:
            await self._slots.acquire()
        finally:
            self._queued -= 1
        self._running += 1
        self.admitted_total += 1
        try:
            yield
        finally:
            self._running -= 1
            self._slots.release()
