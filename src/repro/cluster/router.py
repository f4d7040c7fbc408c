"""The cluster front end: one NDJSON endpoint over many processes.

:class:`RouterServer` speaks exactly the single-server protocol
(:mod:`repro.server.protocol`), so every existing client — GoodClient,
``repro connect``, the benchmarks — works against a cluster unchanged.
Behind the socket each request is routed:

========================  =============================================
verbs                     routed to
========================  =============================================
HELLO PING LIMIT BYE      answered locally (LIMIT state lives here)
USE                       shard owner (validates the name), then local
LIST STATS REPLICA        fanned out to every worker, results merged
CREATE DROP LOAD          shard owner of ``args.name``
RUN UNDO CHECKPOINT       shard owner of the addressed database
EXPLAIN SAVE              shard owner (plan cache / server filesystem)
MATCH QUERY BROWSE EXPORT shard owner, or a caught-up read replica
========================  =============================================

The shard owner is the consistent-hash ring's pick for the database
name; requests travel over per-worker connection pools
(:mod:`repro.cluster.pool`) whose bounded waiting supplies
backpressure.  Because pooled connections are shared by many client
sessions, the router never relies on worker-side session state: every
forwarded request carries an explicit ``db`` and, when the client set
budgets, a per-request ``_limits`` object.

**Read-your-writes.**  Worker RUN/UNDO responses carry the commit's
LSN; the router remembers, per client session and database, the last
LSN that session wrote.  A read may be served by a replica only when
the router's (periodically refreshed) view of that replica shows
``applied[db] >= last_written_lsn`` — the replica publishes versions
before advancing ``applied``, so the pinned snapshot provably contains
the session's own writes.  Sessions that never wrote accept any
replica that knows the database at all; when no replica qualifies the
read conservatively goes to the owner, which is always current.

**STATS.**  Per-worker payloads are requested with raw latency rings
and merged by summing counters and recomputing percentiles over the
union of samples — averaging two p95s is meaningless, merging the
windows is not.  The cluster section adds pool gauges, supervisor
state, and per-replica ``applied``/``lag`` per database.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import GoodError
from repro.cluster.pool import WorkerPool, WorkerUnavailableError
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    encode_frame,
    error_response,
    register_error_code,
    require_arg,
)
from repro.server.stats import percentiles_from_samples

_SESSION_IDS = itertools.count(1)

#: read verbs a caught-up replica may serve
REPLICA_ELIGIBLE = frozenset({"MATCH", "QUERY", "BROWSE", "EXPORT"})
#: verbs routed to the owner of the database they address
DB_VERBS = REPLICA_ELIGIBLE | {"RUN", "UNDO", "CHECKPOINT", "EXPLAIN", "SAVE"}
#: verbs routed to the owner of ``args.name``
CATALOG_VERBS = frozenset({"CREATE", "DROP", "LOAD"})
KNOWN_VERBS = (
    DB_VERBS
    | CATALOG_VERBS
    | {"HELLO", "PING", "USE", "LIMIT", "BYE", "LIST", "STATS", "REPLICA"}
)


class RouterError(GoodError):
    """Router-level misuse (no database selected, unknown verb)."""


register_error_code(RouterError, "ROUTER")


class RouterSession:
    """One client connection's routing state."""

    def __init__(self) -> None:
        self.session_id = next(_SESSION_IDS)
        self.database_name: Optional[str] = None
        #: LIMIT state, shipped per-request as ``_limits`` (pooled
        #: worker connections are shared, so it cannot live over there)
        self.limits: Optional[Dict[str, Any]] = None
        #: db -> LSN of this session's last acknowledged write there
        self.last_lsn: Dict[str, int] = {}
        self.closed = False


class RouterServer:
    """The consistent-hash router in front of workers and replicas.

    Duck-types :class:`~repro.server.server.GoodServer`'s lifecycle
    (``start`` / ``serve_forever`` / ``stop`` / ``address``) so the
    :class:`~repro.server.server.BackgroundServer` harness drives it
    unchanged.
    """

    def __init__(
        self,
        workers: Dict[str, Tuple[str, int]],
        replicas: Optional[Dict[str, Tuple[str, int]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        vnodes: int = DEFAULT_VNODES,
        pool_size: int = 8,
        max_waiting: int = 64,
        refresh_interval: float = 0.05,
        supervisor: Any = None,
    ) -> None:
        if not workers:
            raise RouterError("a router needs at least one worker")
        self.host = host
        self.port = port
        self.ring = HashRing(sorted(workers), vnodes=vnodes)
        self._worker_addresses = dict(workers)
        self._replica_addresses = dict(replicas or {})
        self.pool_size = pool_size
        self.max_waiting = max_waiting
        self.refresh_interval = refresh_interval
        self.supervisor = supervisor
        self.pools: Dict[str, WorkerPool] = {}
        self.replica_pools: Dict[str, WorkerPool] = {}
        #: replica name -> {db: applied LSN}, refreshed in the background
        self.replica_applied: Dict[str, Dict[str, int]] = {}
        self._replica_rr = 0
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._refresh_task: Optional[asyncio.Task] = None
        self.started_at = time.time()
        # routing counters, surfaced in cluster STATS
        self.requests = 0
        self.errors = 0
        self.reads_to_replicas = 0
        self.reads_to_owner = 0
        self.writes = 0
        self.connections_open = 0
        self.connections_total = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("router already started")
        self._loop = asyncio.get_running_loop()
        # pools are created here so their asyncio primitives bind to
        # the serving loop (pre-3.10 they capture a loop at creation)
        self.pools = {
            name: WorkerPool(name, host, port, size=self.pool_size, max_waiting=self.max_waiting)
            for name, (host, port) in self._worker_addresses.items()
        }
        self.replica_pools = {
            name: WorkerPool(name, host, port, size=self.pool_size, max_waiting=self.max_waiting)
            for name, (host, port) in self._replica_addresses.items()
        }
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port, limit=MAX_FRAME_BYTES + 2
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        if self.replica_pools:
            self._refresh_task = asyncio.ensure_future(self._refresh_replicas())
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("router not started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        if self._refresh_task is not None:
            self._refresh_task.cancel()
            try:
                await self._refresh_task
            except asyncio.CancelledError:
                pass
            self._refresh_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for pool in list(self.pools.values()) + list(self.replica_pools.values()):
            pool.close()

    def handle_restart(self, member: Any) -> None:
        """Supervisor callback (runs on the monitor thread): re-point
        the restarted member's pool at its (possibly new) address."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        def retarget() -> None:
            pool = self.pools.get(member.name) or self.replica_pools.get(member.name)
            if pool is not None:
                pool.retarget(member.host, member.port)
            if member.name in self.replica_pools:
                # a restarted replica resyncs from scratch; drop the
                # stale applied view so reads do not trust it early
                self.replica_applied.pop(member.name, None)

        loop.call_soon_threadsafe(retarget)

    # ------------------------------------------------------------------
    # replica catch-up view
    # ------------------------------------------------------------------
    async def _refresh_replicas(self) -> None:
        while True:
            for name, pool in self.replica_pools.items():
                try:
                    response = await pool.call("REPLICA", {})
                except GoodError:
                    self.replica_applied.pop(name, None)
                    continue
                if response.get("ok"):
                    applied = response.get("result", {}).get("applied", {})
                    if isinstance(applied, dict):
                        self.replica_applied[name] = applied
            await asyncio.sleep(self.refresh_interval)

    def _choose_replica(self, db: str, need_lsn: int) -> Optional[WorkerPool]:
        """A replica whose applied LSN for ``db`` covers ``need_lsn``.

        Round-robin across qualifying replicas; a replica that has not
        yet discovered ``db`` at all never qualifies (its applied map
        has no entry), so reads of a fresh CREATE stay on the owner
        until the replica caught up.
        """
        names = list(self.replica_pools)
        if not names:
            return None
        start = self._replica_rr
        self._replica_rr += 1
        for step in range(len(names)):
            name = names[(start + step) % len(names)]
            applied = self.replica_applied.get(name)
            if applied is not None and db in applied and applied[db] >= need_lsn:
                return self.replica_pools[name]
        return None

    # ------------------------------------------------------------------
    # the wire (same accept loop shape as GoodServer)
    # ------------------------------------------------------------------
    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = RouterSession()
        self.connections_open += 1
        self.connections_total += 1
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
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.connections_open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _serve_frame(self, session: RouterSession, line: bytes) -> Dict[str, Any]:
        request_id: Any = None
        self.requests += 1
        try:
            request_id, verb, args = decode_request(line)
            return await self.dispatch(session, request_id, verb, args)
        except Exception as error:
            self.errors += 1
            return error_response(request_id, error)

    def _restamp(self, request_id: Any, response: Dict[str, Any]) -> Dict[str, Any]:
        """A worker's response frame, re-addressed to the client."""
        out = dict(response)
        out["id"] = request_id
        out["good"] = PROTOCOL_VERSION
        return out

    def _ok(self, request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
        return {"good": PROTOCOL_VERSION, "id": request_id, "ok": True, "result": result}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def dispatch(
        self, session: RouterSession, request_id: Any, verb: str, args: Dict[str, Any]
    ) -> Dict[str, Any]:
        if verb == "PING":
            return self._ok(request_id, {"pong": True, "router": True})
        if verb == "HELLO":
            return self._ok(
                request_id,
                {
                    "server": "repro.cluster.router",
                    "protocol": PROTOCOL_VERSION,
                    "session": session.session_id,
                    "cluster": {
                        "workers": len(self.pools),
                        "replicas": len(self.replica_pools),
                    },
                    "databases": await self._merged_list(),
                },
            )
        if verb == "LIMIT":
            return self._ok(request_id, self._set_limits(session, args))
        if verb == "BYE":
            session.closed = True
            return self._ok(request_id, {"bye": True})
        if verb == "LIST":
            return self._ok(request_id, {"databases": await self._merged_list()})
        if verb == "STATS":
            return self._ok(request_id, await self._merged_stats())
        if verb == "REPLICA":
            return self._ok(
                request_id,
                {
                    "replica": False,
                    "router": True,
                    "replicas": {
                        name: dict(applied)
                        for name, applied in self.replica_applied.items()
                    },
                },
            )
        if verb == "USE":
            name = require_arg(args, "name", str)
            response = await self._owner_pool(name).call("USE", {"name": name})
            if response.get("ok"):
                session.database_name = name
            return self._restamp(request_id, response)
        if verb in CATALOG_VERBS:
            name = require_arg(args, "name", str)
            self.writes += 1
            response = await self._owner_pool(name).call(verb, args)
            if verb == "DROP" and response.get("ok"):
                session.last_lsn.pop(name, None)
                if session.database_name == name:
                    session.database_name = None
            return self._restamp(request_id, response)
        if verb in DB_VERBS:
            return await self._dispatch_db(session, request_id, verb, args)
        raise ProtocolError(
            f"unknown verb {verb!r} (known: {', '.join(sorted(KNOWN_VERBS))})"
        )

    async def _dispatch_db(
        self, session: RouterSession, request_id: Any, verb: str, args: Dict[str, Any]
    ) -> Dict[str, Any]:
        db = args.get("db", session.database_name)
        if not isinstance(db, str) or not db:
            raise RouterError("no database selected (USE one first or pass 'db')")
        forwarded = dict(args)
        forwarded["db"] = db
        if session.limits is not None:
            forwarded["_limits"] = session.limits
        if verb in REPLICA_ELIGIBLE:
            need = session.last_lsn.get(db, 0)
            replica = self._choose_replica(db, need)
            if replica is not None:
                try:
                    response = await replica.call(verb, forwarded)
                except WorkerUnavailableError:
                    # the replica died under us: distrust its view and
                    # serve this read from the always-current owner
                    self.replica_applied.pop(replica.name, None)
                else:
                    self.reads_to_replicas += 1
                    return self._restamp(request_id, response)
            self.reads_to_owner += 1
        else:
            self.writes += 1
        response = await self._owner_pool(db).call(verb, forwarded)
        if verb in ("RUN", "UNDO") and response.get("ok"):
            lsn = response.get("result", {}).get("lsn")
            if isinstance(lsn, int):
                session.last_lsn[db] = max(session.last_lsn.get(db, 0), lsn)
        return self._restamp(request_id, response)

    def _owner_pool(self, db: str) -> WorkerPool:
        return self.pools[self.ring.owner(db)]

    def _set_limits(self, session: RouterSession, args: Dict[str, Any]) -> Dict[str, Any]:
        current = session.limits or {"max_matchings": None, "max_call_depth": None}
        matchings = args.get("max_matchings", current["max_matchings"])
        depth = args.get("max_call_depth", current["max_call_depth"])
        for label, value in (("max_matchings", matchings), ("max_call_depth", depth)):
            if value is not None and (not isinstance(value, int) or value < 0):
                raise ProtocolError(f"{label} must be a non-negative integer or null")
        session.limits = {"max_matchings": matchings, "max_call_depth": depth}
        return dict(session.limits)

    # ------------------------------------------------------------------
    # fan-out verbs
    # ------------------------------------------------------------------
    async def _fan_out(
        self, pools: Dict[str, WorkerPool], verb: str, args: Dict[str, Any]
    ) -> Dict[str, Dict[str, Any]]:
        """``{worker: result}`` for every pool that answered ok."""

        async def one(name: str, pool: WorkerPool) -> Tuple[str, Optional[Dict[str, Any]]]:
            try:
                response = await pool.call(verb, dict(args))
            except GoodError:
                return name, None
            if not response.get("ok"):
                return name, None
            return name, response.get("result", {})

        gathered = await asyncio.gather(*(one(n, p) for n, p in pools.items()))
        return {name: result for name, result in gathered if result is not None}

    async def _merged_list(self) -> List[Dict[str, Any]]:
        results = await self._fan_out(self.pools, "LIST", {})
        merged: Dict[str, Dict[str, Any]] = {}
        for result in results.values():
            for entry in result.get("databases", []):
                merged[entry["name"]] = entry
        return [merged[name] for name in sorted(merged)]

    async def _merged_stats(self) -> Dict[str, Any]:
        worker_stats = await self._fan_out(self.pools, "STATS", {"raw": True})
        replica_info = await self._fan_out(self.replica_pools, "REPLICA", {})
        merged_total = _merge_buckets(
            [payload.get("total", {}) for payload in worker_stats.values()]
        )
        databases: Dict[str, Dict[str, Any]] = {}
        owner_lsn: Dict[str, int] = {}
        for worker, payload in sorted(worker_stats.items()):
            for name, bucket in payload.get("databases", {}).items():
                out = _merge_buckets([bucket])
                out["worker"] = worker
                if "snapshots" in bucket:
                    out["snapshots"] = bucket["snapshots"]
                if "lsn" in bucket:
                    out["lsn"] = bucket["lsn"]
                    owner_lsn[name] = bucket["lsn"]
                databases[name] = out
        replicas: Dict[str, Any] = {}
        for name, info in sorted(replica_info.items()):
            applied = info.get("applied", {})
            replicas[name] = {
                "applied": applied,
                # lag in LSNs behind each database's owner; the gauge a
                # capacity dashboard actually watches
                "lag": {
                    db: max(0, owner_lsn.get(db, lsn) - lsn)
                    for db, lsn in applied.items()
                },
                "polls": info.get("polls"),
                "records_applied": info.get("records_applied"),
                "resyncs": info.get("resyncs"),
            }
        cluster = {
            "workers": {
                name: {
                    **pool.gauges(),
                    "uptime_s": worker_stats.get(name, {}).get("uptime_s"),
                    "reachable": name in worker_stats,
                }
                for name, pool in sorted(self.pools.items())
            },
            "replicas": replicas,
            "router": {
                "requests": self.requests,
                "errors": self.errors,
                "writes": self.writes,
                "reads_to_replicas": self.reads_to_replicas,
                "reads_to_owner": self.reads_to_owner,
            },
        }
        if self.supervisor is not None:
            cluster["members"] = self.supervisor.describe()
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "cluster": cluster,
            "connections": {
                "open": self.connections_open,
                "total": self.connections_total,
            },
            "queue_depth": sum(p.gauges()["waiting"] for p in self.pools.values()),
            "running": sum(p.gauges()["in_flight"] for p in self.pools.values()),
            "total": merged_total,
            "databases": {name: databases[name] for name in sorted(databases)},
        }


#: keys excluded from the summing merge (windows, gauges, markers)
_NON_COUNTER_KEYS = frozenset(
    {"latency", "lock_wait", "latency_raw_ms", "lock_wait_raw_ms", "snapshots", "lsn", "worker"}
)


def _merge_buckets(buckets: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-process stats buckets: sum the counters, recompute the
    latency percentiles over the union of the raw rings."""
    merged: Dict[str, Any] = {}
    latency: List[float] = []
    lock_wait: List[float] = []
    for bucket in buckets:
        for key, value in bucket.items():
            if key in _NON_COUNTER_KEYS:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
        latency.extend(bucket.get("latency_raw_ms") or [])
        lock_wait.extend(bucket.get("lock_wait_raw_ms") or [])
    merged["latency"] = percentiles_from_samples(latency)
    merged["lock_wait"] = percentiles_from_samples(lock_wait)
    return merged


__all__ = [
    "RouterServer",
    "RouterSession",
    "RouterError",
    "REPLICA_ELIGIBLE",
    "DB_VERBS",
    "CATALOG_VERBS",
]
