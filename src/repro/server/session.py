"""Per-connection server sessions: verb dispatch, locking, budgets.

A :class:`ServerSession` lives for one TCP connection.  It tracks the
client's current database (``USE``), its resource budgets (``LIMIT``,
seeded from the server defaults) and routes each verb through the
right concurrency discipline:

========  ==================  ==================================
mode      lock                runs where
========  ==================  ==================================
local     none                event loop (cheap, metadata only)
read      none                worker thread, budgets armed,
                              against a pinned snapshot version
write     write               worker thread, budgets armed
catalog   catalog mutex +     worker thread
          database write
========  ==================  ==================================

A read verb never waits for any lock: it pins the database's current
published version
(:meth:`~repro.server.catalog.ServedDatabase.read_view`) and executes
against that immutable snapshot, releasing the pin when done.  A RUN
committing concurrently publishes a *new* version; the in-flight read
keeps seeing its own.

Budgets are armed *inside the worker thread* via
:func:`repro.txn.guards.limits` — the guard stacks are thread-local, so
one session's budget never charges another session's work.  A budget
overrun surfaces as a structured ``RESOURCE_LIMIT`` error; because runs
are atomic, the database state is untouched.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core import counters as _counters
from repro.server import protocol
from repro.server.catalog import ServedDatabase, require_native
from repro.server.protocol import ProtocolError, require_arg
from repro.txn.guards import ResourceLimits
from repro.wal.record import WalError

_SESSION_IDS = itertools.count(1)

#: verb -> (handler name, mode)
VERBS: Dict[str, Tuple[str, str]] = {}


def _verb(name: str, mode: str) -> Callable[[Callable], Callable]:
    def register(handler: Callable) -> Callable:
        VERBS[name] = (handler.__name__, mode)
        return handler

    return register


def _report_json(report: Any) -> Dict[str, Any]:
    return {
        "operation": report.operation,
        "matchings": report.matching_count,
        "nodes_added": len(report.nodes_added),
        "nodes_removed": len(report.nodes_removed),
        "edges_added": len(report.edges_added),
        "edges_removed": len(report.edges_removed),
        "summary": report.summary(),
    }


def _txn_charges(tally: Any) -> Dict[str, int]:
    """The transaction-layer slice of a counters tally, for STATS."""
    return {
        "txn_journal_entries": tally.txn_journal_entries,
        "txn_snapshot_captures": tally.txn_snapshot_captures,
        "txn_rollbacks": tally.txn_rollbacks,
        "txn_bytes_avoided": tally.txn_bytes_avoided,
    }


def _attach_charges(error: BaseException, charges: Dict[str, int]) -> None:
    """Stash stats charges on a failing request's exception."""
    try:
        error._charges = charges
    except AttributeError:  # pragma: no cover - exceptions with __slots__
        pass


class ServerSession:
    """One client's view of the server."""

    def __init__(self, server: Any) -> None:
        self.server = server
        self.catalog = server.catalog
        self.session_id = next(_SESSION_IDS)
        self.database_name: Optional[str] = None
        self.limits: ResourceLimits = server.default_limits
        self.closed = False

    def _request_limits(self, args: Dict[str, Any]) -> ResourceLimits:
        """The budgets for one request.

        A cluster router multiplexes many client sessions over a pooled
        worker connection, so ``LIMIT``-style per-connection state cannot
        carry the budgets; the router instead injects them per request as
        an ``_limits`` object, which overrides this connection's budgets
        for that request only.
        """
        override = args.pop("_limits", None)
        if override is None:
            return self.limits
        if not isinstance(override, dict):
            raise ProtocolError("_limits must be an object")
        matchings = override.get("max_matchings")
        depth = override.get("max_call_depth")
        for label, value in (("max_matchings", matchings), ("max_call_depth", depth)):
            if value is not None and (not isinstance(value, int) or value < 0):
                raise ProtocolError(f"_limits.{label} must be a non-negative integer or null")
        return ResourceLimits(max_matchings=matchings, max_call_depth=depth)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def dispatch(self, verb: str, args: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[str]]:
        """Run one verb; returns ``(result, database_name_for_stats)``."""
        entry = VERBS.get(verb)
        if entry is None:
            raise ProtocolError(f"unknown verb {verb!r} (known: {', '.join(sorted(VERBS))})")
        handler_name, mode = entry
        handler = getattr(self, handler_name)
        server = self.server
        if mode == "local":
            return handler(args), self.database_name
        if mode == "catalog":
            name = require_arg(args, "name", str)
            wait_started = time.perf_counter()
            async with server.catalog_lock:
                async with server.lock_for(name).write_locked(server.lock_timeout):
                    # a database that does not exist (yet) gets no stats
                    # bucket: the wait still counts towards the totals
                    server.stats.record_lock_wait(
                        name if name in self.catalog else None,
                        time.perf_counter() - wait_started,
                    )
                    result = await server.run_blocking(lambda: handler(args))
        elif mode == "read":
            name = args.get("db", self.database_name)
            if not isinstance(name, str) or not name:
                raise ProtocolError("no database selected (USE one first or pass 'db')")
            limits = self._request_limits(args)
            database = self.catalog.get(name)
            # pin the current version and run against it — no lock of
            # any kind, so a long query never delays a writer (and vice
            # versa)
            reader = database.read_view()
            try:
                result = await server.run_blocking(
                    lambda: handler(reader, args), limits=limits
                )
            except Exception as error:
                error_charges = dict(getattr(error, "_charges", None) or {})
                if error_charges:
                    server.stats.charge(name, **error_charges)
                raise
            finally:
                reader.release()
        else:
            name = args.get("db", self.database_name)
            if not isinstance(name, str) or not name:
                raise ProtocolError("no database selected (USE one first or pass 'db')")
            limits = self._request_limits(args)
            database = self.catalog.get(name)
            ticket = None
            checkpoint_job = None
            wait_started = time.perf_counter()
            async with server.lock_for(name).write_locked(server.lock_timeout):
                server.stats.record_lock_wait(name, time.perf_counter() - wait_started)
                try:
                    result = await server.run_blocking(
                        lambda: handler(database, args), limits=limits
                    )
                except Exception as error:
                    error_charges = dict(getattr(error, "_charges", None) or {})
                    if getattr(error, "failure_report", None) is not None:
                        error_charges["rollbacks"] = error_charges.get("rollbacks", 0) + 1
                    if error_charges:
                        server.stats.charge(name, **error_charges)
                    raise
                ticket = result.pop("_durability", None)
                checkpoint_job = result.pop("_checkpoint_job", None)
            # durability gate: acknowledge only once the commit record
            # is fsynced.  Waiting AFTER the write lock is released is
            # what lets concurrent commits coalesce into one group fsync
            if ticket is not None:
                try:
                    if ticket.done:
                        ticket.wait(0)
                    else:
                        await server.run_blocking(ticket.wait)
                except Exception:
                    raise
                except BaseException as error:
                    # simulated-crash failures derive from BaseException
                    # so journals can't swallow them; surface them to
                    # the client as a structured WAL error instead of
                    # tearing down the event loop
                    raise WalError(f"commit is not durable: {error}") from error
            # checkpoint streaming happens here, *after* the write lock
            # is released: the checkpoint reads from a version pinned at
            # rotation time, so writers proceed while it serializes
            if checkpoint_job is not None:
                info = await server.run_blocking(checkpoint_job.stream)
                if result.pop("_checkpoint_merge", False):
                    result.update(info)
                if database.durability is not None:
                    extra = database.durability.drain_charges()
                    if extra:
                        server.stats.charge(name, **extra)
        charges = result.pop("_charges", None)
        if charges:
            server.stats.charge(name, **charges)
        return result, name

    # ------------------------------------------------------------------
    # local verbs (event loop, no lock)
    # ------------------------------------------------------------------
    @_verb("HELLO", "local")
    def _hello(self, args: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "server": "repro.server",
            "protocol": protocol.PROTOCOL_VERSION,
            "session": self.session_id,
            "databases": self.catalog.describe(),
        }

    @_verb("PING", "local")
    def _ping(self, args: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    @_verb("LIST", "local")
    def _list(self, args: Dict[str, Any]) -> Dict[str, Any]:
        return {"databases": self.catalog.describe()}

    @_verb("USE", "local")
    def _use(self, args: Dict[str, Any]) -> Dict[str, Any]:
        name = require_arg(args, "name", str)
        database = self.catalog.get(name)
        self.database_name = name
        return {"using": database.describe()}

    @_verb("LIMIT", "local")
    def _limit(self, args: Dict[str, Any]) -> Dict[str, Any]:
        matchings = args.get("max_matchings", self.limits.max_matchings)
        depth = args.get("max_call_depth", self.limits.max_call_depth)
        for label, value in (("max_matchings", matchings), ("max_call_depth", depth)):
            if value is not None and (not isinstance(value, int) or value < 0):
                raise ProtocolError(f"{label} must be a non-negative integer or null")
        self.limits = ResourceLimits(max_matchings=matchings, max_call_depth=depth)
        return {"max_matchings": matchings, "max_call_depth": depth}

    @_verb("STATS", "local")
    def _stats(self, args: Dict[str, Any]) -> Dict[str, Any]:
        return self.server.stats_snapshot(raw=bool(args.get("raw")))

    @_verb("REPLICA", "local")
    def _replica(self, args: Dict[str, Any]) -> Dict[str, Any]:
        return self.server.replication_info()

    @_verb("BYE", "local")
    def _bye(self, args: Dict[str, Any]) -> Dict[str, Any]:
        self.closed = True
        return {"bye": True}

    # ------------------------------------------------------------------
    # catalog verbs (catalog mutex + write lock)
    # ------------------------------------------------------------------
    @_verb("CREATE", "catalog")
    def _create(self, args: Dict[str, Any]) -> Dict[str, Any]:
        name = require_arg(args, "name", str)
        require_native(args.get("backend", "native"))
        database = self.catalog.create(
            name,
            scheme_data=args.get("scheme"),
            instance_data=args.get("instance"),
        )
        return {"created": database.describe()}

    @_verb("DROP", "catalog")
    def _drop(self, args: Dict[str, Any]) -> Dict[str, Any]:
        name = require_arg(args, "name", str)
        self.catalog.drop(name)
        self.server.stats.forget_database(name)
        if self.database_name == name:
            self.database_name = None
        return {"dropped": name}

    @_verb("LOAD", "catalog")
    def _load(self, args: Dict[str, Any]) -> Dict[str, Any]:
        name = require_arg(args, "name", str)
        path = require_arg(args, "path", str)
        require_native(args.get("backend", "native"))
        database = self.catalog.load_file(name, path)
        return {"loaded": database.describe()}

    # ------------------------------------------------------------------
    # write verbs (exclusive)
    # ------------------------------------------------------------------
    @_verb("RUN", "write")
    def _run(self, database: ServedDatabase, args: Dict[str, Any]) -> Dict[str, Any]:
        source = require_arg(args, "program", str)
        # if this run trips the auto-checkpoint threshold, hand the
        # streaming half of the checkpoint back to dispatch so it runs
        # after the write lock is released
        database._defer_checkpoints = True
        # the handler runs wholly inside one worker thread, so the
        # thread-local collector sees exactly this request's work
        with _counters.collect() as tally:
            try:
                reports = database.run_program(source)
            except Exception as error:
                # the request fails, but the transaction work (journal
                # entries, the rollback itself) must still reach STATS;
                # dispatch picks these up from the exception
                _attach_charges(error, _txn_charges(tally))
                raise
        nodes, edges = database.counts()
        wal_charges = (
            database.durability.drain_charges() if database.durability is not None else {}
        )
        return {
            "reports": [_report_json(report) for report in reports],
            "nodes": nodes,
            "edges": edges,
            # the LSN of this very commit (None without a data dir): a
            # cluster router records it per session so replica reads can
            # guarantee read-your-writes
            "lsn": database.last_commit_lsn if database.durability is not None else None,
            "_durability": database.take_ticket(),
            "_checkpoint_job": database.take_checkpoint_job(),
            "_charges": {
                **wal_charges,
                "runs": 1,
                "operations_applied": len(reports),
                "matchings_enumerated": sum(r.matching_count for r in reports),
                "full_matchings": tally.full_matchings,
                "delta_matchings": tally.delta_matchings,
                "fixpoint_rounds": tally.rounds,
                "fixpoint_runs": tally.fixpoint_runs,
                "plan_cache_hits": tally.plan_cache_hits,
                "plan_cache_misses": tally.plan_cache_misses,
                "index_probes": tally.index_probes,
                "index_builds": tally.index_builds,
                "leapfrog_seeks": tally.leapfrog_seeks,
                "intersections": tally.intersections,
                **_txn_charges(tally),
            },
        }

    @_verb("UNDO", "write")
    def _undo(self, database: ServedDatabase, args: Dict[str, Any]) -> Dict[str, Any]:
        # an UNDO is a commit: it may trip the auto-checkpoint like RUN
        database._defer_checkpoints = True
        nodes, edges = database.undo()
        payload: Dict[str, Any] = {"nodes": nodes, "edges": edges}
        if database.durability is not None:
            payload["lsn"] = database.last_commit_lsn
            payload["_durability"] = database.take_ticket()
            payload["_checkpoint_job"] = database.take_checkpoint_job()
            payload["_charges"] = database.durability.drain_charges()
        return payload

    @_verb("CHECKPOINT", "write")
    def _checkpoint(self, database: ServedDatabase, args: Dict[str, Any]) -> Dict[str, Any]:
        # only the rotation happens under the write lock; dispatch
        # streams the checkpoint image from the pinned snapshot after
        # releasing it, and merges the stream report into the response
        job = database.checkpoint_begin()
        return {
            "_checkpoint_job": job,
            "_checkpoint_merge": True,
            "_charges": database.durability.drain_charges(),
        }

    # ------------------------------------------------------------------
    # read verbs (shared)
    # ------------------------------------------------------------------
    @_verb("QUERY", "read")
    def _query(self, database: ServedDatabase, args: Dict[str, Any]) -> Dict[str, Any]:
        source = require_arg(args, "program", str)
        with _counters.collect() as tally:
            reports, (nodes, edges) = database.query_program(source)
        return {
            "reports": [_report_json(report) for report in reports],
            "result_nodes": nodes,
            "result_edges": edges,
            "_charges": {
                "queries": 1,
                "matchings_enumerated": sum(r.matching_count for r in reports),
                "full_matchings": tally.full_matchings,
                "delta_matchings": tally.delta_matchings,
                "fixpoint_rounds": tally.rounds,
                "fixpoint_runs": tally.fixpoint_runs,
                "plan_cache_hits": tally.plan_cache_hits,
                "plan_cache_misses": tally.plan_cache_misses,
                "index_probes": tally.index_probes,
                "index_builds": tally.index_builds,
                "leapfrog_seeks": tally.leapfrog_seeks,
                "intersections": tally.intersections,
                **_txn_charges(tally),
            },
        }

    @_verb("MATCH", "read")
    def _match(self, database: ServedDatabase, args: Dict[str, Any]) -> Dict[str, Any]:
        source = require_arg(args, "pattern", str)
        limit = args.get("limit")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise ProtocolError("limit must be a non-negative integer or null")
        with _counters.collect() as tally:
            found = database.matchings(source, limit=limit)
        found["_charges"] = {
            "queries": 1,
            "matchings_enumerated": found["total"],
            "plan_cache_hits": tally.plan_cache_hits,
            "plan_cache_misses": tally.plan_cache_misses,
            "index_probes": tally.index_probes,
            "index_builds": tally.index_builds,
            "leapfrog_seeks": tally.leapfrog_seeks,
            "intersections": tally.intersections,
        }
        return found

    @_verb("EXPLAIN", "read")
    def _explain(self, database: ServedDatabase, args: Dict[str, Any]) -> Dict[str, Any]:
        source = require_arg(args, "pattern", str)
        with _counters.collect() as tally:
            payload = database.explain(source)
        payload["_charges"] = {
            "queries": 1,
            "plan_cache_hits": tally.plan_cache_hits,
            "plan_cache_misses": tally.plan_cache_misses,
            "index_probes": tally.index_probes,
            "index_builds": tally.index_builds,
            "leapfrog_seeks": tally.leapfrog_seeks,
            "intersections": tally.intersections,
        }
        return payload

    @_verb("BROWSE", "read")
    def _browse(self, database: ServedDatabase, args: Dict[str, Any]) -> Dict[str, Any]:
        node = require_arg(args, "node", int)
        hops = args.get("hops", 1)
        if not isinstance(hops, int) or hops < 0:
            raise ProtocolError("hops must be a non-negative integer")
        slice_ = database.browse(node, hops=hops)
        payload = slice_.to_json()
        payload["_charges"] = {"queries": 1}
        return payload

    @_verb("EXPORT", "read")
    def _export(self, database: ServedDatabase, args: Dict[str, Any]) -> Dict[str, Any]:
        return {"instance": database.to_json(), "_charges": {"queries": 1}}

    @_verb("SAVE", "read")
    def _save(self, database: ServedDatabase, args: Dict[str, Any]) -> Dict[str, Any]:
        path = require_arg(args, "path", str)
        database.save(path)
        return {"saved": path}
