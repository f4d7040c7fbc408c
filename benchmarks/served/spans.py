"""The traced pass: replay requests in-process with a span per layer.

No socket and no server process: each request is walked through the
layers' public functions in the order ``repro.server`` calls them, with
a span (request id, name, parent, start, end) around each call.  Spans
stay in memory until the pass ends.  A layer's *self time* is its span
minus the spans nested in it.

Every request is replayed twice, on two identical databases: once
through the span pipeline and once through the coarse calls the server
itself makes (``ServedDatabase.matchings`` / ``run_program``), with one
clock pair around the lot.  The second is the whole the parts are
checked against, and the difference is what tracing costs.

Two functions are wrapped for the duration of the pass so that work
nested inside a layer shows as its own span: ``find_any`` as
``repro.core.operations`` sees it (matching inside a write) and
``os.fsync`` (the flush inside a WAL append).

The cyclic garbage collector is timed too (``gc.callbacks``).  A full
collection walks the whole loaded graph and lands on whichever request
happens to cross the allocation threshold, so each pause becomes a
``gc`` span of its own on the traced side and is subtracted from the
untraced side; parts and whole are then compared net of it.
"""

from __future__ import annotations

import gc
import os
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.core.operations as operations
from repro.core import counters
from repro.dsl import parse_pattern, parse_program
from repro.io.serialize import load_instance
from repro.plan import execute_plan, plan_for
from repro.server.catalog import ServedDatabase
from repro.server.protocol import PROTOCOL_VERSION, decode_request, encode_frame, ok_response
from repro.server.session import _report_json  # the RUN reply's own encoder, so the replay cannot drift from it
from repro.txn import guards
from repro.txn.transaction import Transaction
from repro.wal import recover_catalog

from harness import CHECKPOINT_BYTES, FSYNC

#: Requests replayed per workload: a fixed count, so that the counters
#: of two traced runs on one seed can be compared for exact equality.
TRACED_REQUESTS = {
    "point_read": 2000,
    "join_read": 200,
    "write_commit": 250,
    "mixed_rw": 1500,
    "routed_point_read": 2000,
}

#: The counters a traced run must repeat exactly on the same seed: these
#: from each request's ``counters.collect()`` tally, the WAL's from
#: ``drain_charges`` at the end.
TALLY_COUNTERS = ("plan_cache_hits", "plan_cache_misses", "index_probes", "txn_journal_entries")
WAL_COUNTERS = ("wal_bytes", "wal_fsyncs", "checkpoints")


class Tracer:
    """Spans in parallel columns: request, name, parent index, start, end (ns).

    Flat ``array`` columns rather than one object per span: retained
    container objects would push the traced side over the garbage
    collector's thresholds more often than the untraced side, and a
    full collection of this heap costs as much as several requests.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.requests = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.request = -1
        self._open: List[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add(self, name: str, start: int, end: int) -> None:
        """Record a finished span under whichever span is open."""
        self.names.append(name)
        self.requests.append(self.request)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(start)
        self.ends.append(end)

    def self_times(self) -> Dict[str, int]:
        """Total self time per span name, in ns."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        totals: Dict[str, int] = {}
        for name, ns in zip(self.names, own):
            totals[name] = totals.get(name, 0) + ns
        return totals

    def durations(self, name: str) -> List[int]:
        return [
            end - start for n, start, end in zip(self.names, self.starts, self.ends) if n == name
        ]

    def rows(self) -> List[Dict[str, Any]]:
        """The spans as JSON rows (what ``out/trace-<workload>.json`` holds)."""
        return [
            {"request": request, "name": name, "parent": parent, "start_ns": start, "end_ns": end}
            for request, name, parent, start, end in zip(
                self.requests, self.names, self.parents, self.starts, self.ends
            )
        ]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.names)
        tracer.names.append(self.name)
        tracer.requests.append(tracer.request)
        tracer.parents.append(tracer._open[-1] if tracer._open else -1)
        tracer.ends.append(0)
        tracer._open.append(self.index)
        tracer.starts.append(time.perf_counter_ns())

    def __exit__(self, *_exc: Any) -> None:
        self.tracer.ends[self.index] = time.perf_counter_ns()
        self.tracer._open.pop()


def wire_line(serial: int, request: Dict[str, Any]) -> bytes:
    """The frame a ``GoodClient`` would send for ``request``."""
    return encode_frame(
        {"good": PROTOCOL_VERSION, "id": serial, "verb": request["verb"], "args": request["args"]}
    )


# ----------------------------------------------------------------------
# the two pipelines
# ----------------------------------------------------------------------
def traced_request(tracer: Tracer, database: ServedDatabase, line: bytes, tally_into: Dict[str, int]) -> int:
    """One request through every layer, a span each; returns reply bytes."""
    span = tracer.span
    with span("request"):
        with span("decode"):
            request_id, verb, args = decode_request(line)
        with counters.collect() as tally:
            if verb == "MATCH":
                with span("pin"):
                    reader = database.read_view()
                try:
                    with span("parse"):
                        pattern, bindings = parse_pattern(args["pattern"], reader.scheme)
                    instance = reader.session.instance
                    with span("plan"):
                        plan, _hit = plan_for(pattern, instance)
                    with span("execute"):
                        found = list(execute_plan(plan, pattern, instance, None))
                    with span("bind"):
                        guards.charge_matchings(len(found))
                        total = len(found)
                        limit = args.get("limit")
                        if limit is not None:
                            found = found[:limit]
                        named = [{v: m[node] for v, node in bindings.items()} for m in found]
                        result = {"total": total, "returned": len(named), "matchings": named}
                finally:
                    with span("pin"):
                        reader.release()
                tally_into["matchings"] += total
            else:
                with span("parse"):
                    program = parse_program(args["program"], database.scheme)
                with span("txn"):
                    txn = Transaction(database.target, name=f"wal:{database.name}")
                with span("apply"):
                    reports = list(database.session.update(program).reports)
                with span("commit_journal"):
                    ticket = database.durability.commit_journal(database, txn._journal)
                with span("txn"):
                    txn.commit()
                database.last_commit_lsn = database.durability.lsn
                with span("publish"):
                    database.publish_version()
                with span("checkpoint_begin"):
                    job = database.durability.maybe_checkpoint(database)
                with span("counts"):
                    nodes, edges = database.counts()
                result = {
                    "reports": [_report_json(report) for report in reports],
                    "nodes": nodes,
                    "edges": edges,
                    "lsn": database.last_commit_lsn,
                }
                with span("fsync_wait"):
                    ticket.wait()
                if job is not None:
                    with span("checkpoint"):
                        job.stream()
                tally_into["commits"] += 1
                tally_into["matchings"] += sum(report.matching_count for report in reports)
        with span("encode"):
            data = encode_frame(ok_response(request_id, result))
    for name in TALLY_COUNTERS:
        tally_into[name] += getattr(tally, name)
    return len(data)


def whole_request(database: ServedDatabase, line: bytes) -> None:
    """The same request through the calls the server itself makes."""
    request_id, verb, args = decode_request(line)
    if verb == "MATCH":
        reader = database.read_view()
        try:
            result = reader.matchings(args["pattern"], limit=args.get("limit"))
        finally:
            reader.release()
    else:
        database._defer_checkpoints = True
        reports = database.run_program(args["program"])
        nodes, edges = database.counts()
        result = {
            "reports": [_report_json(report) for report in reports],
            "nodes": nodes,
            "edges": edges,
            "lsn": database.last_commit_lsn,
        }
        database.take_ticket().wait()
        job = database.take_checkpoint_job()
        if job is not None:
            job.stream()
    encode_frame(ok_response(request_id, result))


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
class TracedPass:
    """Spans, paired timings and counters of one in-process replay."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.requests = 0
        self.traced_ns: List[int] = []
        self.whole_ns: List[int] = []
        #: collector pauses that fell inside an untraced call
        self.whole_gc_ns = 0
        self.reply_bytes = 0
        self.load_parse_s = 0.0
        self.counts: Dict[str, int] = dict.fromkeys(TALLY_COUNTERS + WAL_COUNTERS + ("matchings", "commits"), 0)


def _wrap(tracer: Tracer, name: str, fn: Callable, materialise: bool = False) -> Callable:
    """``fn`` with a span around it whenever a traced request is open."""

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        if not tracer._open:
            return fn(*args, **kwargs)
        with tracer.span(name):
            out = fn(*args, **kwargs)
            return list(out) if materialise else out

    return wrapped


def run_traced_pass(
    data_dir: Path, instance_path: Path, stream: Iterator[Dict[str, Any]], count: int
) -> TracedPass:
    """Replay the first ``count`` requests of ``stream`` both ways."""
    out = TracedPass()
    tracer = out.tracer
    catalog, _report = recover_catalog(data_dir, fsync_policy=FSYNC, checkpoint_bytes=CHECKPOINT_BYTES)
    original_find_any, original_fsync = operations.find_any, os.fsync
    operations.find_any = _wrap(tracer, "match", original_find_any, materialise=True)
    os.fsync = _wrap(tracer, "fsync", original_fsync)
    collecting = [0]
    in_whole = [False]

    def on_collection(phase: str, _info: Dict[str, int]) -> None:
        now = time.perf_counter_ns()
        if phase == "start":
            collecting[0] = now
        elif tracer._open:
            tracer.add("gc", collecting[0], now)
        elif in_whole[0]:
            out.whole_gc_ns += now - collecting[0]

    gc.callbacks.append(on_collection)
    try:
        started = time.perf_counter()
        instance = load_instance(instance_path)
        out.load_parse_s = time.perf_counter() - started
        traced_db = catalog.add("traced", instance)
        whole_db = catalog.add("whole", load_instance(instance_path))
        lines = [wire_line(serial, request) for serial, request in zip(range(count), stream)]
        for serial, line in enumerate(lines):
            tracer.request = serial
            # alternate which side goes first, so neither always runs on a warm cache
            for side in ("traced", "whole") if serial % 2 else ("whole", "traced"):
                begun = time.perf_counter_ns()
                if side == "traced":
                    out.reply_bytes += traced_request(tracer, traced_db, line, out.counts)
                    out.traced_ns.append(time.perf_counter_ns() - begun)
                else:
                    in_whole[0] = True
                    whole_request(whole_db, line)
                    out.whole_ns.append(time.perf_counter_ns() - begun)
                    in_whole[0] = False
        out.requests = len(lines)
        charges = traced_db.durability.drain_charges()
        for name in WAL_COUNTERS:
            out.counts[name] = charges.get(name, 0)
    finally:
        gc.callbacks.remove(on_collection)
        operations.find_any, os.fsync = original_find_any, original_fsync
        catalog.close_durability()
    return out


def layer_means_us(tracer: Tracer, requests: int) -> Tuple[Dict[str, float], float]:
    """Mean self time per request of each span name, and of the glue."""
    own = tracer.self_times()
    glue = own.pop("request", 0)
    return {name: ns / requests / 1e3 for name, ns in own.items()}, glue / requests / 1e3
