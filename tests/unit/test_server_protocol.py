"""Unit tests for the server's protocol, locks and stats primitives."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.errors import (
    EdgeConflictError,
    GoodError,
    ResourceLimitError,
)
from repro.dsl import DslError
from repro.server import protocol
from repro.server.catalog import UnknownDatabaseError
from repro.server.locks import AdmissionController, AdmissionError, WriteMutex
from repro.server.stats import DatabaseStats, LatencyRing, ServerStats


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def test_frame_round_trip():
    frame = protocol.ok_response(7, {"pong": True})
    line = protocol.encode_frame(frame)
    assert line.endswith(b"\n")
    assert json.loads(line) == frame


def test_decode_request_happy_path():
    line = protocol.encode_frame(
        {"good": 1, "id": "abc", "verb": "match", "args": {"pattern": "{}"}}
    )
    request_id, verb, args = protocol.decode_request(line)
    assert request_id == "abc"
    assert verb == "MATCH"  # verbs are case-insensitive on the wire
    assert args == {"pattern": "{}"}


def test_decode_request_defaults_args():
    line = json.dumps({"good": 1, "id": 1, "verb": "PING"}).encode() + b"\n"
    _, verb, args = protocol.decode_request(line)
    assert verb == "PING" and args == {}


@pytest.mark.parametrize(
    "raw",
    [
        b"not json\n",
        b"[1, 2]\n",  # not an object
        json.dumps({"good": 99, "id": 1, "verb": "PING"}).encode(),  # bad version
        json.dumps({"good": 1, "id": 1}).encode(),  # no verb
        json.dumps({"good": 1, "id": 1, "verb": ""}).encode(),  # empty verb
        json.dumps({"good": 1, "id": 1, "verb": "PING", "args": [1]}).encode(),  # bad args
    ],
)
def test_decode_request_rejects_malformed(raw):
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_request(raw)


def test_decode_request_rejects_oversized_frames():
    huge = json.dumps({"good": 1, "id": 1, "verb": "PING", "args": {"x": "y" * protocol.MAX_FRAME_BYTES}})
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_request(huge.encode())


def test_decode_response_round_trip():
    line = protocol.encode_frame(protocol.error_response(3, GoodError("boom")))
    response = protocol.decode_response(line)
    assert response["ok"] is False
    assert response["error"]["code"] == "GOOD"
    assert response["error"]["message"] == "boom"


def test_require_arg():
    assert protocol.require_arg({"a": 1}, "a", int) == 1
    with pytest.raises(protocol.ProtocolError):
        protocol.require_arg({}, "a")
    with pytest.raises(protocol.ProtocolError):
        protocol.require_arg({"a": "x"}, "a", int)


# ----------------------------------------------------------------------
# error codes
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "error, code",
    [
        (ResourceLimitError("over"), "RESOURCE_LIMIT"),
        (EdgeConflictError("clash"), "EDGE_CONFLICT"),  # subclass beats OperationError
        (DslError("bad"), "PARSE"),
        (UnknownDatabaseError("who"), "NO_SUCH_DATABASE"),
        (AdmissionError("full"), "OVERLOADED"),
        (GoodError("generic"), "GOOD"),
        (RuntimeError("oops"), "INTERNAL"),
        (TimeoutError("slow"), "TIMEOUT"),
    ],
)
def test_error_codes(error, code):
    assert protocol.error_code(error) == code


def test_error_payload_carries_failure_report():
    from repro.txn.transaction import FailureReport

    error = GoodError("rolled back")
    error.failure_report = FailureReport(
        failed_index=1,
        operation="NA[X]",
        error_type="GoodError",
        error="rolled back",
        completed_operations=1,
        nodes_rolled_back=2,
        edges_rolled_back=1,
        scheme_rolled_back=False,
        invariants_ok=True,
    )
    payload = protocol.error_payload(error)
    assert payload["code"] == "GOOD"
    report = payload["details"]["failure_report"]
    assert report["failed_index"] == 1
    assert report["invariants_ok"] is True


# ----------------------------------------------------------------------
# latency ring + stats
# ----------------------------------------------------------------------


def test_latency_ring_empty():
    ring = LatencyRing(4)
    assert ring.percentile(0.5) is None
    assert ring.snapshot()["samples"] == 0
    assert ring.snapshot()["p95_ms"] is None


def test_latency_ring_percentiles():
    ring = LatencyRing(100)
    for value in range(1, 101):  # 1..100 ms
        ring.record(value / 1000)
    snap = ring.snapshot()
    assert snap["samples"] == 100
    assert 45 <= snap["p50_ms"] <= 55
    assert 90 <= snap["p95_ms"] <= 100
    assert snap["max_ms"] == 100


def test_latency_ring_evicts_oldest():
    ring = LatencyRing(4)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        ring.record(value)
    assert len(ring) == 4
    assert ring.snapshot()["max_ms"] == 6000


def test_server_stats_charge_and_snapshot():
    stats = ServerStats()
    stats.record("db1", 0.010)
    stats.record("db1", 0.020, error=True)
    stats.record(None, 0.005)
    stats.charge("db1", runs=1, matchings_enumerated=7)
    snap = stats.snapshot(queue_depth=3, running=2)
    assert snap["queue_depth"] == 3 and snap["running"] == 2
    assert snap["total"]["requests"] == 3
    assert snap["total"]["errors"] == 1
    assert snap["total"]["matchings_enumerated"] == 7
    assert snap["databases"]["db1"]["requests"] == 2
    assert snap["databases"]["db1"]["runs"] == 1
    assert snap["databases"]["db1"]["latency"]["samples"] == 2


def test_server_stats_forget_database():
    stats = ServerStats()
    stats.record("gone", 0.001)
    stats.forget_database("gone")
    assert "gone" not in stats.snapshot()["databases"]
    assert stats.snapshot()["total"]["requests"] == 1  # totals keep history


def test_database_stats_counts_errors():
    bucket = DatabaseStats()
    bucket.record_request(0.001)
    bucket.record_request(0.002, error=True)
    snap = bucket.snapshot()
    assert snap["requests"] == 2 and snap["errors"] == 1


# ----------------------------------------------------------------------
# writer mutex
# ----------------------------------------------------------------------


def test_write_mutex_timeout_raises_timeout_error():
    async def scenario():
        lock = WriteMutex()
        async with lock.write_locked():
            with pytest.raises(TimeoutError):
                async with lock.write_locked(timeout=0.01):
                    pass  # pragma: no cover
        # and the lock still works afterwards
        async with lock.write_locked(timeout=0.01):
            return True

    assert asyncio.run(scenario()) is True


def test_write_mutex_state():
    async def scenario():
        lock = WriteMutex()
        states = [lock.state]
        async with lock.write_locked():
            states.append(lock.state)
        states.append(lock.state)
        return states

    assert asyncio.run(scenario()) == ["idle", "w", "idle"]


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


def test_admission_rejects_past_queue_bound():
    async def scenario():
        admission = AdmissionController(max_concurrent=1, max_queue=1)
        release = asyncio.Event()

        async def hold():
            async with admission.admit():
                await release.wait()

        async def queued():
            async with admission.admit():
                pass

        holder = asyncio.create_task(hold())
        await asyncio.sleep(0.005)
        waiter = asyncio.create_task(queued())
        await asyncio.sleep(0.005)
        assert admission.queue_depth == 1
        assert admission.running == 1
        with pytest.raises(AdmissionError):
            async with admission.admit():
                pass  # pragma: no cover
        release.set()
        await asyncio.gather(holder, waiter)
        return admission

    admission = asyncio.run(scenario())
    assert admission.rejected_total == 1
    assert admission.admitted_total == 2
    assert admission.queue_depth == 0 and admission.running == 0


def test_admission_validates_configuration():
    with pytest.raises(ValueError):
        AdmissionController(max_concurrent=0)
    with pytest.raises(ValueError):
        AdmissionController(max_queue=-1)
