"""Live server statistics: counters and a latency ring buffer.

The ``STATS`` verb must be cheap enough to call while the server is
under load, so everything here is O(1) per recorded request except the
percentile computation, which sorts the (bounded) ring on demand.

All mutation happens on the event-loop thread — request timing is
recorded after the executor hands the result back — so no locking is
needed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional


class LatencyRing:
    """The last ``capacity`` request latencies, with percentiles."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: List[float] = []
        self._next = 0

    def record(self, seconds: float) -> None:
        """Add one observation, evicting the oldest when full."""
        if len(self._ring) < self.capacity:
            self._ring.append(seconds)
        else:
            self._ring[self._next] = seconds
            self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._ring)

    def percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile in seconds; ``None`` when empty."""
        if not self._ring:
            return None
        ordered = sorted(self._ring)
        rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[rank]

    def snapshot(self) -> Dict[str, Any]:
        """``{samples, p50_ms, p95_ms, max_ms}`` over the window."""
        p50 = self.percentile(0.50)
        p95 = self.percentile(0.95)
        return {
            "samples": len(self._ring),
            "p50_ms": None if p50 is None else round(p50 * 1000, 3),
            "p95_ms": None if p95 is None else round(p95 * 1000, 3),
            "max_ms": None if not self._ring else round(max(self._ring) * 1000, 3),
        }

    def raw_ms(self) -> List[float]:
        """The window's samples in milliseconds, unordered.

        The cluster router merges per-worker windows from these raw
        samples and recomputes percentiles over the union — averaging
        two p95s is statistically meaningless, merging the rings is not.
        """
        return [round(seconds * 1000, 3) for seconds in self._ring]


def percentiles_from_samples(samples_ms: List[float]) -> Dict[str, Any]:
    """Nearest-rank p50/p95/max over raw millisecond samples.

    The merge half of :meth:`LatencyRing.raw_ms`: concatenate the rings
    of several processes, then compute the percentiles once over the
    union.
    """
    if not samples_ms:
        return {"samples": 0, "p50_ms": None, "p95_ms": None, "max_ms": None}
    ordered = sorted(samples_ms)
    last = len(ordered) - 1

    def rank(fraction: float) -> float:
        return ordered[min(last, max(0, round(fraction * last)))]

    return {
        "samples": len(ordered),
        "p50_ms": round(rank(0.50), 3),
        "p95_ms": round(rank(0.95), 3),
        "max_ms": round(ordered[-1], 3),
    }


class DatabaseStats:
    """Per-database counters plus a latency window."""

    def __init__(self, ring_capacity: int = 1024) -> None:
        self.requests = 0
        self.errors = 0
        self.runs = 0
        self.queries = 0
        self.matchings_enumerated = 0
        self.operations_applied = 0
        self.rollbacks = 0
        # matcher/fixpoint work split (repro.core.counters tallies):
        # how much matching was full vs delta-constrained, and how many
        # fixpoint rounds/evaluations ran on behalf of this database
        self.full_matchings = 0
        self.delta_matchings = 0
        self.fixpoint_rounds = 0
        self.fixpoint_runs = 0
        # planner work (repro.plan tallies): cache effectiveness, how
        # many index probes the executor issued, and the multiway-join
        # machinery — sorted-adjacency (CSR) indexes built, galloping
        # seeks performed, k-way intersections executed
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.index_probes = 0
        self.index_builds = 0
        self.leapfrog_seeks = 0
        self.intersections = 0
        # transaction work (repro.txn tallies): undo-journal entries
        # recorded, full snapshots captured (fallback protocol only),
        # rollbacks replayed and the estimated snapshot bytes the
        # journal protocol avoided copying
        self.txn_journal_entries = 0
        self.txn_snapshot_captures = 0
        self.txn_rollbacks = 0
        self.txn_bytes_avoided = 0
        # durability work (repro.wal tallies): WAL records appended,
        # fsyncs issued (group commit makes this < wal_appends), bytes
        # logged, checkpoints taken, boot-time recoveries performed and
        # torn tail records dropped by those recoveries
        self.wal_appends = 0
        self.wal_fsyncs = 0
        self.wal_bytes = 0
        self.checkpoints = 0
        self.recoveries = 0
        self.wal_torn = 0
        self.latency = LatencyRing(ring_capacity)
        # how long write and catalog verbs waited to *enter* the
        # database's writer mutex; reads never take a lock and record
        # nothing here
        self.lock_waits = LatencyRing(ring_capacity)

    def record_request(self, seconds: float, error: bool = False) -> None:
        self.requests += 1
        if error:
            self.errors += 1
        self.latency.record(seconds)

    def record_lock_wait(self, seconds: float) -> None:
        self.lock_waits.record(seconds)

    def snapshot(self, raw: bool = False) -> Dict[str, Any]:
        payload = self._snapshot()
        if raw:
            payload["latency_raw_ms"] = self.latency.raw_ms()
            payload["lock_wait_raw_ms"] = self.lock_waits.raw_ms()
        return payload

    def _snapshot(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "runs": self.runs,
            "queries": self.queries,
            "matchings_enumerated": self.matchings_enumerated,
            "operations_applied": self.operations_applied,
            "rollbacks": self.rollbacks,
            "full_matchings": self.full_matchings,
            "delta_matchings": self.delta_matchings,
            "fixpoint_rounds": self.fixpoint_rounds,
            "fixpoint_runs": self.fixpoint_runs,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "index_probes": self.index_probes,
            "index_builds": self.index_builds,
            "leapfrog_seeks": self.leapfrog_seeks,
            "intersections": self.intersections,
            "txn_journal_entries": self.txn_journal_entries,
            "txn_snapshot_captures": self.txn_snapshot_captures,
            "txn_rollbacks": self.txn_rollbacks,
            "txn_bytes_avoided": self.txn_bytes_avoided,
            "wal_appends": self.wal_appends,
            "wal_fsyncs": self.wal_fsyncs,
            "wal_bytes": self.wal_bytes,
            "checkpoints": self.checkpoints,
            "recoveries": self.recoveries,
            "wal_torn": self.wal_torn,
            "latency": self.latency.snapshot(),
            "lock_wait": self.lock_waits.snapshot(),
        }


class ServerStats:
    """Whole-server view: totals plus one bucket per database."""

    def __init__(self, ring_capacity: int = 1024) -> None:
        self.started_at = time.time()
        self._ring_capacity = ring_capacity
        self.total = DatabaseStats(ring_capacity)
        self.per_database: Dict[str, DatabaseStats] = {}
        self.connections_open = 0
        self.connections_total = 0

    def database(self, name: str) -> DatabaseStats:
        """The (lazily created) bucket for one database."""
        bucket = self.per_database.get(name)
        if bucket is None:
            bucket = self.per_database[name] = DatabaseStats(self._ring_capacity)
        return bucket

    def forget_database(self, name: str) -> None:
        """Drop a bucket (after ``DROP``); totals keep the history."""
        self.per_database.pop(name, None)

    def record(self, database: Optional[str], seconds: float, error: bool = False) -> None:
        """Record one completed request against the totals and, when the
        request addressed a database, against that database's bucket."""
        self.total.record_request(seconds, error=error)
        if database is not None:
            self.database(database).record_request(seconds, error=error)

    def record_lock_wait(self, database: Optional[str], seconds: float) -> None:
        """Record how long one request waited for its database lock."""
        self.total.record_lock_wait(seconds)
        if database is not None:
            self.database(database).record_lock_wait(seconds)

    def charge(self, database: Optional[str], **charges: int) -> None:
        """Add verb-specific counters (runs, matchings_enumerated, ...)
        to the totals and to the addressed database's bucket."""
        buckets = [self.total]
        if database is not None:
            buckets.append(self.database(database))
        for bucket in buckets:
            for key, value in charges.items():
                setattr(bucket, key, getattr(bucket, key) + value)

    def snapshot(self, queue_depth: int = 0, running: int = 0, raw: bool = False) -> Dict[str, Any]:
        """The full ``STATS`` payload.

        With ``raw=True`` every latency window also carries its raw
        millisecond samples (``latency_raw_ms`` / ``lock_wait_raw_ms``)
        so a cluster router can merge rings across workers instead of
        averaging percentiles.
        """
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "connections": {
                "open": self.connections_open,
                "total": self.connections_total,
            },
            "queue_depth": queue_depth,
            "running": running,
            "total": self.total.snapshot(raw=raw),
            "databases": {
                name: bucket.snapshot(raw=raw)
                for name, bucket in sorted(self.per_database.items())
            },
        }
