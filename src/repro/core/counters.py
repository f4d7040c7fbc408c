"""Matcher/fixpoint work counters — the observability side of semi-naive.

The semi-naive rule engine's whole point is doing *less* matching work;
this module is how that win is observed.  A :class:`MatchCounters`
collector tallies, for everything executed while it is armed,

* ``full_matchings`` — matchings enumerated by full pattern matching
  (every ``Operation.matchings`` call, and the engine's full-rematch
  rounds);
* ``delta_matchings`` — matchings enumerated by delta-constrained
  matching (:func:`repro.core.matching.find_matchings_delta`);
* ``rounds`` — fixpoint rounds executed (rule strata, starred macros,
  inheritance materialisation passes);
* ``fixpoint_runs`` — completed fixpoint evaluations;
* ``plan_cache_hits`` / ``plan_cache_misses`` — pattern-plan cache
  outcomes (:mod:`repro.plan.cache`; a miss is a compilation);
* ``index_probes`` — adjacency/edge-index reads the plan executor
  performed (:mod:`repro.plan.executor`);
* ``txn_journal_entries`` — inverse operations recorded by undo
  journals (:mod:`repro.txn.journal`) in completed transactions;
* ``txn_snapshot_captures`` — full-state snapshots taken
  (:func:`repro.txn.snapshot.capture`; zero on the journal fast path);
* ``txn_rollbacks`` — transaction / savepoint rollbacks performed;
* ``txn_bytes_avoided`` — estimated bytes of state a full-copy
  snapshot protocol would have copied where the journal copied only
  its entries (a rough census-based estimate, not a measurement).

Arming mirrors :mod:`repro.txn.guards`: a thread-local stack of
collectors, so one server session's work never tallies into another's.
Unlike guards, counters never raise — they only observe.

::

    with counters.collect() as tally:
        program.run(db, in_place=True)
    print(tally.rounds, tally.delta_matchings, tally.full_matchings)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List


@dataclass
class MatchCounters:
    """One armed collector's tallies."""

    full_matchings: int = 0
    delta_matchings: int = 0
    rounds: int = 0
    fixpoint_runs: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    index_probes: int = 0
    txn_journal_entries: int = 0
    txn_snapshot_captures: int = 0
    txn_rollbacks: int = 0
    txn_bytes_avoided: int = 0

    @property
    def matchings(self) -> int:
        """Total matchings enumerated, both disciplines combined."""
        return self.full_matchings + self.delta_matchings

    def to_json(self) -> Dict[str, Any]:
        """The counters as a plain dict (server ``STATS`` payloads)."""
        return {
            "full_matchings": self.full_matchings,
            "delta_matchings": self.delta_matchings,
            "rounds": self.rounds,
            "fixpoint_runs": self.fixpoint_runs,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "index_probes": self.index_probes,
            "txn_journal_entries": self.txn_journal_entries,
            "txn_snapshot_captures": self.txn_snapshot_captures,
            "txn_rollbacks": self.txn_rollbacks,
            "txn_bytes_avoided": self.txn_bytes_avoided,
        }


#: Per-thread armed-collector stacks (innermost last).
_LOCAL = threading.local()


def _stack() -> List[MatchCounters]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


@contextmanager
def collect() -> Iterator[MatchCounters]:
    """Arm a collector for the duration of the ``with`` block.

    Collectors nest (each armed collector tallies independently) and
    are armed only in the calling thread.
    """
    tally = MatchCounters()
    stack = _stack()
    stack.append(tally)
    try:
        yield tally
    finally:
        stack.remove(tally)


def charge(
    full_matchings: int = 0,
    delta_matchings: int = 0,
    rounds: int = 0,
    fixpoint_runs: int = 0,
    plan_cache_hits: int = 0,
    plan_cache_misses: int = 0,
    index_probes: int = 0,
    txn_journal_entries: int = 0,
    txn_snapshot_captures: int = 0,
    txn_rollbacks: int = 0,
    txn_bytes_avoided: int = 0,
) -> None:
    """Tally work against every collector armed in this thread."""
    stack = _stack()
    if not stack:
        return
    for tally in stack:
        tally.full_matchings += full_matchings
        tally.delta_matchings += delta_matchings
        tally.rounds += rounds
        tally.fixpoint_runs += fixpoint_runs
        tally.plan_cache_hits += plan_cache_hits
        tally.plan_cache_misses += plan_cache_misses
        tally.index_probes += index_probes
        tally.txn_journal_entries += txn_journal_entries
        tally.txn_snapshot_captures += txn_snapshot_captures
        tally.txn_rollbacks += txn_rollbacks
        tally.txn_bytes_avoided += txn_bytes_avoided
