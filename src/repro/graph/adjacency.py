"""Sorted adjacency arrays: the compact per-edge-label index layer.

An :class:`AdjacencyIndex` is a CSR-style snapshot of one edge label's
adjacency:

* ``targets`` — one ``array('q')`` holding every target id, grouped by
  source and sorted ascending within each group;
* ``sources`` — the mirror array for the reverse direction (every
  source id, grouped by target, sorted within each group);
* two ``(keys, offs)`` array pairs mapping a node id to its
  ``(lo, hi)`` slice by binary search — 16 bytes per distinct
  endpoint instead of a boxed dict entry.

Lookups hand out **memoryview slices** — zero-copy, index- and
``len``-able, and usable with :mod:`bisect` — so a k-way sorted
intersection (:mod:`repro.plan.leapfrog`) walks raw 64-bit ints
without building a single Python set.

Since the columnar store rewrite the adjacency arrays are the *primary*
edge representation (:class:`repro.graph.columns.EdgeColumn` maintains
them incrementally), and an index is usually a zero-copy wrap of the
column's base arrays (:meth:`AdjacencyIndex.from_arrays`) rather than
an O(E log E) build.  The pair-iterable constructor remains for the
reference store and direct construction in tests.  Indexes are
immutable once built and stamped with the store's ``stats_epoch``;
builds are charged to the thread-local ``index_builds`` counter.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Tuple

from repro.graph.columns import EMPTY_SET, SpanSets, build_csr

__all__ = ["EMPTY_SET", "EMPTY_VIEW", "AdjacencyIndex", "SpanSets"]

#: The empty slice every miss returns (shared, zero-length, immutable).
EMPTY_VIEW = memoryview(array("q"))


def _charge_build() -> None:
    # imported lazily: repro.core pulls in the matcher stack, which in
    # turn imports this package — at call time the cycle is long closed
    from repro.core import counters as _counters

    _counters.charge(index_builds=1)


class AdjacencyIndex:
    """An immutable CSR view of one edge label at one statistics epoch."""

    __slots__ = (
        "label",
        "epoch",
        "pair_count",
        "_targets",
        "_tview",
        "_fwd_keys",
        "_fwd_offs",
        "_sources",
        "_sview",
        "_rev_keys",
        "_rev_offs",
        "_fwd_sets",
        "_rev_sets",
    )

    def __init__(self, label: str, pairs: Iterable[Tuple[int, int]], epoch: int) -> None:
        forward = sorted(pairs)
        fwd_keys, fwd_offs, fwd_vals = build_csr(forward)
        reverse = sorted((target, source) for source, target in forward)
        rev_keys, rev_offs, rev_vals = build_csr(reverse)
        self._init_arrays(
            label, epoch, fwd_keys, fwd_offs, fwd_vals, rev_keys, rev_offs, rev_vals
        )
        _charge_build()

    @classmethod
    def from_arrays(
        cls,
        label: str,
        epoch: int,
        fwd_keys: array,
        fwd_offs: array,
        fwd_vals: array,
        rev_keys: array,
        rev_offs: array,
        rev_vals: array,
    ) -> "AdjacencyIndex":
        """Zero-copy wrap of pre-built CSR arrays (the columnar store's
        fast path; the arrays must never be mutated afterwards)."""
        index = cls.__new__(cls)
        index._init_arrays(
            label, epoch, fwd_keys, fwd_offs, fwd_vals, rev_keys, rev_offs, rev_vals
        )
        _charge_build()
        return index

    def _init_arrays(
        self, label, epoch, fwd_keys, fwd_offs, fwd_vals, rev_keys, rev_offs, rev_vals
    ) -> None:
        self.label = label
        self.epoch = epoch
        self.pair_count = len(fwd_vals)
        self._targets = fwd_vals
        self._tview = memoryview(fwd_vals)
        self._fwd_keys = fwd_keys
        self._fwd_offs = fwd_offs
        self._sources = rev_vals
        self._sview = memoryview(rev_vals)
        self._rev_keys = rev_keys
        self._rev_offs = rev_offs
        self._fwd_sets: SpanSets = SpanSets(fwd_keys, fwd_offs, fwd_vals)
        self._rev_sets: SpanSets = SpanSets(rev_keys, rev_offs, rev_vals)

    def targets_of(self, source: int) -> memoryview:
        """Sorted targets of ``label``-edges leaving ``source`` (zero-copy)."""
        keys = self._fwd_keys
        position = bisect_left(keys, source)
        if position < len(keys) and keys[position] == source:
            offs = self._fwd_offs
            return self._tview[offs[position] : offs[position + 1]]
        return EMPTY_VIEW

    def sources_of(self, target: int) -> memoryview:
        """Sorted sources of ``label``-edges arriving at ``target`` (zero-copy)."""
        keys = self._rev_keys
        position = bisect_left(keys, target)
        if position < len(keys) and keys[position] == target:
            offs = self._rev_offs
            return self._sview[offs[position] : offs[position + 1]]
        return EMPTY_VIEW

    def targets_sets(self) -> SpanSets:
        """Lazy ``source -> frozenset(targets)`` views (memoized)."""
        return self._fwd_sets

    def sources_sets(self) -> SpanSets:
        """Lazy ``target -> frozenset(sources)`` views (memoized)."""
        return self._rev_sets

    def has_pair(self, source: int, target: int) -> bool:
        """Whether the edge ``source --label--> target`` is in the index."""
        keys = self._fwd_keys
        position = bisect_left(keys, source)
        if position == len(keys) or keys[position] != source:
            return False
        offs = self._fwd_offs
        lo, hi = offs[position], offs[position + 1]
        targets = self._targets
        spot = bisect_left(targets, target, lo, hi)
        return spot < hi and targets[spot] == target

    def sources(self) -> Iterable[int]:
        """The distinct source ids, in ascending order."""
        return self._fwd_keys

    def __len__(self) -> int:
        return self.pair_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdjacencyIndex({self.label!r}, pairs={self.pair_count}, epoch={self.epoch})"
        )
