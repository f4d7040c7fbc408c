"""Leapfrog-style k-way sorted intersection (the multiway join core).

The worst-case-optimal join operator (:class:`~repro.plan.steps.
MultiwayIntersect`) binds one pattern variable by intersecting several
sorted id arrays at once: one CSR adjacency slice per pattern edge into
the already-bound frontier, plus the variable's sorted label array.
This module supplies the intersection itself:

* :func:`gallop` — find the first position holding ``key`` or more by
  exponential probing then binary search, so a seek over a run of
  length *g* costs O(log g) instead of O(log n) — the "galloping"
  primitive of leapfrog join;
* :func:`intersect_sorted` — intersect k sorted duplicate-free arrays
  by walking the smallest and galloping the rest forward, keeping one
  monotone cursor per array (never re-scanning a prefix).  The cost is
  O(min·Σlog) — within a constant of Veldhuizen's leapfrog triejoin on
  duplicate-free unary relations, and the piece that turns a cyclic
  pattern's O(n²) binary intermediates into O(n^1.5) touched ids.

Operands may be lists, ``array('q')`` values or the zero-copy
``memoryview`` slices :class:`~repro.graph.adjacency.AdjacencyIndex`
hands out — anything indexable, sorted ascending and duplicate-free.
Every function returns the number of galloping seeks it performed so
a caller can charge ``leapfrog_seeks`` to the work counters.  The
production executor folds multiway steps into frozenset intersections
instead; this galloping operator is what the reference step
interpreter, kept with the test oracles, runs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def gallop(values: Sequence[int], key: int, lo: int, hi: int) -> int:
    """First index in ``[lo, hi)`` with ``values[index] >= key``.

    Exponential probing from ``lo`` followed by binary search over the
    bracketed run; ``hi`` is returned when every element is smaller.
    """
    if lo >= hi or values[lo] >= key:
        return lo
    step = 1
    probe = lo + 1
    while probe < hi and values[probe] < key:
        lo = probe
        step <<= 1
        probe = lo + step
    if probe > hi:
        probe = hi
    # values[lo] < key <= values[probe] (if probe < hi): bisect between
    while lo + 1 < probe:
        mid = (lo + probe) >> 1
        if values[mid] < key:
            lo = mid
        else:
            probe = mid
    return probe


def intersect_sorted(operands: Sequence[Sequence[int]]) -> Tuple[List[int], int]:
    """Intersect sorted duplicate-free int sequences; ``(result, seeks)``.

    The smallest operand drives; every other operand keeps a monotone
    cursor advanced by :func:`gallop`.  With one operand the result is
    a plain copy (zero seeks); with zero operands it is empty.
    """
    if not operands:
        return [], 0
    arrays = sorted(operands, key=len)
    smallest = arrays[0]
    if not len(smallest):
        return [], 0
    if len(arrays) == 1:
        return list(smallest), 0
    others = arrays[1:]
    positions = [0] * len(others)
    lengths = [len(arr) for arr in others]
    result: List[int] = []
    seeks = 0
    for key in smallest:
        member = True
        for which, arr in enumerate(others):
            position = gallop(arr, key, positions[which], lengths[which])
            seeks += 1
            positions[which] = position
            if position >= lengths[which]:
                # this operand is exhausted: nothing further can match
                return result, seeks
            if arr[position] != key:
                member = False
                break
        if member:
            result.append(key)
    return result, seeks
