"""Cost-based pattern-match planning (the matcher's query optimizer).

Section 5 of the paper argues GOOD is implementable on a relational
engine because pattern matching decomposes into joins over binary
relations; this package is that observation applied to the native
matcher.  A :class:`~repro.plan.steps.Plan` orders a pattern's nodes
into a left-deep index-join pipeline using the graph store's
cardinality statistics — each step binds one node by intersecting the
neighbour sets of all its bound neighbours, a variable-at-a-time
generic join — is cached per (pattern signature, statistics epoch),
and is compiled and run by :mod:`repro.plan.executor`, which is what
:func:`repro.core.matching.find_matchings` dispatches to by default.

::

    from repro.plan import plan_for, explain_pattern

    plan, hit = plan_for(pattern, instance)
    print(plan.explain())
"""

from __future__ import annotations

from typing import Sequence

from repro.core.instance import Instance
from repro.core.pattern import NegatedPattern
from repro.plan.cache import MAX_CACHED_PLANS, cached_plan_count, pattern_signature, plan_for
from repro.plan.executor import execute_plan, planned_matchings
from repro.plan.planner import compile_plan
from repro.plan.steps import STRATEGY, Extend, Plan, ScanEdges, ScanNodes, Verify


def explain_pattern(pattern, instance: Instance, fixed: Sequence[int] = ()) -> str:
    """EXPLAIN text for a plain or crossed (negated) pattern.

    A crossed pattern plans its positive part normally; each crossed
    extension is an anti-join probe executed with the positive nodes
    pre-bound, so its sub-plan is rendered with those nodes ``Fixed``.
    """
    if isinstance(pattern, NegatedPattern):
        positive = list(pattern.positive.nodes())
        plan, _ = plan_for(pattern.positive, instance, fixed)
        lines = [plan.explain()]
        for index, extension in enumerate(pattern.extensions):
            sub_plan, _ = plan_for(extension, instance, tuple(positive))
            lines.append(f"AntiJoin(crossed extension {index})")
            lines.append(sub_plan.explain(indent=2))
        return "\n".join(lines)
    plan, _ = plan_for(pattern, instance, fixed)
    return plan.explain()


__all__ = [
    "MAX_CACHED_PLANS",
    "STRATEGY",
    "Extend",
    "Plan",
    "ScanEdges",
    "ScanNodes",
    "Verify",
    "cached_plan_count",
    "compile_plan",
    "execute_plan",
    "explain_pattern",
    "pattern_signature",
    "plan_for",
    "planned_matchings",
]
