"""Full-rematch fixpoint evaluation: the reference for semi-naive.

:meth:`RuleProgram.run <repro.rules.engine.RuleProgram.run>` matches
each round only against the previous round's delta.  The loops here
re-enumerate every rule against the whole instance every round, through
the program's public surface (``strata()`` and ``action.apply``):
:func:`run_naive` with the production matcher, :func:`run_oracle` with
the textbook matcher, so neither the delta machinery nor the planner is
on its path.  Both return ``(instance, reports, stats)``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core import counters as _counters
from repro.core.errors import OperationError
from repro.core.instance import Instance
from repro.core.matching import Matching, match_exists
from repro.core.operations import OperationReport
from repro.core.pattern import NegatedPattern
from repro.rules.engine import FixpointStats, RoundStats, Rule, RuleProgram
from repro.testing.matchers import find_matchings_naive
from repro.txn import guards as _guards

FixpointResult = Tuple[Instance, List[OperationReport], FixpointStats]


def run_naive(program: RuleProgram, instance: Instance, in_place: bool = False) -> FixpointResult:
    """Stratified fixpoint by full rematching every round."""
    return _run_full(program, instance, in_place, "naive")


def run_oracle(program: RuleProgram, instance: Instance, in_place: bool = False) -> FixpointResult:
    """Full rematching with the textbook matcher enumerating conditions."""
    return _run_full(program, instance, in_place, "oracle")


def _run_full(
    program: RuleProgram, instance: Instance, in_place: bool, strategy: str
) -> FixpointResult:
    working = instance if in_place else instance.copy(scheme=instance.scheme.copy())
    reports: List[OperationReport] = []
    stats = FixpointStats(strategy=strategy)
    for stratum_index, stratum_rules in enumerate(program.strata()):
        rounds = 0
        while True:
            rounds += 1
            if rounds > program.max_rounds:
                raise OperationError(
                    f"rule fixpoint did not converge within {program.max_rounds} rounds"
                )
            progress = False
            round_matchings = 0
            nodes_added = 0
            edges_added = 0
            for rule in stratum_rules:
                action = rule.action
                if strategy == "oracle":
                    action.extend_scheme(working.scheme)
                    action.materialize_constants(working)
                    found = _oracle_matchings(rule, working)
                    _guards.charge_matchings(len(found))
                    _counters.charge(full_matchings=len(found))
                    report = action.apply(working, matchings=found)
                else:
                    report = action.apply(working)
                reports.append(report)
                if report.nodes_added or report.edges_added:
                    progress = True
                round_matchings += report.matching_count
                nodes_added += len(report.nodes_added)
                edges_added += len(report.edges_added)
            _counters.charge(rounds=1)
            stats.rounds.append(
                RoundStats(
                    stratum=stratum_index,
                    round=rounds,
                    mode="full",
                    delta_in=0,
                    matchings=round_matchings,
                    nodes_added=nodes_added,
                    edges_added=edges_added,
                )
            )
            if not progress:
                break
    _counters.charge(fixpoint_runs=1)
    return working, reports, stats


def _oracle_matchings(rule: Rule, instance: Instance) -> List[Matching]:
    """The rule's matchings via the textbook reference matcher."""
    source = rule.action.source_pattern
    if isinstance(source, NegatedPattern):
        shared = list(source.positive.nodes())
        found = []
        for matching in find_matchings_naive(source.positive, instance):
            fixed = {node: matching[node] for node in shared}
            blocked = any(
                match_exists(extension, instance, fixed=fixed)
                for extension in source.extensions
            )
            if not blocked:
                found.append(matching)
        return found
    return list(find_matchings_naive(source, instance))
