"""The rule engine: conditions, actions, stratification, fixpoint.

A rule's *condition* is a pattern (plain or crossed); its *action* is
a node or edge addition over that pattern — precisely the paper's
reading of an operation as a rule.  A rule program derives the
simultaneous fixpoint of its rules, stratum by stratum:

* within a stratum, rules are applied round-robin until none adds
  anything (the additions' reuse checks make this a clean fixpoint);
* a rule whose condition *negates* a label (mentions it only in a
  crossed extension) must live in a strictly later stratum than every
  rule deriving that label — the classical stratification requirement;
  programs with negative cycles raise :class:`StratificationError`.

Evaluation is **semi-naive**: the first round of a stratum
matches every rule against the whole instance while recording the
additions in a :class:`~repro.graph.store.Delta`; every later round
matches each rule only against the previous round's delta
(:func:`~repro.core.matching.find_matchings_delta`), so per-round cost
tracks the size of what is *new* instead of the size of the instance.
Rules with crossed conditions fall back to full matching each round
(their negated labels are frozen by stratification, but the fallback
keeps the semantics trivially right).  Every run leaves a
:class:`FixpointStats` in ``RuleProgram.last_stats`` (rounds, per-round
delta sizes, matchings enumerated per discipline) so the semi-naive win
is observable; the full-rematch evaluation it is property-tested and
benchmarked against lives with the other test oracles.

Deletions are deliberately not rule actions: rules describe a least
model, and the basic language's deletions remain available around rule
programs (exactly how Fig. 27 uses them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.core import counters as _counters
from repro.core.errors import GoodError, OperationError
from repro.core.instance import Instance
from repro.core.matching import find_matchings_delta
from repro.core.operations import EdgeAddition, NodeAddition, OperationReport
from repro.core.pattern import NegatedPattern, Pattern
from repro.graph.store import Delta
from repro.plan import plan_for
from repro.txn import guards as _guards

RuleAction = Union[NodeAddition, EdgeAddition]

#: A delta-seeded execution costs a small constant per seed; a full
#: rematch costs a small constant per enumerated matching.  Seeding is
#: abandoned for a rule's round when its relevant seed count exceeds
#: this multiple of the full plan's estimated rows.
DELTA_SEED_FACTOR = 4.0


def _delta_worthwhile(pattern: Pattern, working: Instance, delta: Delta) -> bool:
    """Whether seeding ``pattern`` from ``delta`` beats one full rematch.

    The per-round heuristic behind semi-naive evaluation: count the
    delta items that can actually seed this pattern (same-label edges
    and nodes) and compare against the cached full plan's estimated
    output.  A delta comparable in size to the full result means the
    seeded searches would collectively re-enumerate everything anyway —
    plus one planned search of overhead per seed — so the round falls
    back to a single full rematch for this rule.
    """
    edge_labels = {edge.label for edge in pattern.edges()}
    node_labels = {pattern.label_of(node) for node in pattern.nodes()}
    seeds = sum(1 for _, label, _ in delta.edges if label in edge_labels)
    seeds += sum(
        1
        for node in delta.nodes
        if working.has_node(node) and working.label_of(node) in node_labels
    )
    if seeds == 0:
        return True  # nothing to seed: the delta pass is a cheap no-op
    plan, _ = plan_for(pattern, working)
    return seeds <= DELTA_SEED_FACTOR * max(plan.estimated_rows, 1.0)


@dataclass
class RoundStats:
    """What one fixpoint round did (one entry per round per stratum)."""

    stratum: int
    round: int
    mode: str  #: ``"full"`` or ``"delta"``
    delta_in: int  #: items in the seed delta (0 for full rounds)
    matchings: int  #: matchings enumerated by this round's rules
    nodes_added: int
    edges_added: int


@dataclass
class FixpointStats:
    """Per-run fixpoint counters, kept on ``RuleProgram.last_stats``."""

    strategy: str = "seminaive"
    rounds: List[RoundStats] = field(default_factory=list)
    #: Rule-rounds where the delta-vs-full heuristic chose a full rematch.
    fallbacks: int = 0

    @property
    def total_rounds(self) -> int:
        """Number of rounds executed across all strata."""
        return len(self.rounds)

    @property
    def full_matchings(self) -> int:
        """Matchings enumerated by full (non-delta) rounds."""
        return sum(r.matchings for r in self.rounds if r.mode == "full")

    @property
    def delta_matchings(self) -> int:
        """Matchings enumerated by delta-constrained rounds."""
        return sum(r.matchings for r in self.rounds if r.mode == "delta")

    @property
    def matchings_enumerated(self) -> int:
        """Total matchings enumerated, both disciplines combined."""
        return self.full_matchings + self.delta_matchings

    def per_round_matchings(self) -> List[int]:
        """Matchings enumerated per round, in execution order."""
        return [r.matchings for r in self.rounds]

    def per_round_delta_sizes(self) -> List[int]:
        """Seed-delta sizes per round, in execution order."""
        return [r.delta_in for r in self.rounds]

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable form (benchmarks, server counters)."""
        return {
            "strategy": self.strategy,
            "rounds": self.total_rounds,
            "full_matchings": self.full_matchings,
            "delta_matchings": self.delta_matchings,
            "fallbacks": self.fallbacks,
            "per_round": [
                {
                    "stratum": r.stratum,
                    "round": r.round,
                    "mode": r.mode,
                    "delta_in": r.delta_in,
                    "matchings": r.matchings,
                    "nodes_added": r.nodes_added,
                    "edges_added": r.edges_added,
                }
                for r in self.rounds
            ],
        }


class StratificationError(GoodError):
    """The rule program negates through a derivation cycle."""


@dataclass(frozen=True)
class Rule:
    """A named condition/action rule."""

    name: str
    action: RuleAction

    def __post_init__(self) -> None:
        if not isinstance(self.action, (NodeAddition, EdgeAddition)):
            raise OperationError(
                f"rule {self.name!r}: actions must be node or edge additions, "
                f"not {type(self.action).__name__}"
            )

    # ------------------------------------------------------------------
    # label analysis (for stratification)
    # ------------------------------------------------------------------
    @property
    def condition(self) -> Union[Pattern, NegatedPattern]:
        """The rule's condition pattern."""
        return self.action.source_pattern

    def derived_labels(self) -> FrozenSet[str]:
        """Labels this rule's action can introduce."""
        if isinstance(self.action, NodeAddition):
            labels = {self.action.node_label}
            labels.update(edge_label for edge_label, _ in self.action.edges)
            return frozenset(labels)
        return frozenset(edge_label for _, edge_label, _ in self.action.edges)

    def positive_labels(self) -> FrozenSet[str]:
        """Labels the condition requires to be present."""
        pattern = self.action.positive_pattern
        labels: Set[str] = set()
        for node_id in pattern.nodes():
            labels.add(pattern.label_of(node_id))
        for edge in pattern.edges():
            labels.add(edge.label)
        return frozenset(labels)

    def negated_labels(self) -> FrozenSet[str]:
        """Labels occurring only in the crossed extensions."""
        source = self.action.source_pattern
        if not isinstance(source, NegatedPattern):
            return frozenset()
        positive_nodes = set(source.positive.nodes())
        positive_edges = {edge.as_tuple() for edge in source.positive.edges()}
        labels: Set[str] = set()
        for extension in source.extensions:
            for node_id in extension.nodes():
                if node_id not in positive_nodes:
                    labels.add(extension.label_of(node_id))
            for edge in extension.edges():
                if edge.as_tuple() not in positive_edges:
                    labels.add(edge.label)
        return frozenset(labels)


class RuleProgram:
    """A set of rules with stratified fixpoint evaluation."""

    def __init__(self, rules: Sequence[Rule] = (), max_rounds: int = 10_000) -> None:
        self.rules: List[Rule] = list(rules)
        self.max_rounds = max_rounds
        #: Counters from the most recent :meth:`run` (None before any run).
        self.last_stats: Optional[FixpointStats] = None
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise OperationError(f"duplicate rule names in {names!r}")

    def add(self, rule: Rule) -> "RuleProgram":
        """Append a rule; returns ``self`` for chaining."""
        if any(existing.name == rule.name for existing in self.rules):
            raise OperationError(f"duplicate rule name {rule.name!r}")
        self.rules.append(rule)
        return self

    # ------------------------------------------------------------------
    # stratification
    # ------------------------------------------------------------------
    def strata(self) -> List[List[Rule]]:
        """Group the rules into evaluation strata.

        Label strata are computed by relaxation: a derived label must
        sit no lower than the derived labels its rules use positively,
        and strictly above those they negate.  A program needing more
        strata than it has labels contains a negative cycle.
        """
        derived: Dict[str, List[Rule]] = {}
        for rule in self.rules:
            for label in rule.derived_labels():
                derived.setdefault(label, []).append(rule)
        stratum: Dict[str, int] = {label: 0 for label in derived}
        limit = len(derived) + 1
        # a converged relaxation needs at most `limit` passes: each label's
        # final level is bounded by the number of negations on a path to
        # it, which is < len(derived) for stratifiable programs.  A pass
        # budget exhausted while levels still move therefore proves a
        # negative cycle — levels would climb forever.  (The levels
        # themselves may still all be small at that point: a long cycle
        # raises its maximum by only ~1 per cycle-length passes, so
        # checking levels against `limit` instead would let slow-growing
        # cycles through.)
        for _ in range(limit + 1):
            changed = False
            for rule in self.rules:
                heads = rule.derived_labels()
                floor = 0
                for label in rule.positive_labels():
                    if label in stratum:
                        floor = max(floor, stratum[label])
                for label in rule.negated_labels():
                    if label in stratum:
                        floor = max(floor, stratum[label] + 1)
                for head in heads:
                    if stratum[head] < floor:
                        stratum[head] = floor
                        changed = True
            if not changed:
                break
        else:
            raise StratificationError(
                "the rule program negates a label through its own derivation "
                f"cycle (stratification did not converge within {limit + 1} passes)"
            )
        # one more relaxation proves there is no pending increase
        for rule in self.rules:
            for label in rule.negated_labels():
                if label in stratum:
                    for head in rule.derived_labels():
                        if stratum[head] <= stratum[label]:
                            raise StratificationError(
                                f"rule {rule.name!r} negates {label!r} which its own "
                                "stratum derives"
                            )
        grouped: Dict[int, List[Rule]] = {}
        for rule in self.rules:
            level = max((stratum[h] for h in rule.derived_labels()), default=0)
            grouped.setdefault(level, []).append(rule)
        return [grouped[level] for level in sorted(grouped)]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def run(
        self,
        instance: Instance,
        in_place: bool = False,
    ) -> Tuple[Instance, List[OperationReport]]:
        """Derive the stratified fixpoint; return (instance, reports).

        Per-run counters land in :attr:`last_stats`.
        """
        working = instance if in_place else instance.copy(scheme=instance.scheme.copy())
        reports: List[OperationReport] = []
        stats = FixpointStats()
        for index, stratum_rules in enumerate(self.strata()):
            self._run_stratum_seminaive(working, stratum_rules, index, reports, stats)
        _counters.charge(fixpoint_runs=1)
        self.last_stats = stats
        return working, reports

    def _run_stratum_seminaive(
        self,
        working: Instance,
        stratum_rules: List[Rule],
        stratum_index: int,
        reports: List[OperationReport],
        stats: FixpointStats,
    ) -> None:
        """Semi-naive rounds: round k matches against round k-1's delta.

        Round 1 matches every rule fully (the stratum may consume
        labels derived by earlier strata, for which no delta exists).
        From round 2 on, a rule with a plain condition enumerates only
        the matchings that touch the previous round's delta; a matching
        entirely inside older structure was already enumerated in the
        round whose delta it touched, so nothing is lost — the
        differential property tests pin this down.  Crossed conditions
        fall back to full matching every round, and a plain condition
        falls back for one round when :func:`_delta_worthwhile` finds
        the delta as large as the estimated full result (counted in
        ``FixpointStats.fallbacks``).
        """
        rounds = 0
        delta: Optional[Delta] = None
        while True:
            rounds += 1
            if rounds > self.max_rounds:
                raise OperationError(
                    f"rule fixpoint did not converge within {self.max_rounds} rounds"
                )
            progress = False
            round_matchings = 0
            nodes_added = 0
            edges_added = 0
            mode = "full" if delta is None else "delta"
            delta_in = 0 if delta is None else len(delta)
            with working.track_changes() as new_delta:
                for rule in stratum_rules:
                    action = rule.action
                    if delta is None or isinstance(action.source_pattern, NegatedPattern):
                        report = action.apply(working)
                    else:
                        action.extend_scheme(working.scheme)
                        action.materialize_constants(working)
                        if not _delta_worthwhile(action.source_pattern, working, delta):
                            # the delta rivals the full result: one full
                            # rematch beats per-seed planned searches
                            stats.fallbacks += 1
                            report = action.apply(working)
                        else:
                            found = list(
                                find_matchings_delta(action.source_pattern, working, delta)
                            )
                            _guards.charge_matchings(len(found), delta=True)
                            _counters.charge(delta_matchings=len(found))
                            report = action.apply(working, matchings=found)
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
                    mode=mode,
                    delta_in=delta_in,
                    matchings=round_matchings,
                    nodes_added=nodes_added,
                    edges_added=edges_added,
                )
            )
            delta = new_delta
            if not progress:
                break


def derive(
    rules: Sequence[Rule],
    instance: Instance,
    in_place: bool = False,
) -> Instance:
    """One-call stratified fixpoint evaluation."""
    result, _ = RuleProgram(rules).run(instance, in_place=in_place)
    return result
