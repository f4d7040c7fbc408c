"""Declarative graph rules — the Section 5 outlook, implemented.

"Although GOOD programs are written in a procedural way, the basic
operations ... have a partly declarative nature.  Indeed, the pattern
of such an operation can be seen as the (declarative) condition part
of a rule, while the bold or outlined part corresponds to a rule's
action ...  This simple mechanism for visualization of rules can
provide a basis for the development of graph-based, rule-based,
object-oriented database languages [G-Log]."

This package takes that remark seriously:

* :class:`~repro.rules.engine.Rule` — a named condition/action pair:
  the condition is a (possibly crossed) pattern, the action a node or
  edge addition over it;
* :class:`~repro.rules.engine.RuleProgram` — a set of rules evaluated
  to a simultaneous fixpoint, round-robin, with a stratification check
  for rules whose conditions negate labels other rules derive (the
  classical requirement for a well-defined least model);
* :func:`~repro.rules.engine.derive` — one-call evaluation.

Rules reuse the basic operations' semantics (the additions are exactly
NA/EA with the reuse check), so the fixpoint is the natural recursive
extension of the paper's language — equivalent to the Section 4.1
starred macros where those apply, and strictly more convenient for
mutually recursive derivations.
"""

from repro.rules.engine import (
    FixpointStats,
    RoundStats,
    Rule,
    RuleProgram,
    StratificationError,
    derive,
)

__all__ = [
    "FixpointStats",
    "RoundStats",
    "Rule",
    "RuleProgram",
    "StratificationError",
    "derive",
]
