"""Modes of interpretation and pattern-directed browsing (Section 5).

"The GOOD transformation language has indeed been designed in such a
way that it can as well be used for querying, updating, scheme
manipulations, restructuring, browsing, and visualizing parts of a
complex instance.  A systematic treatment of these different 'modes of
interpretation' is given in [2]" — and "The interface provides ...
tools for pattern-directed browsing".

:class:`~repro.interactive.session.Session` provides those modes over
one object base:

* ``query(program)``    — run on a copy, return the result (the
  database is untouched);
* ``update(program)``   — run destructively as one transaction, keeping
  its undo journal so ``undo()`` can replay it backwards;
* ``extract(pattern)``  — the subinstance induced by a pattern's
  matchings ("visualizing parts of a complex instance");
* ``browse(node, …)``   — the neighbourhood subinstance around an
  object, hop by hop;
* ``focus(pattern, node)`` — pattern-directed browsing: jump to the
  objects a pattern selects and expand around them;
* ``to_dot()`` / ``show()`` — rendering hooks into :mod:`repro.viz`.
"""

from repro.interactive.session import Session, Subinstance

__all__ = ["Session", "Subinstance"]
