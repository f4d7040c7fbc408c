"""Snapshot capture/restore over any transactional target.

The transaction layer is generic over *targets* — objects holding one
GOOD database state.  A target exposes four hooks (duck-typed, no
registration needed); query-mode runs on a live engine and every
:class:`~repro.txn.transaction.FailureReport` are built on them:

* ``capture_state() -> object`` — an opaque, self-contained snapshot of
  the full state (scheme included).  Capturing must not alias mutable
  structure with the live state;
* ``restore_state(state) -> None`` — reinstall a captured snapshot.
  Restoring **consumes** the snapshot: the captured store is installed
  directly (no second copy), so restoring the same snapshot twice
  raises.  Callers that need to restore a state repeatedly re-capture
  after restoring.  The *scheme object held by callers at capture
  time* is restored in place where possible, so patterns and sessions
  pointing at it see the rollback;
* ``state_summary() -> (node_count, edge_count)`` — cheap size census
  used for :class:`~repro.txn.transaction.FailureReport` deltas;
* ``check_invariants() -> None`` — re-validate every model constraint,
  raising on violation (used to certify a rollback).

:class:`~repro.core.instance.Instance`,
:class:`~repro.storage.engine.RelationalEngine` and
:class:`~repro.tarski.engine.TarskiEngine` all implement the hooks,
and the O(changes) undo-journal hooks
(``begin_journal``/``rollback_journal``, see :mod:`repro.txn.journal`)
that :class:`~repro.txn.transaction.Transaction` runs on.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.core.counters import charge as _charge
from repro.core.errors import TransactionError

_HOOKS = ("capture_state", "restore_state", "state_summary", "check_invariants")


class OneShotState:
    """A captured payload handed out by reference exactly once.

    Restoring a snapshot used to re-copy the captured structure so the
    snapshot stayed reusable; since single rollback is the dominant
    case, the copy is now skipped entirely — :meth:`take` transfers
    ownership of the payload to the restoring target and a second
    ``take`` fails loudly instead of silently aliasing live state.
    """

    __slots__ = ("_payload", "_consumed")

    def __init__(self, payload: Any) -> None:
        self._payload = payload
        self._consumed = False

    @property
    def consumed(self) -> bool:
        """Whether the payload was already taken."""
        return self._consumed

    def take(self) -> Any:
        """Hand the payload over (once); raises on reuse."""
        if self._consumed:
            raise TransactionError(
                "this snapshot was already consumed by a restore; "
                "re-capture the state before restoring it again"
            )
        payload = self._payload
        self._payload = None
        self._consumed = True
        return payload


def is_transactional(target: Any) -> bool:
    """Whether ``target`` exposes the full snapshot protocol."""
    return all(callable(getattr(target, hook, None)) for hook in _HOOKS)


def _require(target: Any) -> None:
    missing = [hook for hook in _HOOKS if not callable(getattr(target, hook, None))]
    if missing:
        raise TransactionError(
            f"{type(target).__name__} is not a transactional target "
            f"(missing hooks: {', '.join(missing)})"
        )


def capture(target: Any) -> Any:
    """Capture an opaque full-state snapshot of ``target``."""
    _require(target)
    _charge(txn_snapshot_captures=1)
    return target.capture_state()


def restore(target: Any, state: Any) -> None:
    """Reinstall a snapshot previously captured from ``target``."""
    _require(target)
    target.restore_state(state)


def summarize(target: Any) -> Tuple[int, int]:
    """``(node_count, edge_count)`` of the target's current state."""
    _require(target)
    return target.state_summary()
