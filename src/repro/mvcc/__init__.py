"""MVCC snapshot subsystem: immutable versions + refcounted registry.

Readers never block writers: every commit publishes a cheap
copy-on-write version of the database state
(:func:`~repro.mvcc.versions.capture_version`), a refcounted
:class:`~repro.mvcc.registry.SnapshotRegistry` pins versions for
in-flight readers and garbage-collects unpinned ones, and
:class:`~repro.mvcc.readers.SnapshotReader` serves every query verb
from a pinned version with no read lock at all.

The copy-on-write substrate is
:meth:`repro.graph.store.GraphStore.fork`: O(1) frozen forks; each
store carries a fork epoch and writes a container in place only when
the container carries it, cloning it first otherwise.  Only the native
store is served, so it is the only substrate versions are taken of.
"""

from repro.mvcc.registry import SnapshotRegistry
from repro.mvcc.versions import Version, capture_version

__all__ = ["SnapshotRegistry", "Version", "capture_version"]
