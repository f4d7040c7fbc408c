"""Integration tests for MVCC serving: lock-free reads, writer liveness.

Two contracts beyond what ``test_server.py`` already covers:

* **no read lock** — every query verb (``MATCH``, ``QUERY``,
  ``BROWSE``, ``EXPORT``, ``SAVE``) runs without acquiring *any* lock:
  the instrumented :class:`WriteMutex` observes zero acquisitions
  across all five verbs;
* **liveness** — a ``MATCH`` (a three-variable join over an
  all-knowing clique) is held mid-enumeration by a gate after its first
  matching, and the first 10 of 50 commits must be acknowledged before
  the test opens the gate; the other 40 race the MATCH's enumeration of
  the pinned snapshot.  Neither side waits for the other, and the MATCH
  still returns the exact pin-time count.  The gate, not the
  executor's speed, sets the overlap the assertions rely on.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import asynccontextmanager

import pytest

import repro.interactive.session as interactive_session
from repro.core import Instance, Scheme
from repro.io import scheme_to_json
from repro.server import BackgroundServer, Catalog, GoodClient, GoodServer
from repro.server.locks import WriteMutex

#: Seconds the gated MATCH waits to be let go; below ``GoodServer``'s
#: 30 s ``lock_timeout`` and the 120 s integration watchdog, so a
#: writer queued behind the MATCH fails the test instead of hanging it.
GATE_TIMEOUT = 10.0

#: Commits acknowledged while the MATCH is held before the test opens
#: its gate; the rest of the 50 then run against the live enumeration.
GATED_COMMITS = 10


def people_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    return scheme


@pytest.fixture
def served():
    catalog = Catalog()
    catalog.add("people", Instance(people_scheme()), backend="native")
    server = GoodServer(catalog, max_concurrent=8, max_queue=256)
    with BackgroundServer(server):
        host, port = server.address
        yield server, host, port


def connect(served):
    _, host, port = served
    return GoodClient(host, port)


def test_mvcc_server_uses_writer_only_mutex(served):
    server, _, _ = served
    lock = server.lock_for("people")
    assert isinstance(lock, WriteMutex)
    assert not hasattr(lock, "read_locked")


def test_read_verbs_acquire_no_lock(served, monkeypatch, tmp_path):
    """The acceptance assertion: all five query verbs run without a
    single acquisition of the only lock there is."""
    server, _, _ = served
    write_acquisitions: list = []

    original_write = WriteMutex.write_locked

    @asynccontextmanager
    async def counting_write(self, timeout=None):
        write_acquisitions.append(1)
        async with original_write(self, timeout):
            yield

    monkeypatch.setattr(WriteMutex, "write_locked", counting_write)

    with connect(served) as client:
        client.use("people")
        client.run('addnode Person(name -> n) { n: String = "ada" }')
        assert write_acquisitions == [1]  # the RUN took the writer mutex
        del write_acquisitions[:]
        client.match("{ p: Person }")
        client.query('addnode Person(name -> n) { n: String = "eve" }')
        person = client.match("{ p: Person }")["matchings"][0]["p"]
        client.browse(person, hops=1)
        client.export()
        client.save(str(tmp_path / "people.json"))
        assert write_acquisitions == []


def test_stats_surface_snapshot_and_lock_wait_counters(served):
    server, _, _ = served
    with connect(served) as client:
        client.use("people")
        client.run('addnode Person(name -> n) { n: String = "ada" }')
        client.match("{ p: Person }")
        client.query('addnode Person(name -> n) { n: String = "eve" }')
        client.create("scratch", scheme=scheme_to_json(people_scheme()))
        stats = client.stats()
    assert "mvcc" not in stats  # the flag went with the mode it reported
    bucket = stats["databases"]["people"]
    snapshots = bucket["snapshots"]
    assert snapshots["versions_published"] >= 2  # initial + the RUN
    assert snapshots["version_chain_length"] == 1  # nothing pinned now
    assert snapshots["snapshots_pinned"] == 0
    assert "versions_gced" in snapshots and "snapshot_bytes_shared" in snapshots
    # one sample per verb that took the write mutex: the RUN on this
    # database, plus the CREATE in the totals; the reads record nothing
    assert bucket["lock_wait"]["samples"] == 1
    assert stats["total"]["lock_wait"]["samples"] == 2


def test_long_match_overlaps_fifty_commits(served, monkeypatch):
    """Liveness both ways: 50 commits land against one pinned MATCH, the
    first ten while it is held mid-enumeration and the rest while it
    enumerates, and the MATCH answers with its pin-time state.

    A gate on the session's ``find_any`` holds the MATCH after its first
    matching until the first ``GATED_COMMITS`` commits are acknowledged,
    so that overlap is set by the test's sequencing, not by how fast the
    executor enumerates.  The gate then opens and the remaining commits
    run while the MATCH enumerates the pinned snapshot on the CPU, which
    races the commits against reads of state the live store shares with
    its snapshots (the plan cache, copy-on-write columns).  Were the
    writers queued behind the reader, no commit could be acknowledged,
    the gate would be let go only by its timeout, and ``released`` would
    be false."""
    server, _, _ = served
    n = 60
    # GOOD node addition is set-semantics (no duplicate creation), so
    # every seeded Person needs a distinguishing name
    setup = "\n".join(
        'addnode Person(name -> n) {{ n: String = "p{}" }}'.format(i) for i in range(n)
    )
    with connect(served) as seeder:
        seeder.use("people")
        seeder.run(setup)
        # one pattern-addition statement wires the full clique
        # (including self-loops): n^2 knows edges in one commit
        seeder.run("addedge { p: Person; q: Person } add p -knows->> q")

    database = server.catalog.get("people")
    triple = "{ p: Person; q: Person; r: Person; p -knows->> q; q -knows->> r }"
    outcome: dict = {}
    entered = threading.Event()
    release = threading.Event()
    # RUN matches through repro.core.operations, so only MATCH (and the
    # session's other read paths) reach the patched name
    original_find_any = interactive_session.find_any
    calls = itertools.count()

    def held(found):
        found = iter(found)
        yield next(found)
        entered.set()
        outcome["released"] = release.wait(timeout=GATE_TIMEOUT)
        yield from found

    def gated_find_any(pattern, instance):
        found = original_find_any(pattern, instance)
        # only the MATCH under test is held; the final count is not
        return held(found) if next(calls) == 0 else found

    monkeypatch.setattr(interactive_session, "find_any", gated_find_any)

    def held_match():
        with connect(served) as reader_client:
            reader_client.use("people")
            outcome["found"] = reader_client.match(triple, limit=1)
            outcome["done_at"] = time.perf_counter()

    reader = threading.Thread(target=held_match)
    reader.start()
    try:
        # the MATCH has pinned its snapshot and yielded one matching
        if not entered.wait(timeout=30):
            pytest.fail("MATCH never reached its first matching")
        assert database.snapshots.gauges()["snapshots_pinned"] == 1
        commit_times = []
        with connect(served) as writer:
            writer.use("people")
            for i in range(50):
                writer.run('addnode Person(name -> n) {{ n: String = "w{}" }}'.format(i))
                commit_times.append(time.perf_counter())
                if len(commit_times) == GATED_COMMITS:
                    # the rest of the commits race the live enumeration
                    release.set()
    finally:
        release.set()
        reader.join()

    # snapshot consistency: every triple over the pin-time clique, no
    # torn count from the 50 concurrent commits
    assert outcome["found"]["total"] == n**3
    # the test opened the gate: the first GATED_COMMITS commits were
    # acknowledged while the MATCH was held, not after its gate timed out
    assert outcome["released"]
    # liveness: the writers were not queued behind the reader (a
    # reader-writer lock would finish all 50 commits after the MATCH)
    commits_before_match_answered = sum(
        1 for finished in commit_times if finished < outcome["done_at"]
    )
    assert commits_before_match_answered >= 10
    # the live side kept all its commits
    with connect(served) as checker:
        checker.use("people")
        assert checker.match("{ p: Person }")["total"] == n + 50


def test_version_chain_drains_after_readers_finish(served):
    server, _, _ = served
    database = server.catalog.get("people")
    with connect(served) as client:
        client.use("people")
        for i in range(5):
            client.run('addnode Person(name -> n) {{ n: String = "p{}" }}'.format(i))
        client.match("{ p: Person }")
    gauges = database.snapshots.gauges()
    assert gauges["version_chain_length"] == 1
    assert gauges["snapshots_pinned"] == 0
    assert gauges["versions_published"] == 6  # initial publish + 5 RUNs
