"""Integration tests for the served database: wire round trips and
concurrency semantics.

The concurrency test drives 9 threaded clients against one served
database and asserts the two contracts the server makes:

* **isolation** — a program run is atomic *and* invisible until commit:
  every writer adds Person nodes in pairs (two operations per RUN), so
  a reader observing an odd Person count has seen a torn intermediate
  state;
* **budget containment** — a session that exceeds its own resource
  budget gets a structured ``RESOURCE_LIMIT`` error while every other
  session proceeds untouched.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.core import Instance, Scheme
from repro.io.serialize import instance_to_json, scheme_to_json
from repro.server import (
    BackgroundServer,
    Catalog,
    GoodClient,
    GoodServer,
    RemoteError,
)


def people_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    return scheme


@pytest.fixture
def served():
    """A running server over one native 'people' database."""
    catalog = Catalog()
    catalog.add("people", Instance(people_scheme()))
    server = GoodServer(catalog, max_concurrent=8, max_queue=256)
    with BackgroundServer(server):
        host, port = server.address
        yield server, host, port


def connect(served):
    _, host, port = served
    return GoodClient(host, port)


# ----------------------------------------------------------------------
# wire round trips
# ----------------------------------------------------------------------


def test_hello_list_use_round_trip(served):
    with connect(served) as client:
        hello = client.hello()
        assert hello["protocol"] == 1
        assert [db["name"] for db in hello["databases"]] == ["people"]
        assert client.ping()
        using = client.use("people")
        assert using["using"]["backend"] == "native"


def test_run_match_query_round_trip(served):
    with connect(served) as client:
        name = "db"
        created = client.create(name, scheme=scheme_to_json(people_scheme()))
        assert created["created"]["nodes"] == 0
        client.use(name)
        result = client.run(
            'addnode Person(name -> n) { n: String = "ada" }\n'
            'addnode Person(name -> n) { n: String = "bob" }\n'
        )
        assert result["nodes"] == 4  # 2 Persons + 2 String constants
        found = client.match('{ p: Person; n: String = "ada"; p -name-> n }')
        assert found["total"] == 1
        # query mode leaves the served state untouched
        query = client.query('addnode Person(name -> n) { n: String = "eve" }')
        assert query["result_nodes"] == 6
        assert client.match("{ p: Person }")["total"] == 2
        exported = client.export()["instance"]
        assert len(exported["nodes"]) == 4
        client.drop(name)


def test_atomic_failure_rolls_back_over_the_wire(served):
    with connect(served) as client:
        client.use("people")
        client.run('addnode Person(name -> n) { n: String = "solo" }')
        # second statement fails (functional 'name' edge would conflict),
        # so the whole RUN must roll back, including the first statement
        with pytest.raises(RemoteError) as info:
            client.run(
                'addnode Person(name -> n) { n: String = "temp" }\n'
                'addedge { p: Person; a: String = "solo"; b: String = "temp";'
                " p -name-> a } add p -name-> b\n"
            )
        assert info.value.code in ("EDGE_CONFLICT", "OPERATION", "INSTANCE")
        report = info.value.details["failure_report"]
        assert report["completed_operations"] >= 1
        assert report["invariants_ok"] is True
        assert client.match("{ p: Person }")["total"] == 1  # only "solo"


def test_structured_errors(served):
    with connect(served) as client:
        with pytest.raises(RemoteError) as info:
            client.use("nope")
        assert info.value.code == "NO_SUCH_DATABASE"
        with pytest.raises(RemoteError) as info:
            client.call("FROB")
        assert info.value.code == "PROTOCOL"
        with pytest.raises(RemoteError) as info:
            client.call("MATCH", pattern="{}")  # no database selected
        assert info.value.code == "PROTOCOL"
        client.use("people")
        with pytest.raises(RemoteError) as info:
            client.run("addnode Nope(")
        assert info.value.code == "PARSE"
        with pytest.raises(RemoteError) as info:
            client.create("bad", instance={"format": 1, "scheme": scheme_to_json(people_scheme()), "nodes": [{"id": 1}], "edges": []})
        assert info.value.code == "BAD_PAYLOAD"
        assert "label" in str(info.value)


def _people_document():
    db = Instance(people_scheme())
    ada, bob = db.add_object("Person"), db.add_object("Person")
    db.add_edge(ada, "name", db.printable("String", "ada"))
    db.add_edge(ada, "knows", bob)
    return instance_to_json(db)


@pytest.mark.parametrize(
    "corrupt, located",
    [
        (lambda doc: doc["nodes"][1].update(id=0), r"nodes[1]: duplicate node id 0"),
        (lambda doc: doc["edges"][0].update(target=42), r"edges[0]: 'target' 42 names no node"),
    ],
    ids=["duplicate-id", "dangling-endpoint"],
)
def test_malformed_instance_document_is_bad_payload(served, corrupt, located):
    """A CREATE whose instance document breaks graph integrity is a
    located BAD_PAYLOAD, not an INTERNAL error, and creates nothing."""
    document = _people_document()
    corrupt(document)
    with connect(served) as client:
        with pytest.raises(RemoteError) as info:
            client.create("broken", instance=document)
        assert info.value.code == "BAD_PAYLOAD"
        assert located in str(info.value)
        assert "broken" not in [db["name"] for db in client.hello()["databases"]]


def test_malformed_frame_gets_protocol_error(served):
    _, host, port = served
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"this is not json\n")
        line = sock.makefile("rb").readline()
    response = json.loads(line)
    assert response["ok"] is False
    assert response["error"]["code"] == "PROTOCOL"


def test_undo_and_save_load(served, tmp_path):
    with connect(served) as client:
        client.use("people")
        client.run('addnode Person(name -> n) { n: String = "zoe" }')
        assert client.match("{ p: Person }")["total"] == 1
        undone = client.undo()
        assert undone["nodes"] == 0
        client.run('addnode Person(name -> n) { n: String = "zoe" }')
        path = str(tmp_path / "people.json")
        client.save(path)
        loaded = client.load("copy", path)
        assert loaded["loaded"]["nodes"] == 2
        assert client.match("{ p: Person }", db="copy")["total"] == 1
        client.drop("copy")


def test_stats_counters_are_live(served):
    with connect(served) as client:
        client.use("people")
        client.run('addnode Person(name -> n) { n: String = "st" }')
        client.match("{ p: Person }")
        client.match("{ p: Person }")
        stats = client.stats()
        bucket = stats["databases"]["people"]
        assert bucket["runs"] == 1
        assert bucket["queries"] == 2
        assert bucket["matchings_enumerated"] >= 3  # 1 (run) + 2 (matches)
        assert bucket["latency"]["samples"] >= 3
        assert bucket["latency"]["p50_ms"] is not None
        assert stats["total"]["requests"] >= 4  # USE + RUN + 2 MATCH
        assert stats["connections"]["open"] == 1


def test_stats_expose_fixpoint_counters(served):
    """A RUN with a recursive statement surfaces the semi-naive engine's
    per-database work split (full vs delta matchings, rounds) in STATS."""
    with connect(served) as client:
        name = "fixpoint"
        client.create(name, scheme=scheme_to_json(people_scheme()))
        client.use(name)
        program = "\n".join(
            [f'addnode Person(name -> n) {{ n: String = "p{i}" }}' for i in range(4)]
            + [
                'addedge { a: Person; na: String = "p%d"; a -name-> na;' % i
                + ' b: Person; nb: String = "p%d"; b -name-> nb } add a -knows->> b' % (i + 1)
                for i in range(3)
            ]
            + [
                "addedge { x: Person; y: Person; x -knows->> y } add x -reach->> y",
                "recursive addedge { x: Person; y: Person; z: Person;"
                " x -reach->> y; y -knows->> z } add x -reach->> z",
            ]
        )
        client.run(program)
        # the 4-chain closes to 6 reach pairs
        assert client.match("{ x: Person; y: Person; x -reach->> y }")["total"] == 6
        bucket = client.stats()["databases"][name]
        assert bucket["fixpoint_rounds"] >= 3  # 2 productive rounds + 1 empty
        assert bucket["delta_matchings"] >= 1  # rounds 2+ were delta-driven
        assert bucket["full_matchings"] >= 1  # round 1 matched in full
        client.drop(name)


def test_stats_expose_txn_counters_after_aborted_run(served):
    """An aborted RUN still charges its transaction work to STATS:
    the rollback itself and the undo-journal entries it replayed."""
    with connect(served) as client:
        client.use("people")
        client.run('addnode Person(name -> n) { n: String = "keep" }')
        before = client.stats()["databases"]["people"]
        with pytest.raises(RemoteError) as info:
            client.run(
                'addnode Person(name -> n) { n: String = "gone" }\n'
                'addedge { p: Person; a: String = "keep"; b: String = "gone";'
                " p -name-> a } add p -name-> b\n"
            )
        assert info.value.details["failure_report"]["invariants_ok"] is True
        bucket = client.stats()["databases"]["people"]
        assert bucket["txn_rollbacks"] == before["txn_rollbacks"] + 1
        assert bucket["rollbacks"] == before["rollbacks"] + 1
        assert bucket["txn_journal_entries"] > before["txn_journal_entries"]
        # journal transactions never captured a full snapshot
        assert bucket["txn_snapshot_captures"] == before["txn_snapshot_captures"]
        assert bucket["txn_bytes_avoided"] > before["txn_bytes_avoided"]
        # the aborted statement left no trace
        assert client.match("{ p: Person }")["total"] == 1


@pytest.mark.parametrize("backend", ["relational", "tarski"])
def test_engine_backends_are_refused(served, tmp_path, backend):
    """The Section 5 engines are library code: CREATE and LOAD naming
    one fail with a CATALOG error naming the migration and add nothing."""
    path = str(tmp_path / "people.json")
    with connect(served) as client:
        client.save(path, db="people")
        listed = client.list()
        requests = [
            ("CREATE", {"name": "rel", "scheme": scheme_to_json(people_scheme())}),
            ("LOAD", {"name": "rel", "path": path}),
        ]
        for verb, args in requests:
            with pytest.raises(RemoteError) as info:
                client.call(verb, backend=backend, **args)
            assert info.value.code == "CATALOG"
            message = str(info.value)
            assert repr(backend) in message and "EXPORT" in message and "LOAD" in message
        assert client.list() == listed


def test_create_from_instance_document(served, tiny_instance):
    with connect(served) as client:
        client.create("tiny", instance=instance_to_json(tiny_instance))
        assert client.match("{ p: Person }", db="tiny")["total"] == 3
        client.drop("tiny")


# ----------------------------------------------------------------------
# concurrency semantics
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_concurrent_clients_isolation_and_budgets(served):
    """≥8 threaded clients: no torn reads, budgets contained per session."""
    server, host, port = served
    writers, readers = 4, 4
    runs_per_writer, reads_per_reader = 12, 30
    errors = []
    torn = []
    budget_outcomes = {}
    start = threading.Barrier(writers + readers + 1)

    def writer(index):
        try:
            with GoodClient(host, port) as client:
                client.use("people")
                start.wait()
                for i in range(runs_per_writer):
                    # one atomic RUN adds exactly two Persons
                    client.run(
                        f'addnode Person(name -> n) {{ n: String = "w{index}-{i}-a" }}\n'
                        f'addnode Person(name -> n) {{ n: String = "w{index}-{i}-b" }}\n'
                    )
        except Exception as error:  # pragma: no cover - diagnostic
            errors.append(error)

    def reader(index):
        try:
            with GoodClient(host, port) as client:
                client.use("people")
                start.wait()
                for _ in range(reads_per_reader):
                    count = client.match("{ p: Person }")["total"]
                    if count % 2:
                        torn.append(count)
        except Exception as error:  # pragma: no cover - diagnostic
            errors.append(error)

    def greedy():
        try:
            with GoodClient(host, port) as client:
                client.use("people")
                start.wait()
                # wait until at least one writer pair has committed, so a
                # Person scan always enumerates >= 2 matchings from here on
                while client.match("{ p: Person }")["total"] < 2:
                    pass
                client.limit(max_matchings=1)
                hits = 0
                for _ in range(5):
                    try:
                        client.match("{ p: Person }")
                    except RemoteError as error:
                        assert error.code == "RESOURCE_LIMIT"
                        hits += 1
                budget_outcomes["limit_hits"] = hits
                # the budget is per-session: lifting it restores service
                client.limit(max_matchings=1_000_000)
                budget_outcomes["after"] = client.match("{ p: Person }")["total"]
        except Exception as error:  # pragma: no cover - diagnostic
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
    threads += [threading.Thread(target=reader, args=(i,)) for i in range(readers)]
    threads.append(threading.Thread(target=greedy))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert not torn, f"torn reads observed: {torn}"
    # every committed write is visible at the end
    with GoodClient(host, port) as client:
        client.use("people")
        final = client.match("{ p: Person }")["total"]
        assert final == writers * runs_per_writer * 2
        stats = client.stats()
        assert stats["databases"]["people"]["runs"] == writers * runs_per_writer
    # the greedy client saw RESOURCE_LIMIT errors while everyone proceeded,
    # and lifting its own budget restored service mid-flight
    assert budget_outcomes["limit_hits"] == 5
    assert budget_outcomes["after"] >= 2
    assert budget_outcomes["after"] % 2 == 0
