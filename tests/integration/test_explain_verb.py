"""Integration tests: the EXPLAIN verb and the planner counters,
driven through :class:`GoodClient`.

EXPLAIN must round-trip a plan description for a DSL pattern, and the
per-database ``STATS`` buckets must pick up the planner's
cache-hit/miss and index-probe tallies from both EXPLAIN and MATCH
requests.
"""

from __future__ import annotations

import pytest

from repro.core import Instance, Scheme
from repro.server import BackgroundServer, Catalog, GoodClient, GoodServer, RemoteError

PATTERN = "{ x: Person; y: Person; x -knows->> y }"


def people_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    return scheme


def people_instance() -> Instance:
    db = Instance(people_scheme())
    alice = db.add_object("Person")
    bob = db.add_object("Person")
    carol = db.add_object("Person")
    db.add_edge(alice, "name", db.printable("String", "alice"))
    db.add_edge(alice, "knows", bob)
    db.add_edge(bob, "knows", carol)
    return db


@pytest.fixture
def served():
    """One running server over one 'people' database."""
    catalog = Catalog()
    catalog.add("people", people_instance())
    server = GoodServer(catalog, max_concurrent=4, max_queue=64)
    with BackgroundServer(server):
        host, port = server.address
        yield server, host, port


def test_explain_round_trips_a_plan(served):
    _, host, port = served
    with GoodClient(host, port) as client:
        explained = client.explain(PATTERN, db="people")
        assert explained["backend"] == "native"
        assert explained["crossed_extensions"] == 0
        assert set(explained["bindings"]) == {"x", "y"}
        text = explained["text"]
        assert text.splitlines()[0].startswith("PlanPipeline(2 nodes, 1 edges;")
        plan = explained["plan"]
        assert plan["nodes"] == 2 and plan["edges"] == 1
        assert plan["steps"], "plan must carry at least one step"
        assert all("describe" in step and "op" in step for step in plan["steps"])
        assert plan["text"] == text.partition("\nAntiJoin")[0]
        # the plan really describes this pattern's single knows-edge
        assert any("knows" in step["describe"] for step in plan["steps"])


def test_explain_cache_hit_on_native_backend(served):
    """EXPLAIN plans on the live instance, so the second EXPLAIN of the
    same pattern is answered from the plan cache."""
    _, host, port = served
    with GoodClient(host, port) as client:
        first = client.explain(PATTERN, db="people")
        second = client.explain(PATTERN, db="people")
        assert not first["cached"]
        assert second["cached"]
        stats = client.stats()["databases"]["people"]
        assert stats["plan_cache_hits"] >= 1
        assert stats["plan_cache_misses"] >= 1


def test_match_counts_its_matchings(served):
    _, host, port = served
    with GoodClient(host, port) as client:
        found = client.match(PATTERN, db="people")
        assert found["total"] == 2
        stats = client.stats()["databases"]["people"]
        assert stats["matchings_enumerated"] == 2


def test_native_match_charges_planner_counters(served):
    """The native matcher runs through the planner executor, so MATCH
    accounts its index probes and plan-cache traffic."""
    _, host, port = served
    with GoodClient(host, port) as client:
        client.match(PATTERN, db="people")
        stats = client.stats()["databases"]["people"]
        assert stats["index_probes"] >= 1
        assert stats["plan_cache_hits"] + stats["plan_cache_misses"] >= 1


def test_explain_invalid_pattern_is_structured(served):
    _, host, port = served
    with GoodClient(host, port) as client:
        with pytest.raises(RemoteError) as excinfo:
            client.explain("{ x: Nope }", db="people")
        assert excinfo.value.code == "PARSE"


def test_stats_snapshot_carries_planner_keys(served):
    _, host, port = served
    with GoodClient(host, port) as client:
        total = client.stats()["total"]
        for key in (
            "plan_cache_hits",
            "plan_cache_misses",
            "index_probes",
            "index_builds",
            "leapfrog_seeks",
            "intersections",
        ):
            assert key in total


def test_explain_reports_the_join_strategy(served):
    """EXPLAIN surfaces the planner's strategy decision; a sparse
    acyclic pattern is a left-deep pipeline."""
    _, host, port = served
    with GoodClient(host, port) as client:
        explained = client.explain(PATTERN, db="people")
        assert explained["strategy"] == "left-deep"
        assert explained["plan"]["strategy"] == "left-deep"
        assert "strategy=left-deep" in explained["text"]


TRIANGLE = (
    "{ x: Person; y: Person; z: Person; "
    "x -knows->> y; y -knows->> z; x -knows->> z }"
)


def dense_people_instance() -> Instance:
    import random

    db = Instance(people_scheme())
    people = [db.add_object("Person") for _ in range(24)]
    rng = random.Random(5)
    for person in people:
        for other in rng.sample(people, 6):
            db.add_edge(person, "knows", other)
    return db


def test_dense_triangle_explains_as_multiway():
    """A cyclic pattern over a dense edge label routes to the multiway
    discipline, and EXPLAIN says so."""
    catalog = Catalog()
    catalog.add("dense", dense_people_instance())
    server = GoodServer(catalog, max_concurrent=2, max_queue=16)
    with BackgroundServer(server):
        host, port = server.address
        with GoodClient(host, port) as client:
            explained = client.explain(TRIANGLE, db="dense")
            assert explained["strategy"] == "multiway"
            assert "MultiwayIntersect" in explained["text"]
            found = client.match(TRIANGLE, db="dense")
            assert found["total"] > 0
            stats = client.stats()["databases"]["dense"]
            assert stats["intersections"] > 0
            assert stats["index_builds"] >= 1
