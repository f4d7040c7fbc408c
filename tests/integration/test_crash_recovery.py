"""Crash-recovery integration tests: kill the server mid-commit, restart,
verify the durability contract.

The contract, per crash site:

* a commit **acknowledged** to the client is present after recovery —
  always, at every site;
* a commit that died **before its record was durable**
  (``wal.append.before``, ``wal.append.torn``, ``wal.fsync.before``)
  is absent after recovery — the client never got an ack, so absence
  is the correct outcome;
* a commit that died **after the fsync but before the ack**
  (``wal.fsync.after``) is present after recovery: durable-but-unacked
  is the classic window every WAL system has, and recovery must keep
  it (the client is expected to re-check, not re-run blindly);
* a crash anywhere inside the checkpoint protocol loses nothing.

The "kill" is a :class:`repro.txn.faults.CrashError` raised at an
armed crash point on the server's worker thread — it derives from
``BaseException`` so no engine code can swallow it, the connection
dies without a response (the client sees EOF, not an ack), and the
poisoned writer refuses further work exactly like a dead process.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import Scheme
from repro.io.serialize import scheme_to_json
from repro.server import BackgroundServer, GoodClient, GoodServer
from repro.server.client import RemoteError
from repro.server.protocol import ProtocolError
from repro.txn import faults
from repro.wal import DataDirLockedError, WalFormatError, recover_catalog
from repro.wal.checkpoint import checkpoint_name, segment_name

pytestmark = pytest.mark.faults

#: site -> is the in-flight commit present after recovery?
CRASH_SITES = {
    "wal.append.before": False,
    "wal.append.torn": False,
    "wal.fsync.before": False,
    "wal.fsync.after": True,
}

CHECKPOINT_SITES = ("wal.checkpoint.written", "wal.checkpoint.renamed", "wal.checkpoint.after")


def scheme_doc():
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    return scheme_to_json(scheme)


def add_person(client, name, db=None):
    return client.run(
        f'addnode Person(name -> n) {{ n: String = "{name}" }}',
        **({"db": db} if db else {}),
    )


class Served:
    """One durable serving episode over a data directory."""

    def __init__(self, root, policy="always", checkpoint_bytes=0):
        self.catalog, self.report = recover_catalog(
            root, fsync_policy=policy, checkpoint_bytes=checkpoint_bytes
        )
        self.background = BackgroundServer(GoodServer(self.catalog, port=0))
        self.host, self.port = self.background.start()

    def client(self):
        return GoodClient(self.host, self.port)

    def stop(self):
        self.background.stop()
        self.catalog.close_durability()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.stop()


def recovered_counts(root, name):
    catalog, report = recover_catalog(root)
    try:
        return catalog.get(name).counts(), report
    finally:
        catalog.close_durability()


def recovered_names(root, name):
    """The sorted print values of the recovered database's strings."""
    catalog, _ = recover_catalog(root)
    try:
        instance = catalog.get(name).to_instance()
        return sorted(instance.print_of(node) for node in instance.nodes_with_label("String"))
    finally:
        catalog.close_durability()


class TestCrashSiteSweep:
    @pytest.mark.parametrize("site", sorted(CRASH_SITES))
    def test_acked_present_unacked_by_site(self, tmp_path, site):
        root = tmp_path / "data"
        served = Served(root)
        try:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                acked = add_person(client, "acked")
                acked_counts = (acked["nodes"], acked["edges"])
            plan = faults.arm_crash(site)
            try:
                with served.client() as client:
                    client.use("g")
                    with pytest.raises((ProtocolError, Exception)) as failure:
                        add_person(client, "doomed")
                assert plan.fired, f"crash point {site} never fired"
                assert failure.type is not None
            finally:
                faults.disarm_crash(plan)
        finally:
            served.stop()

        counts, report = recovered_counts(root, "g")
        entry = report.databases[0]
        if CRASH_SITES[site]:
            # durable-but-unacked: the record was fsynced before the
            # crash, so recovery must keep it
            assert counts > acked_counts, (site, counts)
        else:
            assert counts == acked_counts, (site, counts)
            assert entry["torn_records"] == (1 if site == "wal.append.torn" else 0)

    @pytest.mark.parametrize("site", sorted(CRASH_SITES))
    def test_undo_in_history_by_site(self, tmp_path, site):
        """UNDO is a commit: an acknowledged UNDO survives the crash,
        and a crash inside an UNDO keeps or drops it by RUN's rule."""
        root = tmp_path / "data"
        served = Served(root)
        try:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                add_person(client, "kept")
                add_person(client, "undone")
                client.undo()
                add_person(client, "last")
            plan = faults.arm_crash(site)
            try:
                with served.client() as client:
                    client.use("g")
                    with pytest.raises((ProtocolError, Exception)):
                        client.undo()  # would take "last" back
                assert plan.fired, f"crash point {site} never fired"
            finally:
                faults.disarm_crash(plan)
        finally:
            served.stop()

        expected = ["kept"] if CRASH_SITES[site] else ["kept", "last"]
        assert recovered_names(root, "g") == expected, site

    def test_aborted_run_is_never_resurrected(self, tmp_path):
        """A program that fails its own atomic run writes no WAL record
        at all — recovery cannot resurrect it."""
        root = tmp_path / "data"
        with Served(root) as served:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                acked = add_person(client, "kept")
                acked_counts = (acked["nodes"], acked["edges"])
                with pytest.raises(Exception):
                    # undefined edge addition: fails mid-run, rolls back
                    client.run(
                        'addnode Person(name -> n) { n: String = "gone" }\n'
                        "addedge knows(p, p) { p: Person, q: Nope }"
                    )
            segment = root / "g" / segment_name(0)
            appended = segment.read_bytes().count(b"\n")
            assert appended == 1  # only the acked commit

        counts, _ = recovered_counts(root, "g")
        assert counts == acked_counts


class TestCheckpointCrashes:
    @pytest.mark.parametrize("site", CHECKPOINT_SITES)
    def test_crash_inside_checkpoint_loses_nothing(self, tmp_path, site):
        root = tmp_path / "data"
        served = Served(root)
        try:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                add_person(client, "one")
                result = add_person(client, "two")
                state = (result["nodes"], result["edges"])
            plan = faults.arm_crash(site)
            try:
                with served.client() as client:
                    with pytest.raises((ProtocolError, Exception)):
                        client.checkpoint(db="g")
                assert plan.fired
            finally:
                faults.disarm_crash(plan)
        finally:
            served.stop()
        counts, _ = recovered_counts(root, "g")
        assert counts == state

    def test_clean_checkpoint_roundtrip(self, tmp_path):
        root = tmp_path / "data"
        with Served(root) as served:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                add_person(client, "one")
                info = client.checkpoint()
                assert info["epoch"] == 1
                result = add_person(client, "two")
                state = (result["nodes"], result["edges"])
                stats = client.stats()["databases"]["g"]
                assert stats["checkpoints"] == 1
                assert stats["wal_appends"] >= 2
                assert stats["wal_fsyncs"] >= 2
        counts, report = recovered_counts(root, "g")
        assert counts == state
        entry = report.databases[0]
        assert entry["epoch"] == 1
        # only the post-checkpoint commit needed replaying
        assert entry["records_replayed"] == 1


class TestCorruptCheckpoint:
    #: case -> what the recovery error must say
    CORRUPTIONS = {"duplicate-id": "duplicate node id", "duplicate-print": "duplicate printable node"}

    @staticmethod
    def corrupt(instance, case):
        """Break the checkpoint's columnar instance document."""
        if case == "duplicate-id":
            instance["node_ids"][1] = instance["node_ids"][0]
        else:  # both String nodes print "one": value uniqueness broken
            instance["prints"][1][1] = instance["prints"][0][1]

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_instance_document_fails_recovery_naming_the_file(self, tmp_path, case):
        root = tmp_path / "data"
        with Served(root) as served:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                add_person(client, "one")
                add_person(client, "two")
                assert client.checkpoint()["epoch"] == 1
        path = root / "g" / checkpoint_name(1)
        doc = json.loads(path.read_text())
        self.corrupt(doc["instance"], case)
        path.write_text(json.dumps(doc))
        with pytest.raises(WalFormatError) as failure:
            recover_catalog(root)
        assert str(failure.value).startswith(f"{path}: corrupt checkpoint instance")
        assert self.CORRUPTIONS[case] in str(failure.value)
        # the failed recovery released the data directory
        with pytest.raises(WalFormatError):
            recover_catalog(root)


class TestCorruptSegment:
    def test_mid_segment_corruption_fails_recovery_untouched(self, tmp_path):
        """A damaged record with acknowledged commits after it is not a
        torn tail: recovery refuses it, naming the segment, and leaves
        every byte in place for an operator to salvage."""
        root = tmp_path / "data"
        with Served(root) as served:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                for name in ("one", "two", "three"):
                    add_person(client, name)
        segment = root / "g" / segment_name(0)
        data = bytearray(segment.read_bytes())
        data[data.index(b"\n") + 12] ^= 0x01  # inside the second record
        segment.write_bytes(bytes(data))
        with pytest.raises(WalFormatError) as failure:
            recover_catalog(root)
        assert str(failure.value).startswith(f"{segment}: corrupt record at byte")
        assert segment.read_bytes() == bytes(data)
        # the failed recovery released the data directory
        with pytest.raises(WalFormatError):
            recover_catalog(root)


class TestCheckpointCommitRaces:
    """Checkpoints stream from a pinned snapshot *after* rotating the
    WAL, so commits race the streaming half.  A crash mid-stream must
    lose neither the pre-rotation commits (in the old segment or the
    previous checkpoint) nor anything committed after the rotation."""

    # site -> (chosen checkpoint epoch, segments replayed, records replayed)
    RACE_OUTCOMES = {
        # died streaming checkpoint-2: recovery falls back to
        # checkpoint-1 and replays wal-1 (the "two" commit) + empty wal-2
        "wal.checkpoint.written": (1, 2, 1),
        # checkpoint-2 became durable before the crash: nothing to replay
        "wal.checkpoint.renamed": (2, 1, 0),
        "wal.checkpoint.after": (2, 1, 0),
    }

    @pytest.mark.parametrize("site", sorted(RACE_OUTCOMES))
    def test_commit_between_checkpoints_survives_stream_crash(self, tmp_path, site):
        root = tmp_path / "data"
        served = Served(root)
        try:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                add_person(client, "one")
                assert client.checkpoint()["epoch"] == 1
                result = add_person(client, "two")  # lands in wal-1
                state = (result["nodes"], result["edges"])
            plan = faults.arm_crash(site)
            try:
                with served.client() as client:
                    with pytest.raises((ProtocolError, Exception)):
                        client.checkpoint(db="g")  # rotates to wal-2, dies
                assert plan.fired
            finally:
                faults.disarm_crash(plan)
        finally:
            served.stop()
        counts, report = recovered_counts(root, "g")
        assert counts == state
        entry = report.databases[0]
        epoch, segments, records = self.RACE_OUTCOMES[site]
        assert entry["epoch"] == epoch
        assert entry["segments_replayed"] == segments
        assert entry["records_replayed"] == records

    def test_commits_racing_auto_checkpoints_all_recover(self, tmp_path):
        """checkpoint_bytes=1 makes every commit trigger an off-lock
        checkpoint stream; concurrent writers keep committing into the
        fresh segments while streams are in flight."""
        root = tmp_path / "data"
        workers, per_worker = 4, 5
        with Served(root, checkpoint_bytes=1) as served:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
            errors = []
            barrier = threading.Barrier(workers)

            def commit(i):
                try:
                    with served.client() as client:
                        barrier.wait()
                        for j in range(per_worker):
                            add_person(client, f"p{i}-{j}", db="g")
                except Exception as error:  # pragma: no cover - fails the test
                    errors.append(error)

            threads = [threading.Thread(target=commit, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            with served.client() as client:
                final_nodes = len(client.export(db="g")["instance"]["nodes"])
                stats = client.stats()["databases"]["g"]
            assert stats["checkpoints"] >= 1
        counts, _ = recovered_counts(root, "g")
        assert counts[0] == final_nodes


class TestGroupCommit:
    def test_concurrent_acked_commits_all_recover(self, tmp_path):
        root = tmp_path / "data"
        workers = 6
        with Served(root, policy="group:5") as served:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
            errors = []
            barrier = threading.Barrier(workers)

            def commit(i):
                try:
                    with served.client() as client:
                        barrier.wait()
                        add_person(client, f"p{i}", db="g")
                except Exception as error:  # pragma: no cover - fails the test
                    errors.append(error)

            threads = [threading.Thread(target=commit, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            with served.client() as client:
                final = client.export(db="g")
                nodes = len(final["instance"]["nodes"])
                stats = client.stats()["databases"]["g"]
            # every commit appended, but the group window coalesced at
            # least some of the fsyncs
            assert stats["wal_appends"] >= workers
        counts, report = recovered_counts(root, "g")
        assert counts[0] == nodes
        assert report.databases[0]["records_replayed"] >= workers


class TestUndoDurability:
    def test_undo_survives_restart(self, tmp_path):
        root = tmp_path / "data"
        with Served(root) as served:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                add_person(client, "keep")
                add_person(client, "drop")
                undone = client.undo()
                state = (undone["nodes"], undone["edges"])
        counts, report = recovered_counts(root, "g")
        assert counts == state
        # the UNDO is an ordinary commit record, not a reset
        assert report.databases[0]["resets_replayed"] == 0
        assert report.databases[0]["commits_replayed"] == 3

    def test_undo_after_restart_has_nothing_to_undo(self, tmp_path):
        root = tmp_path / "data"
        with Served(root) as served:
            with served.client() as client:
                client.create("g", scheme=scheme_doc())
                client.use("g")
                add_person(client, "kept")
        with Served(root) as served:
            with served.client() as client:
                client.use("g")
                with pytest.raises(RemoteError, match="nothing to undo"):
                    client.undo()
        assert recovered_names(root, "g") == ["kept"]


class TestDataDirLock:
    def test_live_data_dir_refuses_second_server(self, tmp_path):
        root = tmp_path / "data"
        with Served(root):
            with pytest.raises(DataDirLockedError):
                recover_catalog(root)
        # released on stop: recovery proceeds
        catalog, _ = recover_catalog(root)
        catalog.close_durability()


class TestRestartCycles:
    def test_state_accumulates_across_restarts(self, tmp_path):
        root = tmp_path / "data"
        expected = None
        for round_ in range(3):
            with Served(root) as served:
                with served.client() as client:
                    if round_ == 0:
                        client.create("g", scheme=scheme_doc())
                    client.use("g")
                    if expected is not None:
                        described = client.use("g")["using"]
                        assert (described["nodes"], described["edges"]) == expected
                    result = add_person(client, f"round{round_}")
                    expected = (result["nodes"], result["edges"])
        counts, _ = recovered_counts(root, "g")
        assert counts == expected
