"""Unit tests for the durability layer (`repro.wal`).

Covers the record framing (CRC, tuple-safe JSON), the segment writer's
fsync policies and poisoning discipline, torn-tail detection at every
byte offset, the streaming instance serializer, the checkpoint publish
protocol, and the data directory's locking and atomic create/drop.
"""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro.core import Instance, Scheme
from repro.hypermedia import build_instance, build_scheme
from repro.io.serialize import instance_to_json, scheme_to_json, write_instance
from repro.txn import faults
from repro.wal import (
    DataDirectory,
    DataDirLockedError,
    FsyncPolicy,
    WalError,
    WalReader,
    WalWriter,
    parse_fsync_policy,
    recover_catalog,
)
from repro.wal.checkpoint import (
    checkpoint_name,
    load_checkpoint,
    segment_name,
    write_checkpoint,
)
from repro.wal.record import (
    BINARY_MAGIC,
    WalFormatError,
    decode_line,
    encode_record,
    scan_records,
)


def small_scheme():
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    return scheme


# ----------------------------------------------------------------------
# record framing
# ----------------------------------------------------------------------


class TestRecordFraming:
    #: every JSON value type a record carries
    DOC = {
        "kind": "commit",
        "lsn": 7,
        "redo": [{"op": "add_edge", "source": 3, "lid": 2, "target": -4}],
        "pair": ["v", 1.5],
        "flag": True,
        "missing": None,
        "big": 1 << 40,
    }

    def test_roundtrip(self):
        doc = {"kind": "commit", "lsn": 7, "redo": [{"op": "add_node", "id": 3}]}
        assert decode_line(encode_record(doc)) == doc

    def test_roundtrip_preserves_every_type(self):
        frame = encode_record(self.DOC)
        records, valid, torn = scan_records(frame)
        assert valid == len(frame) and torn == 0
        assert records == [self.DOC]

    def test_torn_tail_at_every_byte(self):
        good = encode_record({"lsn": 1}) + encode_record({"lsn": 2})
        final = encode_record(self.DOC)
        for cut in range(1, len(final)):
            records, valid, torn = scan_records(good + final[:cut])
            assert [r["lsn"] for r in records] == [1, 2], f"cut={cut}"
            assert valid == len(good) and torn == 1, f"cut={cut}"

    def test_crc_rejects_flipped_byte(self):
        line = bytearray(encode_record({"kind": "commit", "lsn": 1}))
        line[len(line) // 2] ^= 0x01
        with pytest.raises(WalFormatError):
            decode_line(bytes(line))

    def test_rejects_non_hex_checksum(self):
        with pytest.raises(WalFormatError):
            decode_line(b'zzzzzzzz {"kind":"commit"}\n')

    def test_rejects_short_line(self):
        with pytest.raises(WalFormatError):
            decode_line(b"ab\n")

    def test_rejects_non_object_payload(self):
        import zlib

        payload = b"[1,2,3]"
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        with pytest.raises(WalFormatError):
            decode_line(f"{crc:08x} ".encode() + payload + b"\n")

    def test_scan_stops_at_torn_tail(self):
        good = encode_record({"lsn": 1}) + encode_record({"lsn": 2})
        torn = encode_record({"lsn": 3})[:-5]
        records, valid, dropped = scan_records(good + torn)
        assert [r["lsn"] for r in records] == [1, 2]
        assert valid == len(good)
        assert dropped == 1

    def test_scan_clean_segment(self):
        data = encode_record({"lsn": 1})
        records, valid, dropped = scan_records(data)
        assert len(records) == 1 and valid == len(data) and dropped == 0


# ----------------------------------------------------------------------
# fsync policies
# ----------------------------------------------------------------------


class TestFsyncPolicy:
    def test_parse_forms(self):
        assert parse_fsync_policy("always").mode == FsyncPolicy.ALWAYS
        assert parse_fsync_policy("off").mode == FsyncPolicy.OFF
        group = parse_fsync_policy("group:5")
        assert group.mode == FsyncPolicy.GROUP and group.group_delay_ms == 5.0
        assert parse_fsync_policy("group").group_delay_ms == 0.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(WalError):
            parse_fsync_policy("sometimes")
        with pytest.raises(WalError):
            parse_fsync_policy("group:often")

    def test_str_roundtrip(self):
        for text in ("always", "off", "group:2.5"):
            assert str(parse_fsync_policy(text)) == text


class TestWalWriter:
    def test_always_policy_syncs_inline(self, tmp_path):
        writer = WalWriter(tmp_path / "w.ndjson", "always")
        ticket = writer.append({"lsn": 1})
        assert ticket.done
        ticket.wait(0)
        assert writer.fsyncs == 1 and writer.appends == 1
        assert writer.synced_offset == writer.written_offset
        writer.close()

    def test_off_policy_never_syncs(self, tmp_path):
        writer = WalWriter(tmp_path / "w.ndjson", "off")
        for lsn in range(5):
            writer.append({"lsn": lsn}).wait(0)
        assert writer.fsyncs == 0 and writer.appends == 5
        writer.close()
        records, _, torn = WalReader.scan(tmp_path / "w.ndjson")
        assert len(records) == 5 and torn == 0

    def test_group_policy_coalesces_fsyncs(self, tmp_path):
        writer = WalWriter(tmp_path / "w.ndjson", "group:10")
        tickets = []
        barrier = threading.Barrier(8)

        def commit(i):
            barrier.wait()
            tickets.append(writer.append({"lsn": i}))

        threads = [threading.Thread(target=commit, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for ticket in tickets:
            ticket.wait(10.0)
        assert writer.appends == 8
        assert 1 <= writer.fsyncs < 8
        writer.close()

    def test_append_after_crash_is_poisoned(self, tmp_path):
        writer = WalWriter(tmp_path / "w.ndjson", "always")
        writer.append({"lsn": 1}).wait(0)
        plan = faults.arm_crash("wal.append.before")
        try:
            with pytest.raises(faults.CrashError):
                writer.append({"lsn": 2})
        finally:
            faults.disarm_crash(plan)
        assert writer.poisoned is not None
        with pytest.raises(WalError):
            writer.append({"lsn": 3})
        writer.close()
        records, _, _ = WalReader.scan(tmp_path / "w.ndjson")
        assert [r["lsn"] for r in records] == [1]

    def test_fsync_before_crash_truncates_to_synced(self, tmp_path):
        writer = WalWriter(tmp_path / "w.ndjson", "always")
        writer.append({"lsn": 1}).wait(0)
        durable = writer.synced_offset
        plan = faults.arm_crash("wal.fsync.before")
        try:
            with pytest.raises(faults.CrashError):
                writer.append({"lsn": 2})
        finally:
            faults.disarm_crash(plan)
        writer.close(flush=False)
        # the un-fsynced bytes died with the simulated power loss
        assert (tmp_path / "w.ndjson").stat().st_size == durable
        records, _, torn = WalReader.scan(tmp_path / "w.ndjson")
        assert [r["lsn"] for r in records] == [1] and torn == 0

    def test_torn_append_leaves_partial_record(self, tmp_path):
        writer = WalWriter(tmp_path / "w.ndjson", "always")
        writer.append({"lsn": 1}).wait(0)
        plan = faults.arm_crash("wal.append.torn")
        try:
            with pytest.raises(faults.CrashError):
                writer.append({"lsn": 2})
        finally:
            faults.disarm_crash(plan)
        writer.close(flush=False)
        records, torn = WalReader.scan_and_truncate(tmp_path / "w.ndjson")
        assert [r["lsn"] for r in records] == [1] and torn == 1
        # after truncation the segment re-scans cleanly
        records2, _, torn2 = WalReader.scan(tmp_path / "w.ndjson")
        assert len(records2) == 1 and torn2 == 0

    def test_rotate_switches_segments(self, tmp_path):
        writer = WalWriter(tmp_path / "a.ndjson", "always")
        writer.append({"lsn": 1}).wait(0)
        writer.rotate(tmp_path / "b.ndjson")
        writer.append({"lsn": 2}).wait(0)
        writer.close()
        a, _, _ = WalReader.scan(tmp_path / "a.ndjson")
        b, _, _ = WalReader.scan(tmp_path / "b.ndjson")
        assert [r["lsn"] for r in a] == [1]
        assert [r["lsn"] for r in b] == [2]


class TestTornTailEveryOffset:
    def test_truncation_at_every_byte_of_final_record(self, tmp_path):
        """Recovery must survive a crash after ANY prefix of the final
        record: scan yields exactly the preceding records and reports
        (at most) one dropped tail."""
        prefix = encode_record({"lsn": 1, "redo": []}) + encode_record({"lsn": 2, "redo": []})
        final = encode_record({"lsn": 3, "redo": [{"op": "add_node", "id": 9}]})
        for cut in range(len(final)):
            path = tmp_path / "seg.ndjson"
            path.write_bytes(prefix + final[:cut])
            records, torn = WalReader.scan_and_truncate(path)
            assert [r["lsn"] for r in records] == [1, 2], f"cut={cut}"
            assert torn == (1 if cut else 0), f"cut={cut}"
            assert path.stat().st_size == len(prefix), f"cut={cut}"
        # the complete record, by contrast, scans fine
        path = tmp_path / "seg.ndjson"
        path.write_bytes(prefix + final)
        records, torn = WalReader.scan_and_truncate(path)
        assert [r["lsn"] for r in records] == [1, 2, 3] and torn == 0


# ----------------------------------------------------------------------
# streaming instance serialization
# ----------------------------------------------------------------------


class TestStreamingSerializer:
    def test_byte_identical_to_dumps(self, tmp_path):
        scheme = build_scheme()
        instance, _ = build_instance(scheme)
        expected = json.dumps(instance_to_json(instance), indent=2, sort_keys=True)
        out = tmp_path / "i.json"
        with open(out, "w") as fp:
            write_instance(instance, fp)
        assert out.read_text() == expected

    def test_empty_instance(self, tmp_path):
        instance = Instance(small_scheme())
        expected = json.dumps(instance_to_json(instance), indent=2, sort_keys=True)
        out = tmp_path / "i.json"
        with open(out, "w") as fp:
            write_instance(instance, fp)
        assert out.read_text() == expected


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------


class TestCheckpoint:
    def test_write_and_load(self, tmp_path):
        instance = Instance(small_scheme())
        oid = instance.add_object("Person")
        path = write_checkpoint(
            tmp_path, 3, instance, last_lsn=17, next_id=oid + 1
        )
        assert path.name == checkpoint_name(3)
        doc = load_checkpoint(path)
        assert doc["epoch"] == 3 and doc["last_lsn"] == 17
        # the previous release reads this key
        assert doc["backend"] == "native"
        from repro.io.serialize import instance_from_json

        assert instance_from_json(doc["instance"]).node_count == 1

    def test_crash_before_rename_leaves_old_intact(self, tmp_path):
        instance = Instance(small_scheme())
        write_checkpoint(tmp_path, 1, instance, last_lsn=0, next_id=0)
        instance.add_object("Person")
        plan = faults.arm_crash("wal.checkpoint.written")
        try:
            with pytest.raises(faults.CrashError):
                write_checkpoint(
                    tmp_path, 2, instance, last_lsn=5, next_id=1
                )
        finally:
            faults.disarm_crash(plan)
        # the old checkpoint is still the newest valid one
        assert load_checkpoint(tmp_path / checkpoint_name(1))["last_lsn"] == 0
        assert not (tmp_path / checkpoint_name(2)).exists()
        assert (tmp_path / (checkpoint_name(2) + ".tmp")).exists()

    def test_load_rejects_damage(self, tmp_path):
        path = tmp_path / checkpoint_name(0)
        path.write_text("{not json")
        with pytest.raises(WalFormatError):
            load_checkpoint(path)
        path.write_text(json.dumps({"kind": "checkpoint", "format": 999}))
        with pytest.raises(WalFormatError):
            load_checkpoint(path)

    def test_parse_epoch(self):
        from repro.wal.checkpoint import parse_epoch

        assert parse_epoch(checkpoint_name(12)) == 12
        assert parse_epoch(segment_name(7)) == 7
        assert parse_epoch("garbage.json") == -1


# ----------------------------------------------------------------------
# the data directory
# ----------------------------------------------------------------------


class TestDataDirectory:
    def test_second_opener_is_refused(self, tmp_path):
        first = DataDirectory(tmp_path / "data")
        try:
            with pytest.raises(DataDirLockedError):
                DataDirectory(tmp_path / "data")
        finally:
            first.close()
        # releasing the lock lets a new server take over
        DataDirectory(tmp_path / "data").close()

    def test_create_is_atomic_and_listed(self, tmp_path):
        catalog, _ = recover_catalog(tmp_path / "data")
        try:
            catalog.create("g", scheme_data=scheme_to_json(small_scheme()))
            directory = catalog.durability
            assert directory.list_databases() == ["g"]
            root = directory.root / "g"
            assert (root / "meta.json").exists()
            assert (root / checkpoint_name(0)).exists()
            assert (root / segment_name(0)).exists()
            # no staging residue
            assert not any((directory.root / ".tmp").glob("*"))
        finally:
            catalog.close_durability()

    def test_drop_removes_directory(self, tmp_path):
        catalog, _ = recover_catalog(tmp_path / "data")
        try:
            catalog.create("g", scheme_data=scheme_to_json(small_scheme()))
            catalog.drop("g")
            assert catalog.durability.list_databases() == []
            assert not (tmp_path / "data" / "g").exists()
        finally:
            catalog.close_durability()

    def test_unsafe_names_are_refused(self, tmp_path):
        catalog, _ = recover_catalog(tmp_path / "data")
        try:
            for name in ("../evil", ".hidden", "a/b", ""):
                with pytest.raises((WalError, Exception)):
                    catalog.create(name, scheme_data=scheme_to_json(small_scheme()))
            assert catalog.durability.list_databases() == []
        finally:
            catalog.close_durability()

    def test_staging_residue_is_swept_on_recovery(self, tmp_path):
        root = tmp_path / "data"
        catalog, _ = recover_catalog(root)
        catalog.close_durability()
        (root / ".tmp" / "halfmade").mkdir(parents=True)
        (root / ".trash" / "halfdead").mkdir(parents=True)
        catalog, _ = recover_catalog(root)
        try:
            assert not (root / ".tmp").exists()
            assert not (root / ".trash").exists()
        finally:
            catalog.close_durability()


class TestRecovery:
    def _commit(self, database, program):
        database.run_program(program)
        ticket = database.take_ticket()
        if ticket is not None:
            ticket.wait(5.0)

    def test_undo_reset_record_recovers(self, tmp_path):
        # nothing writes ``reset`` records any more (UNDO is a commit),
        # but a segment from an older release may hold one: append a
        # hand-built record and recover through apply_reset
        from repro.io.serialize import instance_to_columnar_json
        from repro.wal.redo import get_next_id

        root = tmp_path / "data"
        catalog, _ = recover_catalog(root)
        catalog.create("g", scheme_data=scheme_to_json(small_scheme()))
        database = catalog.get("g")
        self._commit(database, 'addnode Person() {}')
        image = instance_to_columnar_json(database.to_instance())
        after_reset = database.counts()
        self._commit(database, 'addnode Person(name -> n) { n: String = "ann" }')
        assert database.counts() != after_reset
        next_id = get_next_id(database)
        lsn = database.durability.lsn
        catalog.close_durability()
        record = {"kind": "reset", "lsn": lsn + 1, "instance": image, "next_id": next_id}
        with open(root / "g" / segment_name(0), "ab") as fp:
            fp.write(encode_record(record))

        recovered, report = recover_catalog(root)
        try:
            database = recovered.get("g")
            assert database.counts() == after_reset
            assert get_next_id(database) == next_id
            assert report.databases[0]["resets_replayed"] == 1
            assert report.databases[0]["commits_replayed"] == 2
        finally:
            recovered.close_durability()

    def test_stale_epoch_files_are_removed(self, tmp_path):
        root = tmp_path / "data"
        catalog, _ = recover_catalog(root)
        catalog.create("g", scheme_data=scheme_to_json(small_scheme()))
        database = catalog.get("g")
        self._commit(database, 'addnode Person() {}')
        database.checkpoint()
        state = database.counts()
        catalog.close_durability()
        # plant a stale old-epoch pair plus an orphaned tmp
        db_dir = root / "g"
        (db_dir / segment_name(0)).write_bytes(encode_record({"kind": "junk"}))
        (db_dir / (checkpoint_name(9) + ".tmp")).write_text("{}")
        recovered, report = recover_catalog(root)
        try:
            entry = report.databases[0]
            assert entry["epoch"] == 1
            assert entry["stale_files_removed"] >= 2
            assert recovered.get("g").counts() == state
        finally:
            recovered.close_durability()

    def test_recovery_report_summary_mentions_torn_tails(self, tmp_path):
        root = tmp_path / "data"
        catalog, _ = recover_catalog(root)
        catalog.create("g", scheme_data=scheme_to_json(small_scheme()))
        database = catalog.get("g")
        self._commit(database, 'addnode Person() {}')
        catalog.close_durability()
        segment = root / "g" / segment_name(0)
        segment.write_bytes(segment.read_bytes() + b"deadbeef {torn")
        recovered, report = recover_catalog(root)
        try:
            assert report.torn_records == 1
            assert "torn" in report.summary()
            assert recovered.get("g").counts() == (1, 0)
        finally:
            recovered.close_durability()


# ----------------------------------------------------------------------
# UNDO is a commit: one journal per write, logged incrementally
# ----------------------------------------------------------------------

ADD_ANN = 'addnode Person(name -> n) { n: String = "ann" }'


class TestUndoIsACommit:
    def _durable(self, root):
        catalog, _ = recover_catalog(root)
        catalog.create("g", scheme_data=scheme_to_json(small_scheme()))
        return catalog, catalog.get("g")

    @staticmethod
    def _wait(database):
        ticket = database.take_ticket()
        if ticket is not None:
            ticket.wait(5.0)

    def _grow(self, database, verb):
        """Bytes the segment grew by while ``verb`` committed."""
        before = database.durability.writer.written_offset
        verb()
        self._wait(database)
        return database.durability.writer.written_offset - before

    def test_durable_run_charges_one_journal(self, tmp_path):
        from repro.core import counters

        catalog, database = self._durable(tmp_path / "data")
        try:
            with counters.collect() as tally:
                database.run_program(ADD_ANN)
                self._wait(database)
            # two nodes, one edge: no nested journal, and no scheme
            # snapshot (the scheme already declares Person -name-> String)
            assert tally.txn_journal_entries == 3
        finally:
            catalog.close_durability()

    def test_undo_record_is_a_small_multiple_of_the_commit(self, tmp_path):
        catalog, database = self._durable(tmp_path / "data")
        try:
            for index in range(100):
                database.run_program(f'addnode Person(name -> n) {{ n: String = "p{index}" }}')
                self._wait(database)
            commit = self._grow(database, lambda: database.run_program(ADD_ANN))
            undo = self._grow(database, database.undo)
            assert 0 < undo <= 4 * commit, (undo, commit)
        finally:
            catalog.close_durability()

    def test_undo_keeps_next_id_on_owner_and_recovered_image(self, tmp_path):
        from repro.wal.redo import get_next_id

        root = tmp_path / "data"
        catalog, database = self._durable(root)
        database.run_program(ADD_ANN)
        self._wait(database)
        spent = get_next_id(database)
        database.undo()
        self._wait(database)
        assert database.counts() == (0, 0)
        assert get_next_id(database) == spent
        catalog.close_durability()
        recovered, _ = recover_catalog(root)
        try:
            assert get_next_id(recovered.get("g")) == spent
        finally:
            recovered.close_durability()

    def test_undo_of_a_scheme_change_restores_it_everywhere(self, tmp_path, monkeypatch):
        """Owner, replica and recovered image agree after UNDO of a RUN
        that added a label, and the replica applies the UNDO record
        incrementally: ``replace_state`` is never called."""
        import repro.cluster.replica as replica
        from repro.server.catalog import Catalog

        root = tmp_path / "data"
        catalog, database = self._durable(root)
        database.run_program("addnode Person() {}")
        self._wait(database)
        tailer = replica.WalTailer(Catalog(), [root])
        tailer.poll_once()  # first sight of "g": built from its checkpoint
        database.run_program("addnode Tag(of -> p) { p: Person }")
        self._wait(database)
        tailer.poll_once()
        assert tailer.catalog.get("g").scheme.has_node_label("Tag")

        def refuse(*_args, **_kwargs):
            raise AssertionError("replace_state called while applying UNDO")

        monkeypatch.setattr(replica, "replace_state", refuse)
        database.undo()
        self._wait(database)
        assert tailer.poll_once() == 1 and tailer.errors == 0
        follower = tailer.catalog.get("g")
        catalog.close_durability()
        recovered, report = recover_catalog(root)
        try:
            image = recovered.get("g")
            assert report.databases[0]["resets_replayed"] == 0
            for copy in (database, follower, image):
                assert not copy.scheme.has_node_label("Tag")
                assert copy.scheme.has_node_label("Person")
                assert copy.counts() == (1, 0)
        finally:
            recovered.close_durability()

    def test_undo_of_a_method_call_restores_the_scheme_binding(self, tmp_path):
        """A call rebinds the instance to original scheme ∪ interface;
        the UNDO's own journal must record rebinding back, so its
        record carries the scheme the owner ends with."""
        root = tmp_path / "data"
        catalog, database = self._durable(root)
        database.run_program("addnode Person() {}")
        self._wait(database)
        database.run_program(
            "method Mark() on Person keeps Marked -of-> Person {\n"
            "    addnode Marked(of -> self) { self: Person; }\n"
            "}\n"
            "call Mark() on p { p: Person; }"
        )
        self._wait(database)
        assert database.scheme.has_node_label("Marked")
        database.undo()
        self._wait(database)
        assert not database.scheme.has_node_label("Marked")
        catalog.close_durability()
        recovered, _ = recover_catalog(root)
        try:
            image = recovered.get("g")
            assert not image.scheme.has_node_label("Marked")
            assert image.counts() == (1, 0)
        finally:
            recovered.close_durability()

    def test_failed_undo_append_reverts_the_undo(self, tmp_path):
        root = tmp_path / "data"
        catalog, database = self._durable(root)
        database.run_program(ADD_ANN)
        self._wait(database)
        acked = database.counts()
        with faults.crash("wal.append.before"):
            with pytest.raises(faults.CrashError):
                database.undo()
        # memory matches disk: the reverse replay was itself reversed
        assert database.counts() == acked
        with pytest.raises(WalError):
            database.run_program(ADD_ANN)  # the writer stays poisoned
        catalog.close_durability()
        recovered, _ = recover_catalog(root)
        try:
            assert recovered.get("g").counts() == acked
        finally:
            recovered.close_durability()


# ----------------------------------------------------------------------
# scheme ops: logged only by commits that change the scheme
# ----------------------------------------------------------------------


class TestSchemeOps:
    def _durable(self, root, scheme):
        catalog, _ = recover_catalog(root)
        database = catalog.create("g", scheme_data=scheme_to_json(scheme))
        dirty = []
        commit_journal = database.durability.commit_journal

        def spy(owner, journal):
            dirty.append(journal.scheme_dirty())
            return commit_journal(owner, journal)

        database.durability.commit_journal = spy
        return catalog, database, dirty

    @staticmethod
    def _commit(database, source):
        """Run ``source`` durably; the redo op names of its record."""
        database.run_program(source)
        database.take_ticket().wait(5.0)
        segment = database.durability.directory / segment_name(database.durability.epoch)
        records, _ = WalReader.tail(segment, 0)
        return [op["op"] for op in records[-1]["redo"]]

    def test_addnode_on_a_declared_property_logs_no_scheme(self, tmp_path):
        catalog, database, dirty = self._durable(tmp_path / "data", small_scheme())
        try:
            ops = self._commit(database, ADD_ANN)
            assert ops == ["interns", "add_node", "add_node", "add_edge"]
            assert dirty == [False]
        finally:
            catalog.close_durability()

    def test_addnode_adding_a_property_logs_the_scheme_everywhere(self, tmp_path):
        from repro.cluster.replica import WalTailer
        from repro.server.catalog import Catalog

        scheme = small_scheme()
        # both labels declared, the (Tag, of, Person) triple not yet in P
        scheme.add_object_label("Tag")
        scheme.add_functional_edge_label("of")
        root = tmp_path / "data"
        catalog, database, dirty = self._durable(root, scheme)
        self._commit(database, "addnode Person() {}")
        ops = self._commit(database, "addnode Tag(of -> p) { p: Person }")
        assert ops[-1] == "scheme" and dirty == [False, True]
        assert ("Tag", "of", "Person") in database.scheme.properties
        tailer = WalTailer(Catalog(), [root])
        tailer.poll_once()
        catalog.close_durability()
        recovered, _ = recover_catalog(root)
        try:
            expected = database.to_json()
            assert tailer.errors == 0
            assert tailer.catalog.get("g").to_json() == expected
            assert recovered.get("g").to_json() == expected
        finally:
            recovered.close_durability()


# ----------------------------------------------------------------------
# corrupt segments: refused, never truncated
# ----------------------------------------------------------------------


def five_commit_segment(path):
    """A segment of five fsynced commits; returns the record offsets."""
    writer = WalWriter(path, "always")
    offsets = [0]
    for lsn in range(1, 6):
        writer.append({"kind": "commit", "lsn": lsn, "redo": []}).wait(0)
        offsets.append(writer.written_offset)
    writer.close()
    return offsets


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))
    return bytes(data)


class TestCorruptSegment:
    def test_flipped_byte_in_middle_record_raises(self, tmp_path):
        path = tmp_path / "w.ndjson"
        offsets = five_commit_segment(path)
        damaged = flip_byte(path, offsets[1] + 12)  # inside record 2
        with pytest.raises(WalFormatError) as failure:
            WalReader.scan_and_truncate(path)
        message = str(failure.value)
        assert message.startswith(f"{path}: corrupt record at byte {offsets[1]}")
        assert "not a torn tail" in message
        assert path.read_bytes() == damaged  # nothing truncated

    def test_flipped_byte_in_final_record_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "w.ndjson"
        offsets = five_commit_segment(path)
        flip_byte(path, offsets[4] + 12)  # inside record 5
        records, torn = WalReader.scan_and_truncate(path)
        assert [r["lsn"] for r in records] == [1, 2, 3, 4] and torn == 1
        assert path.stat().st_size == offsets[4]

    def test_tail_refuses_mid_segment_corruption(self, tmp_path):
        path = tmp_path / "w.ndjson"
        offsets = five_commit_segment(path)
        records, offset = WalReader.tail(path, 0)
        assert len(records) == 5 and offset == offsets[5]
        damaged = flip_byte(path, offsets[3] + 12)  # inside record 4
        # a tailer past the damage reads on; one before it errors
        assert WalReader.tail(path, offsets[4]) == ([{"kind": "commit", "lsn": 5, "redo": []}], offsets[5])
        with pytest.raises(WalFormatError, match=f"corrupt record at byte {offsets[3]}"):
            WalReader.tail(path, offsets[2])
        assert path.read_bytes() == damaged

    def test_replica_counts_corruption_as_an_error(self, tmp_path):
        from repro.cluster.replica import WalTailer
        from repro.server.catalog import Catalog

        root = tmp_path / "data"
        catalog, _ = recover_catalog(root)
        catalog.create("g", scheme_data=scheme_to_json(small_scheme()))
        database = catalog.get("g")
        for _ in range(3):
            database.run_program("addnode Person() {}")
            database.take_ticket().wait(5.0)
        catalog.close_durability()
        segment = root / "g" / segment_name(0)
        damaged = flip_byte(segment, 12)  # inside the first record
        tailer = WalTailer(Catalog(), [root])
        tailer.poll_once()
        assert tailer.errors == 1 and "g" not in tailer.applied
        assert segment.read_bytes() == damaged


class TestRetiredBinaryFormat:
    """Segments of the retired binary format are refused, not truncated."""

    def binary_segment(self, path):
        path.write_bytes(BINARY_MAGIC + b"\x05\x00\x00\x00binary-frame")
        return path.read_bytes()

    def test_scan_refuses_binary_segment(self, tmp_path):
        root = tmp_path / "data"
        catalog, _ = recover_catalog(root)
        catalog.create("g", scheme_data=scheme_to_json(small_scheme()))
        catalog.close_durability()
        segment = root / "g" / segment_name(0)
        data = self.binary_segment(segment)
        with pytest.raises(WalFormatError) as failure:
            recover_catalog(root)
        message = str(failure.value)
        assert message.startswith(f"{segment}: binary WAL segment")
        assert "--wal-format text" in message and "CHECKPOINT" in message
        assert segment.read_bytes() == data

    def test_tail_refuses_binary_segment(self, tmp_path):
        segment = tmp_path / "w.wal"
        data = self.binary_segment(segment)
        with pytest.raises(WalFormatError, match="binary WAL segment"):
            WalReader.tail(segment, 0)
        assert segment.read_bytes() == data

    def test_wal_format_keyword_is_rejected(self, tmp_path):
        from repro.wal import DatabaseDurability

        with pytest.raises(TypeError):
            WalWriter(tmp_path / "w.ndjson", "always", wal_format="text")
        with pytest.raises(TypeError):
            DatabaseDurability(tmp_path, "g", wal_format="text")
        with pytest.raises(TypeError):
            DataDirectory(tmp_path / "data", wal_format="text")
        with pytest.raises(TypeError):
            recover_catalog(tmp_path / "data", wal_format="text")


class TestEngineDataDirectoryRefused:
    """A directory an engine was served from is refused, untouched."""

    def engine_data_dir(self, root):
        catalog, _ = recover_catalog(root)
        database = catalog.create("g", scheme_data=scheme_to_json(small_scheme()))
        database.run_program(ADD_ANN)
        database.take_ticket().wait(5.0)
        catalog.close_durability()
        meta = root / "g" / "meta.json"
        meta.write_text(json.dumps({"format": 1, "name": "g", "backend": "tarski"}))
        return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}

    def test_recovery_refuses_an_engine_meta(self, tmp_path):
        root = tmp_path / "data"
        files = self.engine_data_dir(root)
        with pytest.raises(WalFormatError) as failure:
            recover_catalog(root)
        message = str(failure.value)
        assert message.startswith(f"{root / 'g'}: ")
        assert "'tarski'" in message and "EXPORT" in message and "LOAD" in message
        assert {path: path.read_bytes() for path in files} == files

    def test_replica_resync_refuses_an_engine_meta(self, tmp_path):
        from repro.cluster.replica import WalTailer
        from repro.server.catalog import Catalog

        root = tmp_path / "data"
        files = self.engine_data_dir(root)
        tailer = WalTailer(Catalog(), [root])
        with pytest.raises(WalFormatError, match=re.escape(f"{root / 'g'}: ") + ".*'tarski'.*EXPORT"):
            tailer._resync("g", root / "g")
        # a polling replica counts it as an error and serves nothing
        tailer.poll_once()
        assert tailer.errors == 1 and "g" not in tailer.catalog
        assert {path: path.read_bytes() for path in files} == files


class TestRetiredStringLabels:
    def test_string_keyed_redo_ops_are_refused(self):
        from repro.server.catalog import Catalog
        from repro.wal.redo import apply_commit

        database = Catalog().create("g", scheme_data=scheme_to_json(small_scheme()))
        legacy = {"kind": "commit", "lsn": 1, "redo": [{"op": "add_node", "id": 0, "label": "Person"}]}
        with pytest.raises(WalFormatError, match="pre-columnar.*migrate"):
            apply_commit(database, legacy)
        assert database.counts() == (0, 0)


# ----------------------------------------------------------------------
# columnar checkpoints (format 2)
# ----------------------------------------------------------------------


class TestColumnarCheckpoint:
    def build_instance(self):
        instance = Instance(small_scheme())
        ada = instance.add_printable("String", "ada")
        people = [instance.add_object("Person") for _ in range(5)]
        instance.add_edge(people[0], "name", ada)
        for left, right in zip(people, people[1:]):
            instance.add_edge(left, "knows", right)
        instance.remove_node(people[3])  # leave a hole in the slot columns
        return instance

    def test_checkpoint_roundtrip_is_isomorphic(self, tmp_path):
        from repro.graph import isomorphic
        from repro.io.serialize import instance_from_json

        instance = self.build_instance()
        path = write_checkpoint(
            tmp_path, 1, instance, last_lsn=9, next_id=instance.store.next_id
        )
        doc = load_checkpoint(path)
        assert doc["instance"]["format"] == 2
        restored = instance_from_json(doc["instance"])
        assert isomorphic(instance.store, restored.store)
        # external node ids survive exactly (id-preserving, not just iso)
        assert sorted(restored.store.nodes()) == sorted(instance.store.nodes())

    def test_recovered_checkpoint_answers_anchored_two_hop_match(self, tmp_path):
        """A store rebuilt from a format-2 checkpoint must answer
        neighbour probes from its loaded arrays, not an empty index."""
        from repro.core import find_matchings
        from repro.dsl import parse_pattern
        from repro.io.serialize import instance_from_json

        instance = self.build_instance()
        people = sorted(instance.nodes_with_label("Person"))
        for left, right in zip(people, people[2:]):
            instance.add_edge(left, "knows", right)
        path = write_checkpoint(
            tmp_path, 1, instance, last_lsn=9, next_id=instance.store.next_id
        )
        recovered = instance_from_json(load_checkpoint(path)["instance"])
        source = '{ s: String = "ada"; x: Person; y: Person; z: Person; x -name-> s; x -knows->> y; y -knows->> z; }'

        def rows(db):
            pattern, variables = parse_pattern(source, db.scheme)
            names = {node: name for name, node in variables.items()}
            return sorted(
                tuple(sorted((names[node], image) for node, image in matching.items()))
                for matching in find_matchings(pattern, db)
            )

        expected = rows(instance)
        assert len(expected) >= 2
        assert rows(recovered) == expected

    def test_format_one_documents_still_load(self):
        from repro.graph import isomorphic
        from repro.io.serialize import instance_from_json

        instance = self.build_instance()
        legacy = instance_to_json(instance)
        assert "format" not in legacy or legacy.get("format") != 2
        restored = instance_from_json(legacy)
        assert isomorphic(instance.store, restored.store)

    def test_columnar_json_matches_streamed_bytes(self, tmp_path):
        import io

        from repro.io.serialize import instance_to_columnar_json, write_instance_columnar

        instance = self.build_instance()
        buffer = io.StringIO()
        write_instance_columnar(instance, buffer)
        assert json.loads(buffer.getvalue()) == json.loads(
            json.dumps(instance_to_columnar_json(instance))
        )
