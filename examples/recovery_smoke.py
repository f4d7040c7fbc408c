"""Crash recovery end to end — `repro serve --data-dir` survives SIGKILL.

A real out-of-process test of the durability contract:

1. start ``repro serve --data-dir DIR`` as a subprocess;
2. create a database and commit a few programs over TCP (every ``RUN``
   is acknowledged only after its WAL record is fsynced), then ``UNDO``
   the last one — an UNDO is an ordinary commit, so its record is about
   as small as the commit it reverses, not a copy of the database;
3. ``SIGKILL`` the server — no shutdown handler runs, exactly like a
   power cut from the process's point of view;
4. flip one byte in the first record of a copy of the data directory:
   ``repro recover`` on the copy must refuse it, naming the segment,
   rather than truncate acknowledged commits as a "torn tail";
5. start a fresh server on the original data directory and read the
   database back: every acknowledged commit must be there, the undone
   one must not, and a new ``UNDO`` finds nothing to undo (undo history
   does not survive a restart).

Also used by CI as the recovery smoke step: every step asserts.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.core import Scheme
from repro.io.serialize import scheme_to_json
from repro.server import GoodClient
from repro.server.client import RemoteError
from repro.server.protocol import ProtocolError
from repro.wal.checkpoint import segment_name

PORT = 25990  # out of the way of a real `repro serve`
KEPT = ("ada", "grace", "edsger")
UNDONE = "alan"


def people_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    return scheme


def start_server(data_dir: str) -> subprocess.Popen:
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--data-dir",
            data_dir,
            "--port",
            str(PORT),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    deadline = time.time() + 30.0
    while time.time() < deadline:
        if process.poll() is not None:
            output = process.stdout.read().decode(errors="replace")
            raise RuntimeError(f"server exited during startup:\n{output}")
        try:
            with GoodClient("127.0.0.1", PORT, timeout=2.0) as client:
                if client.ping():
                    return process
        except (OSError, ProtocolError):
            time.sleep(0.1)
    process.kill()
    raise RuntimeError("server did not come up within 30s")


def check_corrupt_copy_is_refused(data_dir: str, copy_dir: str) -> None:
    """Damage the first record of a multi-record segment in a copy of
    ``data_dir``; offline recovery of the copy must fail naming it."""
    shutil.copytree(data_dir, copy_dir)
    segment = os.path.join(copy_dir, "people", segment_name(0))
    with open(segment, "rb") as fp:
        data = bytearray(fp.read())
    assert data.count(b"\n") >= 2, "the segment should hold several records"
    data[12] ^= 0x01  # inside the first record's JSON
    with open(segment, "wb") as fp:
        fp.write(bytes(data))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "recover", copy_dir],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0, result
    assert segment in result.stderr, result.stderr
    print(f"corrupt copy refused: {result.stderr.strip()}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="good-recovery-") as data_dir:
        # -- first life: create, commit, get acks -------------------------
        server = start_server(data_dir)
        try:
            with GoodClient("127.0.0.1", PORT) as client:
                client.create("people", scheme=scheme_to_json(people_scheme()))
                client.use("people")
                for name in KEPT + (UNDONE,):
                    client.run(f'addnode Person(name -> n) {{ n: String = "{name}" }}')
                segment = os.path.join(data_dir, "people", segment_name(0))
                before = os.path.getsize(segment)
                result = client.undo()
                undo_bytes = os.path.getsize(segment) - before
                acked = (result["nodes"], result["edges"])
                print(
                    f"committed {len(KEPT) + 1} programs and undid the last "
                    f"({undo_bytes} B of WAL), acked state: {acked[0]} nodes, {acked[1]} edges"
                )
                assert 0 < undo_bytes < 4096, undo_bytes
        finally:
            # -- the crash: SIGKILL, no cleanup of any kind ----------------
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=10)
        print("server SIGKILLed")

        with tempfile.TemporaryDirectory(prefix="good-corrupt-") as scratch:
            check_corrupt_copy_is_refused(data_dir, os.path.join(scratch, "copy"))

        # -- second life: recover and read back ---------------------------
        server = start_server(data_dir)
        try:
            with GoodClient("127.0.0.1", PORT) as client:
                described = client.use("people")["using"]
                recovered = (described["nodes"], described["edges"])
                print(f"recovered state: {recovered[0]} nodes, {recovered[1]} edges")
                assert recovered == acked, (recovered, acked)
                names = client.match("{ p: Person; n: String; p -name-> n }")
                assert names["total"] == len(KEPT), names
                for name in KEPT + (UNDONE,):
                    found = client.match(f'{{ p: Person; n: String = "{name}"; p -name-> n }}')
                    assert found["total"] == (name != UNDONE), (name, found)
                try:
                    client.undo()
                except RemoteError as error:
                    assert "nothing to undo" in str(error), error
                else:
                    raise AssertionError("UNDO after a restart found history to undo")
                stats = client.stats()["databases"]["people"]
                assert stats["recoveries"] == 1, stats
                print("every acked commit survived the kill, the undone one stayed undone")
        finally:
            server.terminate()
            server.wait(timeout=10)


if __name__ == "__main__":
    main()
