"""The served side: real server subprocesses, closed-loop clients, checks.

Everything here talks to the system the way a user does — a child
process started from the command line and blocking ``GoodClient``
connections.  The load generator is this one process; it never runs
more client threads than ``gen.CLIENTS`` allows (at most 2).
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import Instance
from repro.core.errors import GoodError
from repro.core.matching import find_any
from repro.dsl import parse_pattern, parse_program
from repro.server import GoodClient

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

DB = "fp"
#: The flush policy on both sides of every comparison.  The sandbox's
#: page cache makes fsync cheap, so latencies are the sandbox's, not a
#: device's.
FSYNC = "always"
#: Small enough that ``write_commit`` crosses it several times a run.
CHECKPOINT_BYTES = 65536
READY_TIMEOUT = 60.0
CLIENT_TIMEOUT = 30.0
WARMUP_SHARE = 0.05

_SERVING = re.compile(rb"serving GOOD on ([0-9.]+):(\d+)")


class Server:
    """One served system: ``repro serve`` or router + one shard worker."""

    def __init__(self, data_dir: Path, routed: bool = False) -> None:
        data_dir.mkdir(parents=True, exist_ok=True)
        self.data_dir = data_dir
        common = ["--data-dir", str(data_dir), "--fsync", FSYNC, "--checkpoint-bytes", str(CHECKPOINT_BYTES)]
        if routed:
            argv = [sys.executable, str(HERE / "cluster_main.py"), *common]
        else:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0", *common]
        inherited = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": str(SRC) + (os.pathsep + inherited if inherited else ""),
            "PYTHONUNBUFFERED": "1",
        }
        #: the harness's own connection (set by setup()); closed by stop()
        self.client: Optional[GoodClient] = None
        self._log = open(data_dir.with_suffix(".log"), "ab")
        # its own session, so stop() can sweep the router's worker too;
        # an unbuffered pipe, so select() sees every line readline() has not
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env, start_new_session=True, bufsize=0
        )
        try:
            self.address = self._await_ready(routed)
        except BaseException:
            self.stop(signal.SIGKILL)
            raise

    def _await_ready(self, routed: bool) -> Tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                raise RuntimeError(f"server printed no ready line within {READY_TIMEOUT}s")
            line = stdout.readline()
            if not line:
                raise RuntimeError(f"server exited during start-up (code {self.process.wait()})")
            if routed:
                ready = json.loads(line)
                return ready["host"], ready["port"]
            found = _SERVING.search(line)
            if found:
                return found.group(1).decode(), int(found.group(2))

    def connect(self) -> GoodClient:
        return GoodClient(*self.address, timeout=CLIENT_TIMEOUT).connect()

    def rss_mb(self) -> float:
        """Resident memory of every process in the server's session."""
        total_kb = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path("/proc", entry, "stat").read_text()
                if int(stat.rsplit(")", 1)[1].split()[2]) != self.process.pid:
                    continue
                status = Path("/proc", entry, "status").read_text()
            except (OSError, IndexError, ValueError):
                continue  # the process ended while we looked
            found = re.search(r"VmRSS:\s+(\d+) kB", status)
            if found:
                total_kb += int(found.group(1))
        return total_kb / 1024.0

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Signal the server, wait for it, and leave no descendant behind."""
        if self.client is not None:
            self.client.close()
            self.client = None
        process = self.process
        if process.poll() is None:
            process.send_signal(sig)
            try:
                process.wait(15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        process.stdout.close()
        self._log.close()


def setup(
    data_dir: Path, instance_path: Path, probe: str, routed: bool = False
) -> Tuple[Server, float, Dict[str, Any]]:
    """Spawn -> LOAD -> first checkpoint -> first successful MATCH.

    Returns ``(server, seconds, checkpoint_reply)``; ``server.client``
    has the database selected.
    """
    started = time.perf_counter()
    server = Server(data_dir, routed)
    try:
        client = server.client = server.connect()
        client.load(DB, str(instance_path.resolve()))
        client.use(DB)
        checkpoint = client.checkpoint()
        client.match(probe)
    except BaseException:
        server.stop(signal.SIGKILL)
        raise
    return server, time.perf_counter() - started, checkpoint


def database_stats(client: GoodClient) -> Dict[str, Any]:
    return client.stats()["databases"][DB]


def counter_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Drive:
    """What one measured phase saw."""

    def __init__(self) -> None:
        #: (kind, latency seconds) of every measured operation that succeeded
        self.samples: List[Tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.wall = 0.0
        #: every write acknowledged since the server started, per client
        self.writes: List[List[Dict[str, Any]]] = []
        self.reads: List[Dict[str, Any]] = []

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return sorted(s for k, s in self.samples if kind is None or k == kind)

    def percentile_ms(self, share: float, kind: Optional[str] = None) -> float:
        return percentile(self.latencies(kind), share) * 1e3

    def all_writes(self) -> List[Dict[str, Any]]:
        return [request for per_client in self.writes for request in per_client]


def percentile(ordered: Sequence[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def drive(server: Server, streams: List[Iterator[Dict[str, Any]]], seconds: float) -> Drive:
    """Run every stream on its own connection for ``seconds`` (closed loop).

    A client sends its next request only when the previous reply has
    been parsed.  The first ``WARMUP_SHARE`` of extra time is driven
    but not measured.
    """
    out = Drive()
    out.writes = [[] for _ in streams]
    window: Dict[str, float] = {}

    def open_window() -> None:
        window["begin"] = time.perf_counter() + seconds * WARMUP_SHARE
        window["end"] = window["begin"] + seconds

    # the last client to connect opens the window for all of them
    barrier = threading.Barrier(len(streams), action=open_window)
    lock = threading.Lock()
    finished: List[float] = []
    crashes: List[BaseException] = []

    def client_loop(index: int, stream: Iterator[Dict[str, Any]]) -> None:
        samples: List[Tuple[str, float]] = []
        reads: List[Dict[str, Any]] = []
        attempted = failed = 0
        errors: List[str] = []
        last = 0.0
        client = None
        try:
            client = server.connect()
            client.use(DB)
            barrier.wait(CLIENT_TIMEOUT)
            begin, end = window["begin"], window["end"]
            while len(errors) <= 20:  # past that the run is lost; do not spin on a dead server
                request = next(stream)
                sent = time.perf_counter()
                if sent >= end:
                    break
                try:
                    client.call(request["verb"], **request["args"])
                    ok = True
                except (GoodError, OSError) as error:
                    ok = False
                    errors.append(f"{request['verb']}: {error}")
                done = time.perf_counter()
                if ok and request["kind"] == "write":
                    out.writes[index].append(request)
                if sent < begin:
                    continue
                attempted += 1
                last = done
                if not ok:
                    failed += 1
                    continue
                samples.append((request["kind"], done - sent))
                if request["kind"] == "read":
                    reads.append(request)
        except BaseException as error:
            barrier.abort()
            with lock:
                crashes.append(error)
        finally:
            if client is not None:
                client.close()
            with lock:
                out.samples.extend(samples)
                out.reads.extend(reads)
                out.attempted += attempted
                out.failed += failed
                out.errors.extend(errors[:5])
                finished.append(last)

    threads = [
        threading.Thread(target=client_loop, args=(index, stream), name=f"client-{index}")
        for index, stream in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]
    if not out.samples:
        raise RuntimeError(f"no operation succeeded in the measured phase: {out.errors}")
    out.wall = max(finished) - window["begin"]
    return out


# ----------------------------------------------------------------------
# correctness and durability
# ----------------------------------------------------------------------
def replay(oracle: Instance, writes: Sequence[Dict[str, Any]]) -> None:
    """Apply acknowledged writes to a pure ``repro.core`` instance."""
    for request in writes:
        parse_program(request["args"]["program"], oracle.scheme).run(oracle, in_place=True)


def _oracle_total(oracle: Instance, pattern: str) -> int:
    return sum(1 for _ in find_any(parse_pattern(pattern, oracle.scheme)[0], oracle))


def check_state(client: GoodClient, oracle: Instance, patterns: Sequence[str]) -> Tuple[int, List[str]]:
    """Served counts and MATCH totals against the oracle; ``(checks, mismatches)``."""
    mismatches: List[str] = []
    described = client.use(DB)["using"]
    served = (described["nodes"], described["edges"])
    expected = (oracle.node_count, oracle.edge_count)
    if served != expected:
        mismatches.append(f"counts: served {served}, replay {expected}")
    for pattern in patterns:
        total = client.match(pattern, limit=1)["total"]
        want = _oracle_total(oracle, pattern)
        if total != want:
            mismatches.append(f"MATCH total {total} != replay {want} for {pattern}")
    return 1 + len(patterns), mismatches


def sample_patterns(drive_result: Drive, rng: random.Random, count: int) -> List[str]:
    """Up to ``count`` patterns: reads that were sent plus write probes."""
    pool = [request["args"]["pattern"] for request in drive_result.reads]
    pool += [request["probe"] for request in drive_result.all_writes()]
    return rng.sample(pool, min(count, len(pool)))


def crash_and_recover(
    server: Server, oracle: Instance, probes: Sequence[str]
) -> Tuple[Server, float, int, List[str]]:
    """SIGKILL the server, restart it on the same data dir, re-check.

    ``recovery_s`` runs from the restart to the first successful read.
    Killing the process leaves the page cache intact, so this shows
    that every acknowledged commit reached the WAL file, not that it
    reached a device.
    """
    server.stop(signal.SIGKILL)
    started = time.perf_counter()
    revived = Server(server.data_dir)
    try:
        client = revived.client = revived.connect()
        client.use(DB)
        recovery_s = time.perf_counter() - started
        checks, mismatches = check_state(client, oracle, probes)
    except BaseException:
        revived.stop(signal.SIGKILL)
        raise
    return revived, recovery_s, checks, [f"after recovery: {m}" for m in mismatches]
