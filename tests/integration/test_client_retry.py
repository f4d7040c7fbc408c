"""GoodClient transient-failure hardening against a flapping server.

The client's bounded retry (off by default) must:

* raise immediately with ``retries=0`` — existing callers see exactly
  the old behavior;
* reconnect-and-resend through a server restart when enabled;
* ride out connection-refused while a server is still coming up;
* never retry non-transient failures (structured server errors).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core import Instance, Scheme
from repro.server import BackgroundServer, Catalog, GoodClient, GoodServer, RemoteError


def people_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    return scheme


def make_server() -> GoodServer:
    catalog = Catalog()
    catalog.add("people", Instance(people_scheme()))
    return GoodServer(catalog)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_no_retries_by_default_and_old_error_shape():
    server = make_server()
    with BackgroundServer(server):
        host, port = server.address
        client = GoodClient(host, port)
        assert client.ping()
    # server is gone; the very next call fails without any retry
    with pytest.raises((ConnectionResetError, BrokenPipeError, ConnectionRefusedError)):
        client.ping()
    assert client.retries_used == 0
    client.close()


def test_retry_survives_a_server_restart_on_the_same_port():
    port = free_port()
    first = make_server()
    background = BackgroundServer(GoodServer(first.catalog, host="127.0.0.1", port=port))
    background.start()

    client = GoodClient("127.0.0.1", port, retries=6, backoff=0.05)
    assert client.ping()

    background.stop()  # the connection the client holds is now dead

    def bring_back():
        time.sleep(0.3)
        replacement = BackgroundServer(GoodServer(make_server().catalog, host="127.0.0.1", port=port))
        replacement.start()
        bring_back.server = replacement

    reviver = threading.Thread(target=bring_back)
    reviver.start()
    try:
        # first attempt hits the dead socket (reset), the next few are
        # refused until the replacement binds; retries cover all of it
        assert client.ping()
        assert client.retries_used >= 1
        assert client.use("people")["using"]["name"] == "people"
    finally:
        reviver.join()
        client.close()
        bring_back.server.stop()


def test_retry_waits_out_connection_refused():
    port = free_port()
    client = GoodClient("127.0.0.1", port, retries=8, backoff=0.05)

    def start_late():
        time.sleep(0.4)
        server = BackgroundServer(GoodServer(make_server().catalog, host="127.0.0.1", port=port))
        server.start()
        start_late.server = server

    starter = threading.Thread(target=start_late)
    starter.start()
    try:
        assert client.ping()
        assert client.retries_used >= 1
    finally:
        starter.join()
        client.close()
        start_late.server.stop()


def test_structured_errors_are_never_retried():
    server = make_server()
    with BackgroundServer(server):
        host, port = server.address
        with GoodClient(host, port, retries=5, backoff=0.01) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.use("no-such-database")
            assert excinfo.value.code == "NO_SUCH_DATABASE"
            assert client.retries_used == 0


def test_exhausted_retries_propagate_the_last_error():
    port = free_port()  # nothing ever listens here
    client = GoodClient("127.0.0.1", port, retries=2, backoff=0.01)
    before = time.monotonic()
    with pytest.raises(ConnectionRefusedError):
        client.ping()
    assert client.retries_used == 2
    assert time.monotonic() - before < 5.0  # bounded, not hanging
    client.close()
