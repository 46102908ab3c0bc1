"""Negative-path coverage for the serve protocol.

A serving layer's exploitable surface is its input handling, so every
malformed thing a client can put on the wire — truncated frames,
hostile length prefixes, garbage JSON, unknown verbs, vanishing peers
— must produce a one-line structured error envelope (the wire twin of
the CLI's ``error: ...`` / exit-2 convention) and leave the daemon
serving.  And a clean ``shutdown`` must leave *nothing* behind: no
socket file, no on-disk stores — ``repro gc`` finds zero orphans.
"""

from __future__ import annotations

import itertools
import os
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ServeError
from repro.serve import ServeClient, ServeConfig, connect
from harness import serve_in_thread
from repro.serve import protocol
from repro.storage import STORE_DIR_ENV, STORE_ENV, orphaned_stores

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Lists that are not all strings: an int or a null after a string, a
# nested list, a bool (a bool is not a str, though it is an int).
MIXED_TOKENS = (["a", 1], ["a", None], [["a"]], [True])


@pytest.fixture(autouse=True)
def _rooted_store_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))


@pytest.fixture()
def service(tmp_path):
    config = ServeConfig(
        socket_path=str(tmp_path / "serve.sock"), batch_window_ms=1.0
    )
    with serve_in_thread(config) as svc:
        yield svc


def _raw_connection(service) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(service.address)
    return sock


def _assert_alive(service) -> None:
    """The invariant every abuse case must leave standing."""
    with ServeClient(service.address) as client:
        assert client.ping()["pong"] is True


class TestConfigValidation:
    def test_needs_exactly_one_endpoint(self):
        with pytest.raises(ConfigurationError):
            ServeConfig()
        with pytest.raises(ConfigurationError):
            ServeConfig(socket_path="/tmp/x.sock", port=9999)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(port=70000)
        with pytest.raises(ConfigurationError):
            ServeConfig(port=0, batch_window_ms=-1.0)
        with pytest.raises(ConfigurationError):
            ServeConfig(port=0, workers=-1)
        with pytest.raises(ConfigurationError):
            ServeConfig(port=0, max_batch=0)

    def test_refuses_existing_socket_path(self, tmp_path):
        path = tmp_path / "taken.sock"
        path.write_text("")
        config = ServeConfig(socket_path=str(path))
        with pytest.raises(ServeError, match="already exists"):
            with serve_in_thread(config):
                pass  # pragma: no cover - never reached


class TestMalformedPayloads:
    def test_garbage_json_gets_envelope_and_connection_survives(self, service):
        with _raw_connection(service) as sock:
            body = b"this is not json"
            sock.sendall(protocol.HEADER.pack(len(body)) + body)
            reply = protocol.recv_frame(sock)
            assert reply["ok"] is False
            assert reply["id"] is None
            assert "\n" not in reply["error"]
            # Framing survived: the same connection still serves.
            protocol.send_frame(sock, {"id": 7, "verb": "ping"})
            assert protocol.recv_frame(sock) == {"id": 7, "ok": True, "pong": True}
        _assert_alive(service)

    def test_non_object_json_gets_envelope(self, service):
        with _raw_connection(service) as sock:
            body = b"[1, 2, 3]"
            sock.sendall(protocol.HEADER.pack(len(body)) + body)
            reply = protocol.recv_frame(sock)
            assert reply["ok"] is False
            assert "JSON object" in reply["error"]
        _assert_alive(service)

    def test_empty_frame_gets_envelope(self, service):
        with _raw_connection(service) as sock:
            sock.sendall(protocol.HEADER.pack(0))
            reply = protocol.recv_frame(sock)
            assert reply["ok"] is False
            assert "empty frame" in reply["error"]
        _assert_alive(service)


class TestBadRequests:
    @pytest.mark.parametrize(
        "request_payload, fragment",
        [
            ({"id": 1, "verb": "frobnicate"}, "unknown verb"),
            ({"id": 2}, "unknown verb"),
            ({"id": 3, "verb": "score"}, "list of strings"),
            ({"id": 4, "verb": "score", "tokens": "abc"}, "list of strings"),
            ({"id": 5, "verb": "score", "tokens": [1, 2]}, "list of strings"),
            ({"id": 6, "verb": "train", "tokens": ["a"]}, "is_spam"),
            (
                {"id": 7, "verb": "feedback", "tokens": ["a"], "is_spam": "yes"},
                "is_spam",
            ),
            ({"id": 8, "verb": "snapshot"}, "path"),
            ({"id": 9, "verb": "snapshot", "path": ""}, "path"),
            *(
                (
                    {"id": 10 + n, "verb": verb, "tokens": tokens, "is_spam": True},
                    "list of strings",
                )
                for n, (verb, tokens) in enumerate(
                    itertools.product(("score", "train", "feedback"), MIXED_TOKENS)
                )
            ),
        ],
    )
    def test_structured_error_echoes_id_and_keeps_serving(
        self, service, request_payload, fragment
    ):
        with _raw_connection(service) as sock:
            protocol.send_frame(sock, request_payload)
            reply = protocol.recv_frame(sock)
            assert reply["ok"] is False
            assert reply["id"] == request_payload["id"]
            assert fragment in reply["error"]
            assert "\n" not in reply["error"]
            protocol.send_frame(sock, {"id": 99, "verb": "ping"})
            assert protocol.recv_frame(sock)["ok"] is True
        _assert_alive(service)

    def test_snapshot_failure_is_an_envelope_not_a_crash(self, service, tmp_path):
        with ServeClient(service.address) as client:
            with pytest.raises(ServeError):
                client.snapshot(str(tmp_path / "no-such-dir" / "x" / "model.json"))
        _assert_alive(service)


class TestFramingAbuse:
    def test_oversized_frame_is_refused_with_envelope(self, service):
        with _raw_connection(service) as sock:
            sock.sendall(protocol.HEADER.pack(protocol.MAX_FRAME_BYTES + 1))
            reply = protocol.recv_frame(sock)
            assert reply["ok"] is False
            assert "cap" in reply["error"]
            # The stream is unrecoverable; the daemon closes it.
            assert sock.recv(1) == b""
        _assert_alive(service)

    def test_truncated_header_then_disconnect(self, service):
        with _raw_connection(service) as sock:
            sock.sendall(b"\x00\x00")  # half a header, then gone
        time.sleep(0.05)
        _assert_alive(service)

    def test_truncated_body_then_disconnect(self, service):
        with _raw_connection(service) as sock:
            sock.sendall(protocol.HEADER.pack(500) + b"only a little")
        time.sleep(0.05)
        _assert_alive(service)

    def test_disconnect_before_reading_reply(self, service):
        # A full, valid request whose sender vanishes before the
        # response: the write fails into a suppressed error, not a
        # daemon death.
        with _raw_connection(service) as sock:
            protocol.send_frame(
                sock, {"id": 1, "verb": "score", "tokens": ["a", "b"]}
            )
        time.sleep(0.05)
        _assert_alive(service)

    def test_many_abusive_connections_in_a_row(self, service):
        for round_index in range(10):
            with _raw_connection(service) as sock:
                sock.sendall(struct.pack(">I", 99999999))
        _assert_alive(service)


class TestShutdownLeavesNothing:
    def test_in_process_shutdown_is_clean(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, "disk")
        socket_path = tmp_path / "serve.sock"
        config = ServeConfig(socket_path=str(socket_path), batch_window_ms=1.0)
        with serve_in_thread(config) as service:
            with ServeClient(service.address) as client:
                client.train(["cheap", "pills"], True)
                assert client.score(["cheap"]) > 0
                client.shutdown()
            service.stopped.wait(timeout=10.0)
        assert not socket_path.exists()
        # Nothing orphaned for the janitor: this process is alive, so
        # its own store is live, and the daemon made no others.
        assert orphaned_stores() == []

    @pytest.mark.slow
    def test_cli_daemon_shutdown_leaves_no_orphans(self, tmp_path):
        """The full lifecycle as ops would see it: spawn `repro serve`
        with a disk store, use it, shut it down over the wire, then
        prove `repro gc` has nothing to reclaim."""
        env = os.environ.copy()
        env[STORE_ENV] = "disk"
        env[STORE_DIR_ENV] = str(tmp_path)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        socket_path = tmp_path / "daemon.sock"
        # The with-block closes both pipes, so the test leaves no
        # unclosed file behind (it passes under -W error::ResourceWarning).
        with subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                str(socket_path),
                "--batch-window",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        ) as daemon:
            try:
                assert "serving on" in daemon.stdout.readline()
                with ServeClient(str(socket_path)) as client:
                    client.train(["cheap", "pills"], True)
                    client.score(["cheap", "meeting"])
                    client.shutdown()
                assert daemon.wait(timeout=15.0) == 0
            finally:
                if daemon.poll() is None:  # pragma: no cover - failure path
                    daemon.kill()
                    daemon.wait()
        assert not socket_path.exists()
        # The daemon's disk store died with the daemon (atexit), so the
        # janitor must find zero orphans.
        gc = subprocess.run(
            [sys.executable, "-m", "repro", "gc"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert gc.returncode == 0, gc.stderr
        assert "0 store(s) reclaimed" in gc.stdout
        assert not list(tmp_path.glob("repro_store_*"))


class TestClientEdges:
    """The blocking client's own failure and transport paths."""

    def test_tcp_serving_end_to_end(self, tmp_path):
        """``--port 0``: the OS picks, the announced address serves —
        the transport the benchmark and remote clients use."""
        config = ServeConfig(port=0, batch_window_ms=1.0)
        with serve_in_thread(config) as svc:
            host, port = svc.address
            assert host == "127.0.0.1" and port > 0
            with connect((host, port)) as client:
                assert client.ping()["pong"] is True
                client.train(["cheap", "pills"], True)
                assert isinstance(client.score(["cheap", "meeting"]), float)

    def test_connect_failure_is_one_serve_error(self, tmp_path):
        with pytest.raises(ServeError, match="cannot connect"):
            ServeClient(str(tmp_path / "nobody-home.sock"))
        with pytest.raises(ServeError, match="cannot connect"):
            ServeClient(("127.0.0.1", 1))  # reserved port, nothing listens

    def test_recv_buffers_replies_for_other_requests(self, service):
        """Pipelined callers may collect replies in any order."""
        with ServeClient(service.address) as client:
            first = client.send("ping")
            second = client.send("ping")
            assert client.recv(second)["id"] == second
            assert client.recv(first)["id"] == first

    def test_peer_disappearing_mid_read_is_a_serve_error(self, service):
        """The daemon closing (here: shutdown) surfaces as ServeError,
        not a raw socket exception, on the next blocking read."""
        with ServeClient(service.address) as client:
            client.shutdown()
            with pytest.raises(ServeError, match="filter service"):
                client.request("ping")

    def test_send_on_dead_socket_is_a_serve_error(self, service):
        client = ServeClient(service.address)
        client.close()
        with pytest.raises(ServeError, match="cannot send"):
            client.ping()

    def test_oversized_reply_header_rejected_client_side(self, service):
        """The frame cap cuts both ways: a hostile *server* length
        prefix trips the client's own guard before any allocation."""
        left, right = socket.socketpair()
        try:
            right.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            with pytest.raises(protocol.ProtocolError, match="exceeds"):
                protocol.recv_frame(left)
        finally:
            left.close()
            right.close()
