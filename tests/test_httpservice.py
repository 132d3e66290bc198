"""The shared HTTP service core: SIGTERM handling and the HTTP client."""

import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.httpservice import HttpClient, fetch_json
from repro.obs.events import read_events
from repro.store import ProfileStore
from repro.store.server import StoreServer

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _serve_command(tmp_path, port):
    return [
        sys.executable, "-m", "repro.store.serve_cli", "serve",
        "--root", str(tmp_path / "store"), "--port", str(port),
        "--trace-out", str(tmp_path / "events.jsonl"),
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _wait_or_kill(proc, timeout):
    """The exit code, or None (and the process killed) on timeout."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def _shutdown_events(tmp_path):
    return [
        event
        for event in read_events(str(tmp_path / "events.jsonl"))
        if event["kind"] == "server_shutdown"
    ]


class TestSigterm:
    def test_sigterm_as_soon_as_listening_stops_and_drains(self, tmp_path):
        proc = subprocess.Popen(
            _serve_command(tmp_path, 0),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_env(),
        )
        try:
            for raw in proc.stdout:
                if raw.startswith(b"listening "):
                    proc.send_signal(signal.SIGTERM)
                    break
            code = _wait_or_kill(proc, 10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert code == 0, "daemon did not exit within 10 s of SIGTERM"
        assert len(_shutdown_events(tmp_path)) == 1

    def test_sigterm_while_announcing_stops_and_drains(self, tmp_path):
        # The daemon's stdout is a pipe filled to the brim, so it blocks
        # writing its announce lines; SIGTERM lands right there.  A
        # handler installed only after the announce used to let the
        # default action kill the daemon (no drain, no
        # server_shutdown); one that raised before the serve loop ran
        # left stop() waiting forever on socketserver's shutdown event.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        try:
            while True:
                os.write(write_end, b"#" * 4096)
        except BlockingIOError:
            pass
        os.set_blocking(write_end, True)
        proc = subprocess.Popen(
            _serve_command(tmp_path, port),
            stdout=write_end,
            stderr=subprocess.DEVNULL,
            env=_env(),
        )
        os.close(write_end)
        try:
            # the socket is bound before the announce; give the daemon
            # a moment to reach its (blocked) first print
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and proc.poll() is None:
                try:
                    socket.create_connection(("127.0.0.1", port), 1).close()
                    break
                except OSError:
                    time.sleep(0.05)
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            # now let the announce through, and read until EOF
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                ready, __, __ = select.select([read_end], [], [], 0.2)
                if ready and not os.read(read_end, 65536):
                    break
            code = _wait_or_kill(proc, max(0.1, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            os.close(read_end)
        assert code == 0, f"daemon exited with {code} instead of draining"
        assert len(_shutdown_events(tmp_path)) == 1


class TestHttpClient:
    def test_reuses_its_connection(self, tmp_path):
        server = StoreServer(ProfileStore(str(tmp_path / "store"))).start()
        client = HttpClient(timeout=10.0)
        try:
            for __ in range(3):
                answer = client.request(server.url, "GET", "/healthz")
                assert answer.status == 200
                assert answer.json()["status"] == "ok"
            # one keep-alive connection served all three requests
            assert len(client._connections()) == 1
        finally:
            client.close()
            server.stop()

    def test_retries_once_when_the_peer_dropped_a_kept_connection(self):
        # a peer that answers keep-alive and then closes the socket
        # anyway (a restarted shard looks like this to the router)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        accepted = []

        def serve():
            for __ in range(2):
                conn, __ = listener.accept()
                accepted.append(conn)
                conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
                )
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        url = "http://127.0.0.1:%d" % listener.getsockname()[1]
        client = HttpClient(timeout=5.0)
        try:
            assert client.request(url, "GET", "/a").status == 200
            time.sleep(0.1)  # the peer's close reaches us
            assert client.request(url, "POST", "/b", body=b"x").status == 200
            assert len(accepted) == 2
        finally:
            client.close()
            listener.close()
            thread.join(timeout=5)

    def test_fetch_json_reports_status_and_unreachable_peers(self, tmp_path):
        server = StoreServer(ProfileStore(str(tmp_path / "store"))).start()
        url = server.url
        try:
            assert fetch_json(url, "/healthz")["status"] == "ok"
            with pytest.raises(ValueError, match="daemon answered 404"):
                fetch_json(url, "/no-such-endpoint")
        finally:
            server.stop()
        with pytest.raises(ValueError, match="router unreachable"):
            fetch_json(url, "/healthz", timeout=2.0, peer="router")
