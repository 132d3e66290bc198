"""``serve-mixed``: a 3-shard, 2-replica ``repro-cluster`` over HTTP.

The cluster runs in subprocesses exactly as ``repro-cluster serve``
starts it.  One process drives it with a closed loop of ``nproc`` (at
least two) keep-alive clients: the callers it stands for --
``repro-serve ingest --url`` and CI jobs -- each wait for their reply.
The op mix is ``repro.cluster.loadgen.DEFAULT_MIX``, the repository's
own mixed HTTP load: JSON, binary and streamed ingest plus run and entry
queries, document gets and same-kind diffs, over a small fixed set of
real suite documents, so most ingests repeat a stored digest.  This is
the only workload with HTTP, routing and replication.

The load generator is the benchmark's own, not loadgen's: loadgen's
``diff`` pairs two arbitrary digests, so with WHOMP and LEAP documents
mixed a share of its diffs are rejected with 4xx, and its worker RNG
(``worker_index * 7919 + 17``) ignores the seed.  Here diffs pair two
runs of one kind and every pick is drawn from the workload seed.

There is nothing to trace on the client side: the per-layer figures
(router, shard, read repairs, shard caches) come from the router's own
``/metricsz`` answer, which every run fetches.  ``--trace 1`` runs the
same untraced workload, and its ``trace.overhead`` is 1.

The gated time is the user-mode CPU time the router and shard
processes spend per answered request, read from ``/proc`` around the
window; request wall times, which the scheduler of a shared host sets
as much as the program does, are kept in the result file.

Correctness: every answer must have the expected status and content,
and after the window every acknowledged digest is read back through the
router's ``/blob`` and re-hashed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

from repro.cluster.loadgen import DEFAULT_MIX as MIX
from repro.core.binformat import StreamWriter
from repro.core.profile_io import dumps_bytes
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.store.blobs import BlobStore, sha256_hex
from repro.workloads.registry import SPEC_BENCHMARKS, create

import measure
from spans import SpanRecorder

SHARDS = 3
REPLICAS = 2
#: the suite documents are profiles of the stand-ins at this scale
DOC_SCALE = 0.1
WHOMP_STANDINS = ("crafty", "parser")
#: cluster boots (until every shard is healthy) timed for set-up; the
#: last one is measured
BOOTS = 3
BOOT_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0

INGESTS = ("ingest-json", "ingest-binary", "ingest-stream")


class Document:
    __slots__ = ("workload", "kind", "fmt", "data", "digest", "accesses", "entries")

    def __init__(self, workload, kind, fmt, data, accesses, entries):
        self.workload = workload
        self.kind = kind
        self.fmt = fmt
        self.data = data
        self.digest = sha256_hex(data)
        self.accesses = accesses
        self.entries = entries


def suite_documents(seed: int) -> List[Document]:
    """LEAP profiles of all seven stand-ins and WHOMP profiles of two,
    each in both encodings."""
    out = []
    for name in SPEC_BENCHMARKS:
        trace = create(name, scale=DOC_SCALE, seed=seed).trace()
        profiles = [("leap", LeapProfiler().profile(trace))]
        if name in WHOMP_STANDINS:
            profiles.append(("whomp", WhompProfiler().profile(trace)))
        for kind, profile in profiles:
            entries = len(profile.entries) if kind == "leap" else 0
            for fmt in ("json", "binary"):
                out.append(
                    Document(name, kind, fmt, dumps_bytes(profile, fmt=fmt),
                             trace.access_count, entries)
                )
    return out


class Cluster:
    """One ``repro-cluster serve`` process tree in its own process group."""

    def __init__(self, root: str, src_dir: str, log_path: str) -> None:
        self.root = root
        self.src_dir = src_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.netloc = ""

    def start(self) -> None:
        command = [
            sys.executable, "-u", "-m", "repro.cluster.cli", "serve",
            "--root", self.root, "--port", "0",
            "--shards", str(SHARDS), "--replicas", str(REPLICAS),
        ]
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log,
                env=measure.child_env(self.src_dir), start_new_session=True,
            )
        deadline = time.monotonic() + BOOT_TIMEOUT
        pending = b""
        fd = self.proc.stdout.fileno()
        while b"listening " not in pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError(f"cluster did not boot; see {self.log_path}")
            ready, __, __ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    continue
                pending += chunk
        line = pending.split(b"listening ", 1)[1].split(b"\n", 1)[0]
        self.netloc = line.decode().strip()
        # booted means serving: the router prints its address before it
        # enters its serve loop, and a SIGTERM in between hangs it
        while True:
            try:
                status, body = request_json(self.netloc, "GET", "/healthz")
                if status == 200 and body.get("shards_alive") == SHARDS:
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"cluster never became healthy; see {self.log_path}")
            time.sleep(0.02)

    def pids(self) -> List[int]:
        status, body = request_json(self.netloc, "GET", "/clusterz")
        shards = body.get("shards", {}) if status == 200 else {}
        return [self.proc.pid] + [row["pid"] for row in shards.values() if row.get("pid")]

    def stop(self) -> None:
        """SIGTERM drains the shards; anything left is killed, and every
        process of the tree is waited for."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        # SIGTERM is repeated: the router swallows one that lands while
        # its accept loop is starting a handler thread (see README)
        deadline = time.monotonic() + 30
        while proc.poll() is None and time.monotonic() < deadline:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        deadline = time.monotonic() + 10
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class _Connection(http.client.HTTPConnection):
    """A keep-alive connection that reconnects on its next request after
    ``close()``, with Nagle off: POST bodies go out in a second send(),
    which would otherwise wait on the server's delayed ACK."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _connect(netloc: str) -> http.client.HTTPConnection:
    return _Connection(netloc, timeout=REQUEST_TIMEOUT)


def request_json(netloc, method, path) -> Tuple[int, Dict[str, object]]:
    connection = _connect(netloc)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class ClosedLoop:
    """The closed loop: each client sends its next request when the
    previous answer arrived."""

    def __init__(self, netloc, documents, seed) -> None:
        self.netloc = netloc
        self.documents = documents
        self.by_digest = {d.digest: d for d in documents}
        self.seed = seed
        self.lock = threading.Lock()
        #: kind -> digests the cluster acknowledged, in first-ack order
        self.acked: Dict[str, List[str]] = {"leap": [], "whomp": []}
        self.latencies: Dict[str, List[float]] = {k: [] for k in MIX}
        self.ingests = 0
        self.repeats = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 50:
                self.errors.append(message)

    def acked_digests(self, kind: str) -> List[str]:
        with self.lock:
            return list(self.acked[kind])

    def note_ingest(self, document: Document) -> None:
        with self.lock:
            self.ingests += 1
            known = self.acked[document.kind]
            if document.digest in known:
                self.repeats += 1
            else:
                known.append(document.digest)

    def run(self, clients: int, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._client, args=(index, deadline))
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _client(self, index: int, deadline: float) -> None:
        rng = random.Random(self.seed * 1000003 + index)
        kinds = list(MIX)
        weights = [MIX[k] for k in kinds]
        connection = _connect(self.netloc)
        try:
            while time.perf_counter() < deadline:
                op = rng.choices(kinds, weights)[0]
                with self.lock:
                    self.attempted += 1
                start = time.perf_counter()
                try:
                    problem = self._op(connection, op, rng)
                except Exception as exc:  # noqa: BLE001 - the loop keeps driving
                    problem = f"{op}: {type(exc).__name__}: {exc}"
                    connection.close()
                elapsed = time.perf_counter() - start
                if problem is not None:
                    self.fail(problem)
                    continue
                with self.lock:
                    self.latencies[op].append(elapsed)
        finally:
            connection.close()

    def call(self, connection, method, path, body=None, headers=None, chunked=False):
        connection.request(method, path, body=body, headers=headers or {},
                           encode_chunked=chunked)
        response = connection.getresponse()
        return response.status, response.read()

    def _op(self, connection, op: str, rng: random.Random) -> Optional[str]:
        """Run one op; ``None`` when the answer is right."""
        if op in INGESTS:
            fmt = "json" if op == "ingest-json" else "binary"
            pool = self.documents if op == "ingest-stream" else [
                d for d in self.documents if d.fmt == fmt
            ]
            document = pool[rng.randrange(len(pool))]
            if op == "ingest-stream":
                pending: List[bytes] = []
                writer = StreamWriter(pending.append)
                writer.begin()
                writer.send_document(document.workload, document.data)
                writer.close()
                status, body = self.call(
                    connection, "POST", "/ingest/stream", body=iter([b"".join(pending)]),
                    headers={"Transfer-Encoding": "chunked"}, chunked=True,
                )
                rows = (json.loads(body).get("ingested") or [{}]) if status == 201 else [{}]
                digest = rows[0].get("digest")
            else:
                status, body = self.call(
                    connection, "POST",
                    f"/ingest?{urlencode({'workload': document.workload})}",
                    body=document.data,
                )
                digest = json.loads(body).get("digest") if status == 201 else None
            if status != 201 or digest != document.digest:
                return f"{op} {document.workload}/{document.kind}: status {status}, digest {digest}"
            self.note_ingest(document)
            return None
        if op == "query-runs":
            workload = SPEC_BENCHMARKS[rng.randrange(len(SPEC_BENCHMARKS))]
            status, body = self.call(
                connection, "GET", f"/query/runs?{urlencode({'workload': workload})}"
            )
            runs = json.loads(body).get("runs") if status == 200 else None
            if not isinstance(runs, list) or any(r.get("workload") != workload for r in runs):
                return f"query-runs {workload}: status {status}"
            return None
        kind = "whomp" if op in ("get", "diff") and rng.random() < 0.3 else "leap"
        acked = self.acked_digests(kind) or self.acked_digests("leap")
        if not acked:
            status, __ = self.call(connection, "GET", "/healthz")
            return None if status == 200 else f"healthz: status {status}"
        document = self.by_digest[acked[rng.randrange(len(acked))]]
        if op == "query-entries":
            status, body = self.call(
                connection, "GET", f"/query/entries?{urlencode({'run': document.digest})}"
            )
            rows = json.loads(body).get("entries") if status == 200 else None
            if not isinstance(rows, list) or len(rows) != document.entries:
                return f"query-entries {document.digest[:12]}: status {status}"
            return None
        if op == "get":
            status, body = self.call(
                connection, "GET", f"/get?{urlencode({'run': document.digest})}"
            )
            answer = json.loads(body) if status == 200 else {}
            if answer.get("format") != document.kind or answer.get("access_count") != document.accesses:
                return (
                    f"get {document.digest[:12]}: status {status}, "
                    f"{answer.get('format')} with {answer.get('access_count')} accesses, "
                    f"ingested {document.kind} with {document.accesses}"
                )
            return None
        # diff: two runs of the same kind
        same = [d for d in self.acked_digests(document.kind) if d != document.digest]
        if not same:
            status, __ = self.call(connection, "GET", "/healthz")
            return None if status == 200 else f"healthz: status {status}"
        other = same[rng.randrange(len(same))]
        status, body = self.call(
            connection, "GET", f"/diff?{urlencode({'a': document.digest, 'b': other})}"
        )
        answer = json.loads(body) if status == 200 else {}
        if answer.get("kind") != document.kind:
            return f"diff {document.kind}: status {status}"
        return None


def _boot_timed(ctx, index: int) -> Tuple[Cluster, float]:
    cluster = Cluster(
        os.path.join(ctx.workdir, f"cluster{index}"), ctx.src_dir,
        os.path.join(ctx.workdir, f"cluster{index}.log"),
    )
    start = time.perf_counter()
    cluster.start()
    return cluster, time.perf_counter() - start


def run_serve(ctx) -> Dict[str, object]:
    documents = suite_documents(ctx.seed)
    clients = max(2, measure.host_facts()["nproc"] or 2)
    boot_times = []
    cluster = None
    try:
        for index in range(BOOTS):
            if cluster is not None:
                cluster.stop()
            cluster, seconds = _boot_timed(ctx, index)
            boot_times.append(seconds)
        loop = ClosedLoop(cluster.netloc, documents, ctx.seed)
        # warm-up outside the window: the JSON encoding of every document
        # is stored once (the binary encodings are new to the window)
        connection = _connect(cluster.netloc)
        try:
            for document in documents:
                if document.fmt != "json":
                    continue
                status, __ = loop.call(
                    connection, "POST",
                    f"/ingest?{urlencode({'workload': document.workload})}",
                    body=document.data,
                )
                if status != 201:
                    raise RuntimeError(f"warm-up ingest answered {status}")
                loop.note_ingest(document)
        finally:
            connection.close()
        loop.ingests = loop.repeats = 0
        pids = cluster.pids()
        cpu_start = sum(measure.process_user_cpu_seconds(pid) for pid in pids)
        window_start = time.perf_counter()
        loop.run(clients, ctx.seconds)
        window = time.perf_counter() - window_start
        # a restarted shard is a failure, and its predecessor's CPU time
        # and memory are gone: both figures count the processes that
        # served the whole window
        alive = [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
        cluster_cpu = sum(measure.process_user_cpu_seconds(pid) for pid in alive) - cpu_start
        if cluster.pids() != pids:
            loop.fail("a cluster process restarted inside the window")
        __, metricsz = request_json(cluster.netloc, "GET", "/metricsz")
        peak_rss = sum(measure.process_peak_rss_mb(pid) for pid in alive)
        # read every acknowledged digest back through the router
        acked = loop.acked_digests("leap") + loop.acked_digests("whomp")
        connection = _connect(cluster.netloc)
        try:
            for digest in acked:
                loop.attempted += 1
                status, body = loop.call(
                    connection, "GET", f"/blob?{urlencode({'digest': digest})}"
                )
                if status != 200 or sha256_hex(body) != digest or body != loop.by_digest[digest].data:
                    loop.fail(f"blob {digest[:12]}: status {status}, bytes differ")
        finally:
            connection.close()
        stored = sum(
            BlobStore(os.path.join(cluster.root, f"shard{i}", "objects")).stored_bytes()
            for i in range(SHARDS)
        )
    finally:
        if cluster is not None:
            cluster.stop()

    all_ops = [s for values in loop.latencies.values() for s in values]
    ingests = [s for k in INGESTS for s in loop.latencies[k]]
    reads = [s for k in MIX if k not in INGESTS for s in loop.latencies[k]]
    distinct_bytes = sum(len(loop.by_digest[d].data) for d in acked)
    dedup_share = loop.repeats / loop.ingests
    end_to_end = {
        "setup_s": statistics.median(boot_times),
        "user_cpu_ms_per_op": cluster_cpu / len(all_ops) * 1000.0,
        "peak_rss_mb": peak_rss,
        "stored_bytes_per_input_byte": stored / distinct_bytes,
    }
    router = metricsz.get("router", {})
    router_ingest = router.get("endpoints", {}).get("ingest", {}).get("p50_seconds")
    shard_ingest = metricsz.get("cluster", {}).get("endpoints", {}).get("ingest", {}).get("p50_seconds")
    cache_hits = cache_total = 0
    for row in metricsz.get("shards", {}).values():
        cache = row.get("cache") or {}
        cache_hits += cache.get("hits", 0)
        cache_total += cache.get("hits", 0) + cache.get("misses", 0)
    layers = {
        "router.ingest_p50_ms": router_ingest * 1000.0,
        "shard.ingest_p50_ms": shard_ingest * 1000.0,
        "router.overhead_ms": (router_ingest - shard_ingest) * 1000.0,
        "cluster.read_repairs": router.get("read_repairs", 0),
        "store.dedup_share": dedup_share,
        "store.cache_hit_rate": cache_hits / cache_total if cache_total else 0.0,
    }
    details = {
        "clients": clients,
        "window_s": window,
        "requests": len(all_ops),
        "cluster_user_cpu_s": cluster_cpu,
        "ops_per_s": len(all_ops) / window,
        "op_p50_ms": statistics.median(all_ops) * 1000.0,
        "boot_s": boot_times,
        "ingest_latency": measure.latency_summary(ingests),
        "read_latency": measure.latency_summary(reads),
        "per_op_latency": {k: measure.latency_summary(v) for k, v in loop.latencies.items()},
        "layers": layers,
        "router_metricsz": router,
    }
    # nothing is traced here (see the module docstring)
    per_layer = dict(layers, **{"trace.overhead": 1.0}) if ctx.trace else {}
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "end_to_end": end_to_end,
        "details": details,
        "per_layer": per_layer,
        "spans": SpanRecorder(),
    }
