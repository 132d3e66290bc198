"""One HTTP service core and one HTTP client for the serving tier.

:class:`HTTPService` is what the store daemon
(:class:`~repro.store.server.StoreServer`) and the cluster router
(:class:`~repro.cluster.router.ClusterRouter`) share: the stdlib
handler, the lifecycle, dispatch through a route table, the
``X-Repro-Trace`` join, error-to-status mapping, per-endpoint latency
digests and counters, the access log, and response writing.  Each
daemon declares only its routes and endpoint bodies.  An endpoint gets
``(request, params)`` and returns its payload (answered 200) or a
``(status, payload)`` pair.

:class:`HttpClient` is the one client (router-to-shard calls, the load
generator, the CLIs); :func:`serve_until_terminated` is the CLIs'
foreground mode.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlparse, urlsplit

from repro.cluster.health import DigestMerger
from repro.core.profile_io import ProfileFormatError
from repro.obs.context import TRACE_HEADER, TraceContext, activate, current_header
from repro.obs.events import EventLog
from repro.store.httpbody import RequestError, read_body
from repro.telemetry import Telemetry, coalesce

#: default cap on one request body / streamed document (64 MiB); a
#: profile document larger than this is a client bug, not a workload
DEFAULT_MAX_BODY_BYTES = 64 << 20

#: request-latency histogram buckets (seconds)
LATENCY_BUCKETS = tuple(0.0001 * (4 ** p) for p in range(8))

#: an endpoint: ``(request, params) -> payload | (status, payload)``
Endpoint = Callable[[BaseHTTPRequestHandler, Dict[str, str]], object]


class RawBody:
    """A non-JSON response payload: raw bytes plus extra headers."""

    __slots__ = ("data", "headers")

    def __init__(self, data: bytes, headers: Optional[Dict[str, str]] = None):
        self.data = data
        self.headers = dict(headers or {})


def required(params: Dict[str, str], name: str) -> str:
    """A query parameter that must be present and non-empty (else 400)."""
    value = params.get(name)
    if not value:
        raise ValueError(f"missing required parameter {name!r}")
    return value


class _Handler(BaseHTTPRequestHandler):
    # keep-alive: every response carries Content-Length, so HTTP/1.1 is
    # safe and a client reuses one connection instead of reconnecting
    protocol_version = "HTTP/1.1"

    # Nagle off: response bodies follow headers in a second send() and
    # would otherwise stall on the peer's delayed ACK
    disable_nagle_algorithm = True

    # quiet: the access log (``request`` events) replaces the
    # per-request stderr lines
    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self):  # noqa: N802
        self.server.service.handle(self, "GET")

    def do_POST(self):  # noqa: N802
        self.server.service.handle(self, "POST")


class HTTPService:
    """A threaded HTTP daemon driven by its subclass's route table."""

    #: telemetry namespace of the per-request counters and histogram
    metric_prefix = "http"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Optional[Telemetry] = None,
        trace_out: Optional[str] = None,
        events: Optional[EventLog] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        max_concurrent: Optional[int] = None,
    ) -> None:
        self.telemetry = coalesce(telemetry)
        #: the access log: one ``request`` record per served request,
        #: mirrored to ``trace_out`` (JSONL) when given
        self.events = events if events is not None else EventLog(path=trace_out)
        self.max_body_bytes = max_body_bytes
        #: per-endpoint latency digests ("*" aggregates all endpoints)
        self.latency = DigestMerger()
        self.started = time.time()
        # a semaphore of max_concurrent gates the endpoint bodies, so a
        # stampede queues in the accept backlog instead of
        # oversubscribing the process
        self._gate = (
            threading.BoundedSemaphore(max_concurrent)
            if max_concurrent
            else None
        )
        self._routes: Dict[Tuple[str, str], Endpoint] = self.routes()
        # guards the telemetry registry (single-threaded by design) and
        # the request counts
        self._metrics_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self
        # guards the serving-thread handle and the serve-loop state:
        # start() may race stop() (or a second start()) when embedding
        # code drives the lifecycle from more than one thread
        self._lifecycle_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False
        # in-flight request accounting: drain() waits on the condition
        # until handler threads finish
        self._inflight_lock = threading.Lock()
        self._inflight_cond = threading.Condition(self._inflight_lock)
        self._inflight = 0

    def routes(self) -> Dict[Tuple[str, str], Endpoint]:
        """The route table: ``(method, path) -> endpoint``."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "HTTPService":
        """Serve in a background thread.

        Starting an already-started daemon raises rather than leaking
        the first serving thread's handle.
        """
        with self._lifecycle_lock:
            if self._thread is not None:
                raise RuntimeError(f"{type(self).__name__} is already started")
            thread = self._thread = threading.Thread(
                target=self.serve_forever, daemon=True
            )
        thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._serving = True
        try:
            self.httpd.serve_forever()
        finally:
            with self._lifecycle_lock:
                self._serving = False

    def stop(self) -> None:
        """Stop serving, close the socket, flush the access log.

        Idempotent.  ``httpd.shutdown()`` waits on an event only a
        running serve loop sets, so it is called only when one runs;
        a daemon that never served stops at once.
        """
        with self._lifecycle_lock:
            self._closed = True
            serving = self._serving
            thread, self._thread = self._thread, None
        if serving:
            self.httpd.shutdown()
        if thread is not None:
            thread.join()
        self.httpd.server_close()
        self.events.flush()

    def drain(self, deadline_seconds: float = 5.0) -> bool:
        """Wait (bounded) for in-flight requests, then log the shutdown.

        The graceful-shutdown half of SIGTERM handling: the caller has
        already stopped accepting, and drain() waits until every
        handler thread finishes or the deadline passes.  Either way one
        schema-checked ``server_shutdown`` event lands in the log -- the
        shard supervisor's restart path keys off it -- and the sink is
        flushed.  Returns True when the daemon drained fully.
        """
        deadline = time.monotonic() + max(0.0, deadline_seconds)
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(remaining)
            leftover = self._inflight
        self.events.emit(
            "server_shutdown",
            drained=leftover == 0,
            in_flight=leftover,
            deadline_seconds=deadline_seconds,
        )
        self.events.flush()
        return leftover == 0

    # -- dispatch ------------------------------------------------------

    def handle(self, request: BaseHTTPRequestHandler, method: str) -> None:
        with self._inflight_lock:
            self._inflight += 1
        try:
            self._dispatch(request, method)
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    def _dispatch(self, request: BaseHTTPRequestHandler, method: str) -> None:
        parsed = urlparse(request.path)
        endpoint = parsed.path.strip("/").replace("/", "_") or "root"
        params = {
            key: values[-1] for key, values in parse_qs(parsed.query).items()
        }
        inbound = TraceContext.from_header(request.headers.get(TRACE_HEADER))
        context = inbound.child() if inbound is not None else None
        start = time.perf_counter()
        with self._gate or contextlib.nullcontext():
            gate_wait = time.perf_counter() - start
            with (
                activate(context)
                if context is not None
                else contextlib.nullcontext()
            ):
                status, payload = self._answer(
                    request, method, parsed.path, params
                )
        elapsed = time.perf_counter() - start
        self._record(endpoint, status, elapsed, gate_wait)
        self.events.emit(
            "request",
            trace=context.trace_id if context is not None else None,
            span=context.span_id if context is not None else None,
            endpoint=endpoint,
            method=method,
            status=status,
            seconds=elapsed,
        )
        self._respond(request, method, status, payload, context)

    def _answer(
        self,
        request: BaseHTTPRequestHandler,
        method: str,
        path: str,
        params: Dict[str, str],
    ) -> Tuple[int, object]:
        endpoint = self._routes.get((method, path))
        if endpoint is None:
            return 404, {"error": f"no such endpoint: {method} {path}"}
        try:
            result = endpoint(request, params)
        except RequestError as exc:
            return exc.status, {"error": str(exc)}
        except (KeyError, ProfileFormatError, ValueError) as exc:
            kind = 404 if isinstance(exc, KeyError) else 400
            return kind, {"error": str(exc).strip("'\"")}
        except Exception as exc:  # noqa: BLE001 - the daemon survives
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        return result if isinstance(result, tuple) else (200, result)

    def _record(
        self, endpoint: str, status: int, seconds: float, gate_wait: float
    ) -> None:
        """Fold one request into the digests, counts and telemetry."""
        self.latency.observe(endpoint, seconds)
        self.latency.observe("*", seconds)
        prefix = self.metric_prefix
        telemetry = self.telemetry
        with self._metrics_lock:
            self._requests += 1
            if status >= 400:
                self._errors += 1
            if not telemetry.enabled:
                return
            telemetry.counter(
                f"{prefix}.requests_total", "requests served"
            ).inc()
            telemetry.counter(
                f"{prefix}.{endpoint}_total", f"requests to {endpoint}"
            ).inc()
            if status >= 400:
                telemetry.counter(
                    f"{prefix}.errors_total", "requests answered >= 400"
                ).inc()
            telemetry.histogram(
                f"{prefix}.latency_seconds",
                "request wall time",
                bounds=LATENCY_BUCKETS,
            ).observe(seconds)
            if self._gate is not None:
                telemetry.gauge(
                    f"{prefix}.gate_wait_seconds_max",
                    "longest wait on the concurrency semaphore",
                ).set_max(gate_wait)
                telemetry.gauge(
                    f"{prefix}.gate_wait_seconds_last",
                    "latest wait on the concurrency semaphore",
                ).set(gate_wait)
            # Span accumulation without the (thread-hostile) context
            # stack: one child per endpoint under serve/.
            span = telemetry.root.child("serve").child(endpoint)
            span.calls += 1
            span.seconds += seconds
            span.add_items(1, "requests")

    @staticmethod
    def _respond(
        request: BaseHTTPRequestHandler,
        method: str,
        status: int,
        payload: object,
        context: Optional[TraceContext],
    ) -> None:
        extra_headers: Dict[str, str] = {}
        if isinstance(payload, RawBody):
            content_type = "application/octet-stream"
            body = payload.data
            extra_headers = payload.headers
        elif isinstance(payload, str):
            content_type = "text/plain; charset=utf-8"
            body = payload.encode("utf-8")
        else:
            content_type = "application/json"
            body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        try:
            request.send_response(status)
            request.send_header("Content-Type", content_type)
            request.send_header("Content-Length", str(len(body)))
            for name, value in extra_headers.items():
                request.send_header(name, value)
            if context is not None:
                request.send_header(TRACE_HEADER, context.to_header())
            # a failed POST may not have consumed its body; keeping the
            # connection alive would desync the next request's framing
            # (send_header('Connection', 'close') also flags
            # close_connection for the serving loop)
            if method == "POST" and status >= 400:
                request.send_header("Connection", "close")
            request.end_headers()
            request.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    # -- helpers for endpoint bodies -----------------------------------

    def read_body(self, request: BaseHTTPRequestHandler) -> bytes:
        """The whole request body, under the daemon's size cap."""
        return read_body(request, self.max_body_bytes)

    def trace_rows(self) -> List[Dict[str, object]]:
        """One summary row per trace id in the access log's ring."""
        rows = []
        for tid in self.events.trace_ids():
            records = self.events.records_for_trace(tid)
            rows.append(
                {
                    "trace_id": tid,
                    "records": len(records),
                    "kinds": sorted({str(r.get("kind")) for r in records}),
                    "first_ts": records[0].get("ts"),
                    "last_ts": records[-1].get("ts"),
                }
            )
        return rows


def serve_until_terminated(
    service: HTTPService, announce: Callable[[], None]
) -> None:
    """The CLIs' foreground mode: serve until SIGTERM or Ctrl-C, then stop.

    The serve loop runs in a background thread while this (main) thread
    waits on an event that the SIGTERM handler sets.  A handler that
    raised instead could land inside ``socketserver``'s accept or
    handler-start path, which catches the exception, logs it and keeps
    serving.  ``announce`` runs once the handler is installed and the
    daemon serves, so a SIGTERM sent as soon as it prints always stops
    the daemon.
    """
    terminated = threading.Event()
    previous = signal.signal(
        signal.SIGTERM, lambda signum, frame: terminated.set()
    )
    try:
        service.start()
        announce()
        terminated.wait()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        service.stop()


class Response(NamedTuple):
    """One HTTP answer: status, headers, and the whole body."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Dict[str, object]:
        """The body as a JSON object; ``{}`` when it is not one."""
        try:
            decoded = json.loads(self.body.decode("utf-8"))
        except ValueError:
            return {}
        return decoded if isinstance(decoded, dict) else {}


class HttpClient:
    """HTTP over keep-alive connections, one per calling thread and peer.

    Nagle is off on every connection: a POST body goes out in a second
    ``send()`` that would otherwise stall ~40ms on the peer's delayed
    ACK.  A request that fails on a *reused* connection (the peer
    restarted, or closed it between requests) is retried once on a
    fresh one, unless the body is an iterable of chunks (spent by the
    first attempt); every other failure raises ``OSError``.
    ``chunked=True`` sends the body with ``Transfer-Encoding: chunked``
    framing, which the caller names in its headers.  The ambient trace
    context rides along as ``X-Repro-Trace`` unless the caller passes
    one, and ``https`` URLs get TLS connections.
    """

    def __init__(self, timeout: float = 30.0) -> None:
        self.timeout = timeout
        self._local = threading.local()

    def _connections(self) -> Dict[Tuple[str, str], http.client.HTTPConnection]:
        connections = getattr(self._local, "connections", None)
        if connections is None:
            connections = self._local.connections = {}
        return connections

    def request(
        self,
        url: str,
        method: str = "GET",
        path: str = "",
        body: Optional[object] = None,
        headers: Optional[Dict[str, str]] = None,
        timeout: Optional[float] = None,
        chunked: bool = False,
    ) -> Response:
        """One exchange with the server at ``url`` (``path`` appended)."""
        split = urlsplit(url)
        key = (split.scheme, split.netloc)
        target = (split.path.rstrip("/") + path) or "/"
        send_headers = dict(headers or {})
        trace = current_header()
        if trace is not None:
            send_headers.setdefault(TRACE_HEADER, trace)
        wait = self.timeout if timeout is None else timeout
        connections = self._connections()
        while True:
            connection = connections.get(key)
            reused = connection is not None
            try:
                if connection is None:
                    connection = self._connect(split.scheme, split.netloc, wait)
                    connections[key] = connection
                elif connection.timeout != wait:
                    connection.timeout = wait
                    connection.sock.settimeout(wait)
                connection.request(
                    method, target, body=body, headers=send_headers,
                    encode_chunked=chunked,
                )
                response = connection.getresponse()
                data = response.read()
            except (http.client.HTTPException, OSError) as exc:
                if connection is not None:
                    connection.close()
                connections.pop(key, None)
                if reused and (body is None or isinstance(body, bytes)):
                    continue
                if isinstance(exc, OSError):
                    raise
                raise OSError(f"{type(exc).__name__}: {exc}") from exc
            if response.will_close:
                connection.close()
                connections.pop(key, None)
            return Response(response.status, dict(response.getheaders()), data)

    @staticmethod
    def _connect(
        scheme: str, netloc: str, timeout: float
    ) -> http.client.HTTPConnection:
        factory = (
            http.client.HTTPSConnection
            if scheme == "https"
            else http.client.HTTPConnection
        )
        connection = factory(netloc, timeout=timeout)
        try:
            connection.connect()
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        except OSError:
            connection.close()
            raise
        return connection

    def close(self) -> None:
        """Close the calling thread's connections."""
        connections = self._connections()
        for connection in connections.values():
            connection.close()
        connections.clear()


def fetch_json(
    url: str,
    path: str,
    method: str = "GET",
    body: Optional[bytes] = None,
    timeout: float = 30.0,
    peer: str = "daemon",
) -> object:
    """One JSON exchange for the CLIs, over a one-shot connection.

    Raises ``ValueError`` -- ``"<peer> answered <status>: <body>"`` on a
    non-2xx answer, ``"<peer> unreachable: <reason>"`` when the exchange
    fails -- which the CLIs print as their error line.
    """
    client = HttpClient(timeout)
    try:
        response = client.request(url, method, path, body=body)
    except OSError as exc:
        raise ValueError(f"{peer} unreachable: {exc}") from None
    finally:
        client.close()
    if not 200 <= response.status < 300:
        detail = response.body.decode("utf-8", errors="replace").strip()
        raise ValueError(f"{peer} answered {response.status}: {detail}")
    return json.loads(response.body.decode("utf-8"))
