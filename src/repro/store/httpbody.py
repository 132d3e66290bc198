"""HTTP request-body framing shared by the daemon and the router.

``BaseHTTPRequestHandler`` hands its subclass the raw socket stream, so
anything serving POST bodies has to decode the framing itself.  Both
framings live here, once, for :class:`~repro.store.server.StoreServer`
and :class:`~repro.cluster.router.ClusterRouter`:

* a validated ``Content-Length`` read in bounded pieces -- a short read
  is a 400, never a silently truncated document;
* ``Transfer-Encoding: chunked`` -- which the stdlib server does *not*
  decode -- for clients streaming a body whose length they do not know
  yet.

Oversized bodies are a 413 before the bytes are buffered anywhere.
:func:`read_document_stream` feeds either framing through the BINCAP
stream reader for the two ``/ingest/stream`` endpoints.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.binformat import StreamReader


class RequestError(ValueError):
    """A malformed request, carrying the HTTP status to answer with.

    Subclasses :class:`ValueError` so code that predates it still maps
    it to a 4xx, but dispatchers honour :attr:`status` (400 for
    malformed framing, 413 for oversized bodies) when they can.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def iter_body(request, max_body_bytes: int) -> Iterator[bytes]:
    """Yield the request body as chunks, whatever its framing."""
    encoding = (request.headers.get("Transfer-Encoding") or "").lower()
    if "chunked" in encoding:
        yield from iter_chunked_body(request.rfile, max_body_bytes)
        return
    raw = (request.headers.get("Content-Length") or "").strip()
    if not raw.isdigit():
        raise RequestError(
            400, f"missing or malformed Content-Length: {raw!r}"
        )
    length = int(raw)
    if length > max_body_bytes:
        raise RequestError(
            413,
            f"body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte cap",
        )
    remaining = length
    while remaining > 0:
        piece = request.rfile.read(min(remaining, 1 << 16))
        if not piece:
            raise RequestError(
                400,
                f"request body truncated: read {length - remaining} "
                f"of {length} bytes",
            )
        remaining -= len(piece)
        yield piece


def iter_chunked_body(rfile, max_body_bytes: int) -> Iterator[bytes]:
    """Decode one ``Transfer-Encoding: chunked`` body from the wire."""
    total = 0
    while True:
        line = rfile.readline(128)
        if not line or not line.endswith(b"\n"):
            raise RequestError(400, "truncated chunked body")
        size_text = line.split(b";", 1)[0].strip()
        try:
            size = int(size_text, 16)
        except ValueError:
            raise RequestError(
                400, f"malformed chunk size {size_text!r}"
            ) from None
        if size == 0:
            # trailer section, then the final blank line
            while True:
                trailer = rfile.readline(1024)
                if trailer in (b"\r\n", b"\n", b""):
                    return
            continue
        total += size
        if total > max_body_bytes:
            raise RequestError(
                413,
                f"chunked body exceeds the {max_body_bytes}-byte cap",
            )
        pieces = []
        remaining = size
        while remaining > 0:
            piece = rfile.read(min(remaining, 1 << 16))
            if not piece:
                raise RequestError(400, "truncated chunk payload")
            remaining -= len(piece)
            pieces.append(piece)
        yield b"".join(pieces)
        terminator = rfile.readline(4)
        if terminator not in (b"\r\n", b"\n"):
            raise RequestError(400, "malformed chunk terminator")


def read_body(request, max_body_bytes: int) -> bytes:
    """The whole request body as one byte string."""
    return b"".join(iter_body(request, max_body_bytes))


def read_document_stream(
    request,
    max_body_bytes: int,
    on_document: Callable[[Optional[str], Dict[str, object], bytes], None],
    rejected: List[Dict[str, object]],
) -> Tuple[Dict[str, object], Optional[str]]:
    """Feed a BINCAP document stream to ``on_document`` as it arrives.

    ``on_document(workload, meta, blob)`` runs the moment a document's
    DOC_END verifies, so a long capture lands incrementally; a torn
    document is appended to ``rejected``.  Framing that dies mid-stream
    (truncated chunk, connection cut) keeps what verified and comes
    back as the error text.  Returns ``(reader summary, error)``.
    """
    reader = StreamReader(max_document_bytes=max_body_bytes)
    error: Optional[str] = None
    try:
        for piece in iter_body(request, max_body_bytes):
            for event in reader.feed(piece):
                if event[0] == "doc":
                    on_document(*event[1:])
                elif event[0] == "torn":
                    rejected.append({"workload": event[1], "error": event[2]})
    except RequestError as exc:
        error = str(exc)
    except (ValueError, OSError) as exc:
        error = str(exc) or type(exc).__name__
    return reader.summary(), error
