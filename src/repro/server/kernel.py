"""The HTTP kernel both listeners share: lifecycle, request loop, writer.

A :class:`Listener` is one stdlib ``ThreadingHTTPServer`` on its own
port.  The kernel owns everything that is not a route:

* the lifecycle — bind, serve thread, ``port``/``address``, the
  in-flight drain (new requests get ``503`` while it runs) and close;
* the request loop — a caller's ``traceparent`` continues its trace
  (else a fresh root under the listener's ``span_name``), only GET is
  served (any other method gets ``405`` and ``Connection: close``), an
  :class:`ApiError` becomes its status plus a JSON error body, anything
  else a ``500`` recorded on the span, and a vanished client no traceback;
* the request head — an ``HTTP/1.0`` or ``HTTP/1.1`` request line and
  its header lines are read here, under stdlib's limits, into a
  :class:`Headers`; any other request line gets stdlib's parse;
* one response writer, :meth:`Request.send`, which writes a response
  head as one string, plus the access log.

A listener supplies the rest: ``routes`` (path → function returning a
:class:`Reply`, or None once it wrote its own response), a ``fallback``
for unrouted paths, its thread ``name``, ``span_name`` and
:meth:`Listener.record`, which counts a finished request into the
listener's own metrics.  A route key ending in ``/`` matches every path
below it.
"""

from __future__ import annotations

import json
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Callable, Dict, NamedTuple, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.obs.propagate import extract_context

JSON_TYPE = "application/json"
#: how long close() waits for in-flight requests before tearing down
DRAIN_SECONDS = 10.0
#: stdlib's limits on a request head: bytes per header line, header lines
MAX_LINE = 65536
MAX_HEADERS = 100
#: the request-line versions :meth:`Request.parse_request` reads itself
_VERSIONS = ("HTTP/1.1", "HTTP/1.0")
_HEAD_END = (b"\r\n", b"\n", b"")


class Headers(dict):
    """A request's header fields: names match case-insensitively (``get``,
    ``in``, ``[]``) and the first of a repeated name wins."""

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)

    def __contains__(self, name) -> bool:
        return dict.__contains__(self, name.lower())

    def __getitem__(self, name: str):
        return dict.__getitem__(self, name.lower())


def json_bytes(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class ApiError(Exception):
    """A client error: status, message, and headers to answer with."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers
        self.close = close


class Reply(NamedTuple):
    """What a route answers: status, body and content type."""

    status: int
    body: bytes
    content_type: str = JSON_TYPE
    headers: Optional[Dict[str, str]] = None


class Listener:
    """One HTTP listener: a route table served on its own port."""

    name = "storypivot-http"
    span_name = "http.request"
    server_version = "StoryPivot/1.0"
    #: fleet identity echoed in ``X-StoryPivot-Node`` (None = not sent)
    node_id: Optional[str] = None
    routes: Dict[str, Callable[["Request"], Optional[Reply]]] = {}

    def __init__(
        self, host: str, port: int, access_log: Optional[IO[str]] = None
    ) -> None:
        self.host = host
        self._requested_port = port
        self._access_log = access_log
        self._log_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._draining = False
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        # (second, its Date value); handler threads racing on a new
        # second both format it, and either tuple is right
        self._date = (0, "")

    # -- what a listener supplies -------------------------------------------

    def fallback(self, request: "Request") -> Optional[Reply]:
        raise ApiError(404, f"unknown path {request.split.path!r}")

    def record(self, request: "Request", elapsed: float) -> None:
        """Count one finished request (status, bytes) into metrics."""

    def inflight_changed(self, inflight: int) -> None:
        """Hook: the number of requests in flight changed."""

    def dispatch(self, request: "Request") -> Optional[Reply]:
        """Route ``request``: an exact key, else the nearest ``/`` key."""
        key = request.split.path.rstrip("/")
        handler = self.routes.get(key)
        while handler is None and key:
            handler = self.routes.get(key + "/")
            key = key.rpartition("/")[0]
        return (handler or self.fallback)(request)

    def http_date(self) -> str:
        """The ``Date`` header value for now, formatted once per second."""
        second = int(time.time())
        if self._date[0] != second:
            self._date = (second, formatdate(second, usegmt=True))
        return self._date[1]

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError(f"{self.name} is not started")
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self):
        if self._server is not None:
            return self
        handler = type("Handler", (Request,), {
            "listener": self, "server_version": self.server_version,
        })
        server = ThreadingHTTPServer((self.host, self._requested_port), handler)
        # in-flight draining is handled by close(); handler threads must
        # not block interpreter exit if a keep-alive client lingers
        server.daemon_threads = True
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=self.name,
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Graceful shutdown: refuse new work, drain in-flight, tear down."""
        if self._server is None:
            return
        self._draining = True
        deadline = time.monotonic() + DRAIN_SECONDS
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight == 0:
                    break
            time.sleep(0.01)
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- bookkeeping used by the request loop ------------------------------

    def _track(self, delta: int) -> None:
        with self._inflight_lock:
            self._inflight += delta
            self.inflight_changed(self._inflight)

    def _log(self, request: "Request", elapsed: float) -> None:
        if self._access_log is None:
            return
        line = json.dumps({
            "ts": round(time.time(), 3),
            "client": request.client_address[0] if request.client_address else "?",
            "method": request.command,
            "path": request.path,
            "status": request.status,
            "bytes": request.sent,
            "ms": round(elapsed * 1000.0, 3),
            "generation": request.generation,
            "cache": request.cache,
            "trace_id": request.trace_id,
        }, sort_keys=True)
        with self._log_lock:
            self._access_log.write(line + "\n")
            self._access_log.flush()


class Request(BaseHTTPRequestHandler):
    """One request on a :class:`Listener`: trace, route, map errors, record."""

    listener: Listener  # bound by Listener.start()
    protocol_version = "HTTP/1.1"
    # buffer the whole response and disable Nagle: an unbuffered wfile
    # sends headers and body as separate small segments, and the
    # Nagle/delayed-ACK interaction then stalls every response ~40ms
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # the default handler logs to stderr; the listener's access log is ours
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # a client that vanishes mid-stream (killed SSE subscriber) breaks
    # the pipe; base-class plumbing then re-touches wfile in
    # handle_one_request's trailing flush and in finish()'s close, and
    # that second failure would escape to socketserver's handle_error
    # traceback printer.  A gone client is normal operation here.
    def handle(self) -> None:
        try:
            super().handle()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def finish(self) -> None:
        try:
            super().finish()
        except (BrokenPipeError, ConnectionResetError):
            pass

    def parse_request(self) -> bool:
        """Reset what one request sets, read its head, then the method
        policy: GET only."""
        self.trace_id = self.request_id = None
        # set by routes: the view generation a response was rendered
        # from (-1: none) and how the response cache answered
        self.generation, self.cache = -1, "-"
        if not self._read_head():
            return False
        if self.command == "GET":
            return True
        # close the connection: clients must not guess at body framing
        self.send_error_json(ApiError(405, "only GET is supported", close=True))
        return False

    def send_error(self, code, message=None, explain=None) -> None:
        # stdlib refuses HTTP/2 and above before it adopts the request's
        # version, so it would answer as to HTTP/0.9: the page, no head
        if code == HTTPStatus.HTTP_VERSION_NOT_SUPPORTED:
            self.request_version = self.protocol_version
        super().send_error(code, message, explain)

    def _read_head(self) -> bool:
        """An HTTP/1.x request line and its header fields.

        Stdlib's limits and connection rules hold, but the fields go
        into a :class:`Headers`, not through ``email.parser``.  A line
        stdlib would fold or drop is a ``400`` (RFC 9112 §5): an obs-fold
        continuation, a line with no colon, whitespace in a field name.
        So is a bare CR anywhere but the line's end (RFC 9112 §2.2): a
        value is echoed back, and a CR in it would split a response line.
        Any other request line (HTTP/0.9, another version, too few or
        too many words) gets stdlib's own parse and answers, HTTP/2 and
        above a ``505`` with a status line.
        """
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3 or words[2] not in _VERSIONS:
            return super().parse_request()
        self.requestline = requestline
        self.command, path, self.request_version = words
        # as stdlib: a client would read a leading // as a host name
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.headers = headers = Headers()
        readline = self.rfile.readline
        count = 0
        while True:
            line = readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {MAX_LINE} bytes when reading header line",
                )
                return False
            if line in _HEAD_END:
                break
            count += 1
            if count > MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers", f"got more than {MAX_HEADERS} headers",
                )
                return False
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if (
                not colon or not name or " " in name or "\t" in name
                # one CR is allowed, and only as the line's CRLF ending
                or line.count(b"\r") > line.endswith(b"\r\n")
            ):
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            headers.setdefault(name.lower(), value.strip(" \t\r\n"))
        self.close_connection = self.request_version == "HTTP/1.0"
        connection = headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.request_version == "HTTP/1.1"
            and headers.get("Expect", "").lower() == "100-continue"
        ):
            return self.handle_expect_100()
        return True

    def do_GET(self) -> None:
        listener = self.listener
        tracer = listener.tracer
        # a traced caller (another node, an instrumented client) hands us
        # its traceparent: this request then *continues* that trace.
        # Absent, malformed or foreign headers all start a local root.
        remote = extract_context(self.headers)
        if remote is not None:
            root = tracer.start_remote(listener.span_name, remote, path=self.path)
        else:
            root = tracer.start_trace(listener.span_name, path=self.path)
        self.root = root
        self.trace_id = root.trace_id or None
        self.request_id = self.headers.get("X-Request-Id")
        self.status, self.sent = 500, 0
        listener._track(1)
        started = time.perf_counter()
        with tracer.attach(root):
            try:
                self._respond()
            except (BrokenPipeError, ConnectionResetError):
                self.status = 499  # client went away mid-response
            except Exception as exc:  # never take the worker thread down
                root.record_error(exc)
                self.status = 500
                try:
                    self.send_error_json(ApiError(500, f"internal error: {exc}"))
                except OSError:
                    pass
            finally:
                elapsed = time.perf_counter() - started
                root.set(status=self.status)
                listener.record(self, elapsed)
                listener._log(self, elapsed)
                listener._track(-1)
                root.end()

    def _respond(self) -> None:
        try:
            if self.listener._draining:
                raise ApiError(503, "server is shutting down", close=True)
            self.split = urlsplit(self.path)
            self.params = dict(parse_qsl(self.split.query))
            reply = self.listener.dispatch(self)
        except ApiError as exc:
            self.send_error_json(exc)
            return
        if reply is not None:
            self.send(*reply)

    # -- the response writer -------------------------------------------------

    def send_head(
        self,
        status: int,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
        length: Optional[int] = None,
        close: bool = False,
    ) -> None:
        """Status line and headers; ``length`` None = the body is a stream.

        What ``send_response``, ``send_header`` and ``end_headers`` would
        send, built as one string and written once; ``close`` is the one
        way to end the connection after it.
        """
        self.status = status
        reason = self.responses.get(status, ("",))[0]
        head = (
            f"{self.protocol_version} {status} {reason}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.listener.http_date()}\r\n"
            f"Content-Type: {content_type}\r\n"
        )
        if length is not None:
            head += f"Content-Length: {length}\r\n"
        if self.trace_id:
            head += f"X-Trace-Id: {self.trace_id}\r\n"
        if self.listener.node_id:
            head += f"X-StoryPivot-Node: {self.listener.node_id}\r\n"
        if self.request_id:
            head += f"X-Request-Id: {self.request_id}\r\n"
        if self.generation >= 0:
            head += f"X-StoryPivot-Generation: {self.generation}\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if close:
            head += "Connection: close\r\n"
            self.close_connection = True
        if self.request_version != "HTTP/0.9":  # 0.9: the body alone
            self.wfile.write(f"{head}\r\n".encode("latin-1"))

    def send(
        self,
        status: int,
        body: bytes,
        content_type: str = JSON_TYPE,
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        self.send_head(status, content_type, headers, len(body), close)
        if body and status != 304:
            self.wfile.write(body)
            self.sent = len(body)

    def send_error_json(self, error: ApiError) -> None:
        body = json_bytes({"error": error.message, "status": error.status})
        self.send(error.status, body, JSON_TYPE, error.headers, error.close)
