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
* one response writer, :meth:`Request.send`, plus the access log.

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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Callable, Dict, NamedTuple, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.obs.propagate import extract_context

JSON_TYPE = "application/json"
#: how long close() waits for in-flight requests before tearing down
DRAIN_SECONDS = 10.0


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
        """Reset what one request sets, then the method policy: GET only."""
        self.trace_id = self.request_id = None
        # set by routes: the view generation a response was rendered
        # from (-1: none) and how the response cache answered
        self.generation, self.cache = -1, "-"
        if not super().parse_request():
            return False
        if self.command == "GET":
            return True
        # close the connection: clients must not guess at body framing
        self.send_error_json(ApiError(405, "only GET is supported", close=True))
        return False

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
        """Status line and headers; ``length`` None = the body is a stream."""
        self.status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        if length is not None:
            self.send_header("Content-Length", str(length))
        if self.trace_id:
            self.send_header("X-Trace-Id", self.trace_id)
        if self.listener.node_id:
            self.send_header("X-StoryPivot-Node", self.listener.node_id)
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        if self.generation >= 0:
            self.send_header("X-StoryPivot-Generation", str(self.generation))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()

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
