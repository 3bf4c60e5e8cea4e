"""The kernel's request head reader, driven over raw sockets.

``Request.parse_request`` reads ``METHOD SP target SP HTTP/1.x`` and its
header lines itself, not through ``email.parser``.  Each case below is
one request shape: the bytes sent, the status answered, whether the
connection stays open, and what else the answer must show.  Other
request lines still get stdlib's parse and answers.  Then
``If-None-Match`` against RFC 9110 §13.1.2, and the per-request counters
moved from many handler threads at once.
"""

import json
import re
import socket
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core.pipeline import StoryPivot
from repro.eventdata.corpus import Corpus, Source
from repro.eventdata.handcrafted import demo_config
from repro.server import StoryPivotAPI, ViewStore
from repro.server.kernel import MAX_HEADERS, MAX_LINE, Headers

from conftest import make_snippet

TRACE_ID = "00f067aa0ba902b7"
TRACEPARENT = f"00-{'0' * 16}{TRACE_ID}-b7ad6b7169203331-01"


@pytest.fixture(scope="module")
def api():
    corpus = Corpus("mini")
    corpus.add_source(Source("a", "Alpha Times"))
    corpus.add_snippet(make_snippet(
        "a:1", "a", "2014-07-01", "flood rescue", ("IND",), ("flood",)
    ), "w1")
    store = ViewStore(dataset="mini")
    store.install(StoryPivot(demo_config()).run(corpus), corpus=corpus)
    with StoryPivotAPI(store, port=0) as server:
        yield server


class Answer:
    """One response read off a raw socket: status, headers, body."""

    def __init__(self, sock, raw=b""):
        self.raw = raw  # bytes read past the previous answer
        self.sock = sock
        head = self._until(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        self.status_line = status_line
        self.status = int(status_line.split()[1])
        self.headers = {}
        for line in lines:
            name, _, value = line.partition(": ")
            self.headers.setdefault(name.lower(), value)
        length = int(self.headers.get("content-length", 0))
        self.body = self._exactly(length)

    def _recv(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("closed mid-response")
        self.raw += chunk

    def _until(self, marker):
        while marker not in self.raw:
            self._recv()
        head, _, self.raw = self.raw.partition(marker)
        return head

    def _exactly(self, length):
        while len(self.raw) < length:
            self._recv()
        body, self.raw = self.raw[:length], self.raw[length:]
        return body


def exchange(api, data):
    """Send ``data``; (its answers, whether the server then closed)."""
    sock = socket.create_connection(("127.0.0.1", api.port), timeout=10)
    try:
        sock.sendall(data)
        answers = [Answer(sock)]
        if answers[0].status == 100:
            answers.append(Answer(sock, answers[0].raw))
        return answers, closed(sock)
    finally:
        sock.close()


def closed(sock):
    """Whether the server closed: a follow-up request gets no answer."""
    try:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        sock.settimeout(2)
        return sock.recv(1) == b""
    except OSError:
        return True


def request(*lines, version="HTTP/1.1", path="/stories", eol="\r\n"):
    head = [f"GET {path} {version}", *lines, "", ""]
    return eol.join(head).encode("latin-1")


def padded(total):
    """One header line of exactly ``total`` bytes, CRLF included."""
    return "X-Pad: " + "p" * (total - len("X-Pad: \r\n"))


def many(count):
    return [f"X-H{i}: {i}" for i in range(count)]


CASES = {
    # id: (request bytes, status, stays open)
    "crlf": (request("Host: a"), 200, True),
    "bare-lf": (request("Host: a", eol="\n"), 200, True),
    "mixed-case-first-wins": (
        request("x-REQUEST-id: first", "X-Request-Id: second"), 200, True),
    "line-at-limit": (request(padded(MAX_LINE)), 200, True),
    "line-over-limit": (request(padded(MAX_LINE + 1)), 431, False),
    "headers-at-limit": (request(*many(MAX_HEADERS)), 200, True),
    "headers-over-limit": (request(*many(MAX_HEADERS + 1)), 431, False),
    "obs-fold": (request("X-A: 1", "  folded", "Host: a"), 400, False),
    "obs-fold-tab": (request("X-A: 1", "\tfolded"), 400, False),
    "no-colon": (request("NoColonHere", "Host: a"), 400, False),
    "space-before-colon": (request("Host : a"), 400, False),
    "space-in-name": (request("X Pad: a"), 400, False),
    "empty-name": (request(": a"), 400, False),
    # a bare CR is a 400, never echoed: X-Request-Id comes back as sent
    "bare-cr-in-value": (
        request("X-Request-Id: a\rSet-Cookie: x=1"), 400, False),
    "bare-cr-in-name": (request("X-Request\rId: a"), 400, False),
    "cr-before-crlf": (request("X-Request-Id: a\r"), 400, False),
    "bare-cr-bare-lf": (request("X-Request-Id: a\rb", eol="\n"), 400, False),
    "http10": (request(version="HTTP/1.0"), 200, False),
    "http10-keep-alive": (
        request("Connection: Keep-Alive", version="HTTP/1.0"), 200, True),
    "http11-close": (request("Connection: close"), 200, False),
    "double-slash": (request(path="//stories"), 200, True),
    "latin-1": (request("X-Request-Id: caf\xe9"), 200, True),
    "traceparent-lower-case": (request(f"traceparent: {TRACEPARENT}"), 200, True),
    "four-words": (b"GET /stories x HTTP/1.1\r\n\r\n", 400, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_request_shape(api, case):
    data, status, stays_open = CASES[case]
    answers, was_closed = exchange(api, data)
    answer = answers[-1]
    assert answer.status == status, answer.status_line
    assert was_closed == (not stays_open)
    if status == 200:
        assert "stories" in json.loads(answer.body)
    if status in (400, 431):
        assert answer.headers["connection"] == "close"


def test_bare_cr_in_a_head_cut_short_is_a_400(api):
    # no line ending at all: the CR before the last byte is still bare
    sock = socket.create_connection(("127.0.0.1", api.port), timeout=10)
    try:
        sock.sendall(b"GET /stories HTTP/1.1\r\nX-Request-Id: a\rZ")
        sock.shutdown(socket.SHUT_WR)
        answer = Answer(sock)
    finally:
        sock.close()
    assert answer.status == 400, answer.status_line
    assert "x-request-id" not in answer.headers


def test_headers_match_names_case_insensitively():
    headers = Headers()
    headers.setdefault("x-request-id", "a")
    assert headers.get("X-Request-Id") == "a"
    assert "X-REQUEST-ID" in headers and "Accept" not in headers
    assert headers["X-Request-Id"] == "a"
    with pytest.raises(KeyError):
        headers["Accept"]


def test_duplicate_names_keep_the_first(api):
    (answer,), _ = exchange(api, CASES["mixed-case-first-wins"][0])
    assert answer.headers["x-request-id"] == "first"


def test_latin_1_bytes_come_back_as_sent(api):
    (answer,), _ = exchange(api, CASES["latin-1"][0])
    assert answer.headers["x-request-id"] == "caf\xe9"


def test_lower_case_traceparent_continues_its_trace(api):
    (answer,), _ = exchange(api, CASES["traceparent-lower-case"][0])
    assert answer.headers["x-trace-id"] == TRACE_ID
    (fresh,), _ = exchange(api, request())
    assert fresh.headers["x-trace-id"] not in ("", TRACE_ID)


def test_double_slash_serves_the_single_slash_path(api):
    (doubled,), _ = exchange(api, CASES["double-slash"][0])
    (single,), _ = exchange(api, request())
    assert doubled.body == single.body


def test_expect_100_continue_answers_100_first(api):
    answers, was_closed = exchange(api, request("Expect: 100-continue"))
    assert [a.status for a in answers] == [100, 200]
    assert not was_closed
    # an HTTP/1.0 client is never sent an interim answer
    answers, _ = exchange(
        api, request("Expect: 100-continue", version="HTTP/1.0"))
    assert [a.status for a in answers] == [200]


def read_to_close(api, data):
    sock = socket.create_connection(("127.0.0.1", api.port), timeout=10)
    try:
        sock.sendall(data)
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return raw
            raw += chunk
    finally:
        sock.close()


def test_http09_gets_stdlibs_bare_body(api):
    raw = read_to_close(api, b"GET /stories\r\n\r\n")
    (single,), _ = exchange(api, request())
    assert raw == single.body  # no status line, no headers, then close


@pytest.mark.parametrize("version", ["HTTP/2.0", "HTTP/3.0", "HTTP/10.1"])
def test_http2_and_above_get_a_505_status_line_and_close(api, version):
    raw = read_to_close(api, request(version=version))
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0] == f"HTTP/1.1 505 Invalid HTTP version ({version[5:]})".encode()
    assert b"Connection: close" in lines
    assert b"Error code: 505" in body


# -- If-None-Match (RFC 9110 §13.1.2) ---------------------------------------


def conditional(api, value):
    (answer,), _ = exchange(api, request(f"If-None-Match: {value}"))
    return answer.status


@pytest.fixture(scope="module")
def etag(api):
    (answer,), _ = exchange(api, request())
    assert re.fullmatch(r'"[^"]+"', answer.headers["etag"])
    return answer.headers["etag"]


@pytest.mark.parametrize("template, status", [
    ("{etag}", 304),
    ("*", 304),
    ('"other", {etag}', 304),
    ('"other",{etag}', 304),
    ("W/{etag}", 304),
    ('W/"other", W/{etag}', 304),
    ('"other", "another"', 200),
    ('"{bare}"', 200),
    ("", 200),
])
def test_if_none_match(api, etag, template, status):
    value = template.format(etag=etag, bare=etag.strip('"') + "0")
    assert conditional(api, value) == status


# -- per-request metrics from many handler threads --------------------------


def test_concurrent_records_lose_no_count():
    api = StoryPivotAPI(ViewStore(), port=0)
    statuses = (200, 304, 404, 429, 503)
    threads, per_thread = 8, 500
    span = SimpleNamespace(set=lambda **fields: None)

    def work(offset):
        for i in range(per_thread):
            status = statuses[(offset + i) % len(statuses)]
            api.record(SimpleNamespace(
                root=span, cache="-", status=status, sent=3), 0.001)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    total = threads * per_thread
    metrics = api.metrics
    assert metrics.counter("http.requests").value == total
    assert metrics.counter("http.bytes_sent").value == 3 * total
    assert metrics.histogram("http.latency_seconds").count == total
    assert sum(
        metrics.counter(f"http.status.{status}").value for status in statuses
    ) == total
    assert metrics.counter("http.status.200").value == total // len(statuses)
