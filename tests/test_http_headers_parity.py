"""Both listeners send the response heads they sent before, header by header.

Per response the fixture holds the status line, then the header lines
in the order received, each ``Name: value``.  ``Date`` and
``X-Trace-Id`` change per request and are masked; the interpreter
version in ``Server`` is masked too, since the suite runs on several
Pythons.  The requests are
``test_http_parity.py``'s corpus (the read API over ``read_static``'s
world for seeds 1–3 with each ETag revalidated, its error paths, the
replication listener), plus a HEAD (405) and one ``/subscribez`` SSE
head.  Re-record with::

    PYTHONPATH=<tree>/src python tests/test_http_headers_parity.py

only when a response head is meant to change.  Like the body fixture,
the recorder builds every world twice and keeps what agreed both times.
"""

import http.client
import json
import os
import sys
import tempfile
from http.server import BaseHTTPRequestHandler

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)  # test_http_parity, when run as a script

from repro.core.config import StoryPivotConfig
from repro.obs.trace import NULL_TRACER
from repro.push import EventBus
from repro.replication import ReplicationServer
from repro.runtime import ShardedRuntime
from repro.server import StoryPivotAPI, ViewStore
from repro.core.pipeline import StoryPivot

from test_fused_score import ledger_inputs
from test_http_parity import (
    API_ERRORS,
    DRAWS,
    EVENTS,
    REPLICATION,
    SEEDS,
    SOURCES,
    connect,
    restart_ids,
)

RECORDED = os.path.join(HERE, "fixtures", "http_heads_parent.json")
MASKED = ("date", "x-trace-id")
#: a fixed fleet identity: the default carries the host name and pid
NODE = "api@pinned"


def head(response):
    """The response's header lines, masked where they vary per run."""
    version = {10: "HTTP/1.0", 11: "HTTP/1.1"}[response.version]
    lines = [f"{version} {response.status} {response.reason}"]
    for name, value in response.getheaders():
        if name.lower() in MASKED:
            value = "*"
        elif name.lower() == "server":
            value = value.replace(BaseHTTPRequestHandler.sys_version, "*")
        lines.append(f"{name}: {value}")
    return lines


def fetch(connection, path, method="GET", etag=""):
    headers = {"If-None-Match": etag} if etag else {}
    connection.request(method, path, headers=headers)
    response = connection.getresponse()
    response.read()
    return head(response)


def etag_of(lines):
    for line in lines:
        if line.startswith("ETag: "):
            return line[len("ETag: "):]
    return ""


def api_heads(inputs, seed):
    corpus = inputs.make_corpus("read_static", EVENTS, SOURCES, seed)
    store = ViewStore(dataset="read_static")
    view = store.install(StoryPivot().run(corpus), corpus=corpus)
    mix = inputs.ReadMix(view.stories, view.sources, seed)
    paths = sorted({path for path, _ in mix.requests(DRAWS)})
    out = {}
    with StoryPivotAPI(store, port=0, node_id=NODE) as api:
        connection = connect(api)
        try:
            for path in paths + list(API_ERRORS):
                got = out[f"api/{seed}/GET {path}"] = fetch(connection, path)
                if etag_of(got):
                    out[f"api/{seed}/304 {path}"] = fetch(
                        connection, path, etag=etag_of(got)
                    )
        finally:
            connection.close()
        connection = connect(api)  # a refused method closes its connection
        try:
            out[f"api/{seed}/HEAD /stories"] = fetch(
                connection, "/stories", "HEAD"
            )
        finally:
            connection.close()
    return out


def sse_head(inputs):
    """The head of a ``/subscribez`` stream, read before any event."""
    corpus = inputs.make_corpus("read_static", 60, 4, 1)
    store = ViewStore(dataset="read_static")
    view = store.install(StoryPivot().run(corpus), corpus=corpus)
    bus = EventBus()
    bus.note_view(view)
    with StoryPivotAPI(store, port=0, node_id=NODE, bus=bus) as api:
        connection = connect(api)
        try:
            connection.request("GET", "/subscribez?heartbeat=0.05")
            return {"api/SSE /subscribez": head(connection.getresponse())}
        finally:
            connection.close()


def replication_heads(inputs, workdir):
    corpus = inputs.make_corpus("read_static", 60, 4, 1)
    runtime = ShardedRuntime(
        StoryPivotConfig.temporal(), num_shards=2, wal_dir=workdir,
        checkpoint_every=10_000,
    )
    try:
        for snippet in corpus.snippets_by_publication():
            runtime.offer(snippet)
            runtime.drain()  # one at a time: ids minted in a fixed order
        out = {}
        with ReplicationServer(
            runtime, dataset=corpus.name, tracer=NULL_TRACER
        ) as ship:
            connection = connect(ship)
            try:
                for path in REPLICATION:
                    out[f"replication/GET {path}"] = fetch(connection, path)
            finally:
                connection.close()
            connection = connect(ship)
            try:
                out["replication/HEAD /replication/v1/manifest"] = fetch(
                    connection, "/replication/v1/manifest", "HEAD"
                )
            finally:
                connection.close()
        return out
    finally:
        runtime.stop()


@pytest.fixture(scope="module")
def recorded():
    with open(RECORDED, encoding="utf-8") as handle:
        return json.load(handle)


def expected(recorded, prefix):
    entries = {
        key: value for key, value in recorded.items() if key.startswith(prefix)
    }
    assert entries, f"nothing recorded under {prefix!r}"
    return entries


@pytest.mark.parametrize("seed", SEEDS)
def test_read_api_heads_as_the_parent(recorded, monkeypatch, seed):
    restart_ids(monkeypatch.setattr)
    got = api_heads(ledger_inputs(), seed)
    want = expected(recorded, f"api/{seed}/")
    assert {key: got.get(key) for key in want} == want


def test_sse_head_as_the_parent(recorded):
    want = expected(recorded, "api/SSE ")
    assert sse_head(ledger_inputs()) == want


def test_replication_heads_as_the_parent(recorded, monkeypatch, tmp_path):
    restart_ids(monkeypatch.setattr)
    got = replication_heads(ledger_inputs(), str(tmp_path))
    want = expected(recorded, "replication/")
    assert {key: got.get(key) for key in want} == want


def _record():
    """Heads of whichever tree ``PYTHONPATH`` names, stable over two runs."""
    inputs = ledger_inputs()
    runs = []
    for _ in range(2):
        heads = {}
        for seed in SEEDS:
            restart_ids()
            heads.update(api_heads(inputs, seed))
        heads.update(sse_head(inputs))
        restart_ids()
        with tempfile.TemporaryDirectory() as workdir:
            heads.update(replication_heads(inputs, workdir))
        runs.append(heads)
    first, second = runs
    return {key: value for key, value in first.items() if second.get(key) == value}


if __name__ == "__main__":
    with open(RECORDED, "w", encoding="utf-8") as out:
        json.dump(_record(), out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"recorded {RECORDED}")
