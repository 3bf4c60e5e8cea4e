"""Both listeners answer as they did before they shared one HTTP kernel.

Per request the fixture holds the status, the body's sha256, the ETag and
the Content-Type, recorded from the commit before the kernel with the
script at the bottom of this file::

    PYTHONPATH=<that tree>/src python tests/test_http_parity.py

The requests:

* the read API over ``read_static``'s world for seeds 1–3: every distinct
  URL of the ledger's ``ReadMix``, each revalidated with its ETag (304);
* the API's error paths: an unknown endpoint, a malformed cursor,
  ``/storyz/x`` and a HEAD;
* the replication listener of a fixed two-shard runtime: the manifest,
  both snapshots and four WAL windows.

The recorder builds every world twice and keeps only the responses that
came out byte-identical both times.  It also records the metric names a
leader serving both listeners registers, which must all still exist.
Replayed here over real sockets against the tree under test.
"""

import hashlib
import http.client
import itertools
import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)  # test_fused_score, when run as a script

from repro.core import alignment as alignment_module
from repro.core import stories as stories_module
from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.obs.trace import NULL_TRACER
from repro.replication import ReplicationServer
from repro.runtime import ShardedRuntime
from repro.server import StoryPivotAPI, ViewStore

from test_fused_score import ledger_inputs

RECORDED = os.path.join(HERE, "fixtures", "http_parent.json")
SEEDS = (1, 2, 3)
#: ``read_static``'s world: events and sources
EVENTS, SOURCES = 300, 6
#: mix draws per seed; the distinct URLs among them are replayed
DRAWS = 200
API_ERRORS = ("/nope", "/stories?cursor=%21%21", "/storyz/x")
REPLICATION = (
    "/replication/v1/manifest",
    "/replication/v1/snapshot/0",
    "/replication/v1/snapshot/1",
    "/replication/v1/wal/0?from=0",
    "/replication/v1/wal/1?from=0",
    "/replication/v1/wal/0?from=3&max=4",
    "/replication/v1/wal/1?from=2&max=2",
)


def restart_ids(setattr_=setattr):
    """Restart the id counters, so every world mints the same ids."""
    setattr_(stories_module, "_story_counter", itertools.count())
    setattr_(alignment_module, "_aligned_counter", itertools.count())


def fetch(connection, path, method="GET", etag=""):
    headers = {"If-None-Match": etag} if etag else {}
    connection.request(method, path, headers=headers)
    response = connection.getresponse()
    body = response.read()
    return {
        "status": response.status,
        "sha256": hashlib.sha256(body).hexdigest(),
        "etag": response.getheader("ETag"),
        "content_type": response.getheader("Content-Type"),
    }


def connect(listener):
    return http.client.HTTPConnection("127.0.0.1", listener.port, timeout=10)


def api_responses(inputs, seed):
    corpus = inputs.make_corpus("read_static", EVENTS, SOURCES, seed)
    store = ViewStore(dataset="read_static")
    view = store.install(StoryPivot().run(corpus), corpus=corpus)
    mix = inputs.ReadMix(view.stories, view.sources, seed)
    paths = sorted({path for path, _ in mix.requests(DRAWS)})
    out = {}
    with StoryPivotAPI(store, port=0) as api:
        connection = connect(api)
        try:
            for path in paths + list(API_ERRORS):
                got = out[f"api/{seed}/GET {path}"] = fetch(connection, path)
                if got["etag"]:
                    out[f"api/{seed}/304 {path}"] = fetch(
                        connection, path, etag=got["etag"]
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


def replication_responses(inputs, workdir):
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
        return out
    finally:
        runtime.stop()


def leader_metric_names(workdir):
    """Names a leader registers serving one read and one replication GET."""
    runtime = ShardedRuntime(
        StoryPivotConfig.temporal(), num_shards=2, wal_dir=workdir
    )
    metrics = runtime.metrics
    try:
        with ReplicationServer(runtime) as ship, \
                StoryPivotAPI(
                    ViewStore(), port=0, metrics=metrics, runtime=runtime,
                    replication=ship,
                ) as api:
            for listener, path in (
                (ship, "/replication/v1/manifest"), (api, "/healthz"),
            ):
                connection = connect(listener)
                try:
                    fetch(connection, path)
                finally:
                    connection.close()
            return sorted(metrics.snapshot())
    finally:
        runtime.stop()


@pytest.fixture(scope="module")
def recorded():
    with open(RECORDED, encoding="utf-8") as handle:
        return json.load(handle)


def expected(recorded, prefix):
    entries = {
        key: value for key, value in recorded["responses"].items()
        if key.startswith(prefix)
    }
    assert entries, f"nothing recorded under {prefix!r}"
    return entries


@pytest.mark.parametrize("seed", SEEDS)
def test_read_api_answers_as_the_parent(recorded, monkeypatch, seed):
    restart_ids(monkeypatch.setattr)
    got = api_responses(ledger_inputs(), seed)
    want = expected(recorded, f"api/{seed}/")
    assert {key: got.get(key) for key in want} == want


def test_replication_answers_as_the_parent(recorded, monkeypatch, tmp_path):
    restart_ids(monkeypatch.setattr)
    got = replication_responses(ledger_inputs(), str(tmp_path))
    want = expected(recorded, "replication/")
    assert {key: got.get(key) for key in want} == want


def test_every_leader_metric_is_still_registered(recorded, tmp_path):
    missing = set(recorded["leader_metrics"]) - set(
        leader_metric_names(str(tmp_path))
    )
    assert not missing


def _record():
    """Responses of whichever tree ``PYTHONPATH`` names, stable over two runs."""
    inputs = ledger_inputs()
    runs = []
    for _ in range(2):
        responses = {}
        for seed in SEEDS:
            restart_ids()
            responses.update(api_responses(inputs, seed))
        restart_ids()
        with tempfile.TemporaryDirectory() as workdir:
            responses.update(replication_responses(inputs, workdir))
        runs.append(responses)
    first, second = runs
    with tempfile.TemporaryDirectory() as workdir:
        names = leader_metric_names(workdir)
    return {
        "responses": {
            key: value for key, value in first.items()
            if second.get(key) == value
        },
        "leader_metrics": names,
    }


if __name__ == "__main__":
    with open(RECORDED, "w", encoding="utf-8") as out:
        json.dump(_record(), out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"recorded {RECORDED}")
