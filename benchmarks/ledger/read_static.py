"""``read_static`` — reads only: the ``server`` layer used the other way.

A batch result is installed once; two keep-alive connections then drive
the 8-endpoint mix closed loop.  Stories are drawn Zipf(1.1) and paged,
so the distinct URLs overflow the 512-entry response cache several times
over; one request in ten is a conditional GET.  ``server.app`` and the
cache do the work; ``core`` and ``runtime`` are idle after set-up.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.core.pipeline import PivotResult, StoryPivot
from repro.eventdata.corpus import Corpus
from repro.evaluation.metrics import pairwise_scores
from repro.server import StoryPivotAPI, ViewStore
from repro.server.handlers import route

from common import Outcome, connect, fetch
from inputs import ReadMix, make_corpus

NAME = "read_static"
EVENTS = 300
SOURCES = 6
REQUESTS = 3000
CONNECTIONS = 2
CACHE_ENTRIES = 512
#: requests sent at set-up so the timed section starts on a full cache
WARM_REQUESTS = 512


@dataclass
class Context:
    corpus: Corpus
    result: PivotResult
    store: ViewStore
    api: StoryPivotAPI
    requests: List[Tuple[str, bool]]
    etags: Dict[str, str]
    statuses: List[List[int]] = field(default_factory=list)


def setup(seed: int, workdir: str, fraction: float = 1.0) -> Context:
    corpus = make_corpus(NAME, max(12, round(EVENTS * fraction)), SOURCES, seed)
    result = StoryPivot().run(corpus)
    store = ViewStore(dataset=NAME)
    view = store.install(result, corpus=corpus)
    api = StoryPivotAPI(store, port=0, cache_entries=CACHE_ENTRIES).start()
    try:
        mix = ReadMix(view.stories, view.sources, seed)
        etags: Dict[str, str] = {}
        connection = connect(api)
        try:
            for path, _ in mix.requests(round(WARM_REQUESTS * fraction)):
                status, _, etag = fetch(connection, path)
                if status != 200:
                    raise RuntimeError(f"warm-up GET {path} -> {status}")
                etags[path] = etag
        finally:
            connection.close()
        requests = mix.requests(round(REQUESTS * fraction))
    except BaseException:
        api.close()
        raise
    api.cache.hits = api.cache.misses = 0
    return Context(corpus, result, store, api, requests, etags)


def _client(ctx: Context, share, latencies, statuses, barrier, rec) -> None:
    # each client keeps the ETags it has seen, like a browser cache; the
    # warm-up's are shared read-only
    etags = dict(ctx.etags)
    connection = connect(ctx.api)
    try:
        barrier.wait()
        with rec.span("bench.client", "bench"):
            for path, conditional in share:
                etag = etags.get(path, "") if conditional else ""
                started = time.perf_counter()
                with rec.span("server.http", "server"):
                    status, body, seen = fetch(connection, path, etag)
                latencies.append((time.perf_counter() - started) * 1000.0)
                if status == 200:
                    etags[path] = seen
                    try:
                        if not isinstance(json.loads(body), dict):
                            status = -1
                    except ValueError:
                        status = -1
                elif status == 304 and not etag:
                    status = -304           # a 304 nobody asked for
                statuses.append(status)
    finally:
        connection.close()


def run(ctx: Context, rec) -> Outcome:
    latencies = [[] for _ in range(CONNECTIONS)]
    ctx.statuses = [[] for _ in range(CONNECTIONS)]
    barrier = threading.Barrier(CONNECTIONS + 1)
    clients = [
        threading.Thread(
            target=_client,
            args=(ctx, ctx.requests[i::CONNECTIONS], latencies[i],
                  ctx.statuses[i], barrier, rec),
            name=f"ledger-client-{i}",
        )
        for i in range(CONNECTIONS)
    ]
    for client in clients:
        client.start()
    barrier.wait()
    started = time.perf_counter()
    for client in clients:
        client.join()
    wall = time.perf_counter() - started
    done = sum(len(chunk) for chunk in latencies)
    outcome = Outcome(
        work=done, wall_s=wall,
        latencies_ms=[ms for chunk in latencies for ms in chunk],
        attempted=len(ctx.requests),
        extras={"cache_hit_ratio": ctx.api.cache.hit_rate},
    )
    outcome.fail(len(ctx.requests) - done, "requests a client never finished")
    return outcome


def _served_clusters(api: StoryPivotAPI) -> Dict[str, Set[str]]:
    """Every story's members, read back through the API page by page."""
    connection = connect(api)

    def pages(path: str, key: str):
        cursor = ""
        while True:
            query = "?limit=200" + (f"&cursor={cursor}" if cursor else "")
            status, body, _ = fetch(connection, path + query)
            if status != 200:
                raise RuntimeError(f"GET {path}{query} -> {status}")
            payload = json.loads(body)
            yield from payload[key]
            cursor = payload["next_cursor"]
            if not cursor:
                return

    try:
        return {
            story["id"]: {
                row["id"]
                for row in pages(f"/stories/{story['id']}/snippets", "snippets")
            }
            for story in list(pages("/stories", "stories"))
        }
    finally:
        connection.close()


def verify(ctx: Context, outcome: Outcome) -> None:
    bad = sum(
        1 for chunk in ctx.statuses for status in chunk
        if status not in (200, 304)
    )
    outcome.fail(bad, "responses that were not 200/304 with a JSON body")
    truth = ctx.corpus.truth.labels
    served = pairwise_scores(_served_clusters(ctx.api), truth).f1
    batch = pairwise_scores(ctx.result.global_clusters(), truth).f1
    outcome.fail(int(served != batch),
                 f"served F {served!r} differs from the batch F {batch!r}")
    outcome.f1 = served


def layer_metrics(ctx: Context, outcome: Outcome, rec, workdir: str) -> dict:
    """``handlers.route`` direct, then HTTP with the cache on, off, and
    answering 304 — over URLs few enough to fit the cache."""
    view = ctx.store.current()
    paths = sorted({path for path, _ in ctx.requests})[:256]
    with rec.span("server.route", "server", count=len(paths)):
        for path in paths:
            split = urlsplit(path)
            route(view, split.path, dict(parse_qsl(split.query)))

    def http_pass(api, span_name, etags=None, rounds=4):
        connection = connect(api)
        seen = {}
        try:
            for path in paths:                       # fill, untimed
                status, _, seen[path] = fetch(connection, path)
                if status != 200:
                    raise RuntimeError(f"probe GET {path} -> {status}")
            expect = 304 if etags is not None else 200
            with rec.span(span_name, "server", count=rounds * len(paths)):
                for _ in range(rounds):
                    for path in paths:
                        status, _, _ = fetch(
                            connection, path,
                            etags[path] if etags is not None else "",
                        )
                        if status != expect:
                            raise RuntimeError(
                                f"probe GET {path} -> {status}, not {expect}"
                            )
        finally:
            connection.close()
        return seen

    etags = http_pass(ctx.api, "server.read_hit")
    http_pass(ctx.api, "server.read_304", etags=etags)
    uncached = StoryPivotAPI(ctx.store, port=0, cache_entries=0).start()
    try:
        http_pass(uncached, "server.read_miss")
    finally:
        uncached.close()
    return {
        "server.cache_hit_ratio": outcome.extras["cache_hit_ratio"],
        "server.route_us": rec.per_item_us("server.route"),
        "server.read_hit_us": rec.per_item_us("server.read_hit"),
        "server.read_miss_us": rec.per_item_us("server.read_miss"),
        "server.read_304_us": rec.per_item_us("server.read_304"),
    }


def teardown(ctx: Context) -> None:
    ctx.api.close()
