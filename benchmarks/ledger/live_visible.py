"""``live_visible`` — writes beside reads: the path a snippet travels
from the wire to a served view.

``jsonl:`` file → ``ConnectorStream`` (gauntlet) → ``ShardedRuntime`` (2
shards, WAL) → ``ViewRefresher`` (0.1 s) → ``ViewStore`` →
``StoryPivotAPI``.  Set-up ingests the head of the corpus and builds the
first view; the tail then arrives **open loop** at a fixed rate while
one paced reader polls the API.  Every refresh re-merges, re-aligns and
re-refines the whole corpus, so ``server.views`` and ``core`` alignment
+ refinement dominate; identification is a few percent.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.connect import open_source
from repro.connect.service import ConnectorStream
from repro.core.config import StoryPivotConfig
from repro.core.pipeline import PivotResult
from repro.eventdata.corpus import Corpus
from repro.evaluation.metrics import pairwise_scores
from repro.runtime import ShardedRuntime
from repro.server import StoryPivotAPI, ViewStore
from repro.server.views import ViewRefresher

from common import Outcome, connect, fetch, percentile
from inputs import ReadMix, make_corpus, write_jsonl

NAME = "live_visible"
EVENTS = 240
SOURCES = 6
#: snippets that arrive live; the rest of the corpus is there at set-up
LIVE = 250
RATE = 100.0            # snippets per second, open loop
REFRESH_INTERVAL = 0.1
READER_RATE = 20.0      # requests per second, paced
VISIBLE_TIMEOUT = 60.0


class InstallLog:
    """Stands where the push bus would: the refresher's public
    ``bus.note_view`` hook tells it about every installed view."""

    def __init__(self) -> None:
        self.installs: List[Tuple[float, int]] = []

    def note_view(self, view) -> None:
        self.installs.append(
            (time.perf_counter(), int(view.stats["num_snippets"]))
        )


@dataclass
class Context:
    corpus: Corpus
    total: int
    preloaded: int
    runtime: ShardedRuntime
    stream: ConnectorStream
    pending: object                 # the stream's iterator, head consumed
    store: ViewStore
    log: InstallLog
    refresher: ViewRefresher
    api: StoryPivotAPI
    reader_paths: List[str]
    reader_statuses: List[int] = field(default_factory=list)
    reader_ms: List[float] = field(default_factory=list)


def setup(seed: int, workdir: str, fraction: float = 1.0) -> Context:
    corpus = make_corpus(NAME, max(12, round(EVENTS * fraction)), SOURCES, seed)
    snippets = corpus.snippets_by_publication()
    live = min(round(LIVE * fraction), len(snippets) // 2)
    wire = os.path.join(workdir, "feed.jsonl")
    write_jsonl(corpus, snippets, wire)
    runtime = ShardedRuntime(
        StoryPivotConfig.temporal(),
        num_shards=2, executor="thread",
        wal_dir=os.path.join(workdir, "wal"),
    ).start()
    try:
        stream = ConnectorStream(open_source("jsonl:" + wire), runtime=runtime)
        pending = iter(stream)
        preloaded = len(snippets) - live
        for _ in range(preloaded):
            runtime.offer(next(pending))
        runtime.drain()
        store = ViewStore(dataset=NAME)
        log = InstallLog()
        refresher = ViewRefresher(
            runtime, store, interval=REFRESH_INTERVAL, corpus=corpus, bus=log
        )
        view = refresher.refresh(force=True)
        log.installs.clear()
        api = StoryPivotAPI(
            store, port=0, refresher=refresher, runtime=runtime
        ).start()
    except BaseException:
        runtime.stop(checkpoint=False)
        raise
    reads = max(1, int(READER_RATE * live / RATE) + 1)
    mix = ReadMix(view.stories, view.sources, seed, endpoints=ReadMix.ID_FREE)
    return Context(
        corpus, len(snippets), preloaded, runtime, stream, pending, store,
        log, refresher, api, [mix.path() for _ in range(reads)],
    )


def _reader(ctx: Context, start_at: float, stop: threading.Event, rec) -> None:
    connection = connect(ctx.api)
    try:
        for k, path in enumerate(ctx.reader_paths):
            delay = start_at + k / READER_RATE - time.perf_counter()
            if stop.wait(max(0.0, delay)):
                return
            started = time.perf_counter()
            with rec.span("server.http", "server"):
                status, body, _ = fetch(connection, path)
            ctx.reader_ms.append((time.perf_counter() - started) * 1000.0)
            if status == 200:
                try:
                    json.loads(body)
                except ValueError:
                    status = -1
            ctx.reader_statuses.append(status)
    finally:
        connection.close()


def _traced_refresher(ctx: Context, stop: threading.Event, rec) -> None:
    """What ``ViewRefresher._loop`` does, taken apart so that merge,
    alignment, refinement and view build each get their own span."""
    built_at = ctx.runtime.accepted
    with rec.span("bench.refresher", "bench"):
        while not stop.is_set():
            with rec.span("server.wait", "idle"):
                stop.wait(REFRESH_INTERVAL)
            accepted = ctx.runtime.accepted
            if stop.is_set() or accepted == built_at:
                continue
            with rec.span("server.refresh", "server"):
                with rec.span("runtime.merge", "runtime"):
                    merged = ctx.runtime.merged_pivot()
                merged.refiner.decisions = ctx.runtime.decisions
                story_sets = merged.story_sets()
                with rec.span("core.align", "core"):
                    alignment = merged.aligner.align(story_sets)
                with rec.span("core.refine", "core"):
                    refinement = merged.refiner.refine(story_sets, alignment)
                with rec.span("server.install", "server"):
                    view = ctx.store.install(
                        PivotResult(story_sets, refinement.alignment, refinement),
                        corpus=ctx.corpus,
                    )
                ctx.runtime.decisions.note_alignment(refinement.alignment)
            ctx.log.note_view(view)
            built_at = accepted


def run(ctx: Context, rec) -> Outcome:
    stop = threading.Event()
    if rec.enabled:
        refresher = threading.Thread(
            target=_traced_refresher, args=(ctx, stop, rec),
            name="ledger-refresher",
        )
        refresher.start()
    else:
        ctx.refresher.start()
    first_due = time.perf_counter() + 0.05
    reader = threading.Thread(
        target=_reader, args=(ctx, first_due, stop, rec), name="ledger-reader"
    )
    reader.start()

    due: List[float] = []
    late_ms: List[float] = []
    timed_out = False
    try:
        with rec.span("bench.generator", "bench"):
            k = 0
            while True:
                with rec.span("connect.next", "connect"):
                    snippet = next(ctx.pending, None)
                if snippet is None:
                    break
                due_at = first_due + k / RATE
                with rec.span("bench.pace", "idle"):
                    delay = due_at - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                with rec.span("runtime.offer", "runtime"):
                    ctx.runtime.offer(snippet)
                late_ms.append((time.perf_counter() - due_at) * 1000.0)
                due.append(due_at)
                k += 1
            deadline = time.perf_counter() + VISIBLE_TIMEOUT
            with rec.span("bench.await_visible", "idle"):
                while not ctx.log.installs or ctx.log.installs[-1][1] < ctx.total:
                    if time.perf_counter() > deadline:
                        timed_out = True
                        break
                    time.sleep(0.005)
    finally:
        stop.set()
        reader.join(timeout=35.0)
        if rec.enabled:
            refresher.join(timeout=35.0)
        else:
            ctx.refresher.stop()

    installs = list(ctx.log.installs)
    latencies: List[float] = []
    cursor = 0
    for k, due_at in enumerate(due):
        needed = ctx.preloaded + k + 1
        while cursor < len(installs) and installs[cursor][1] < needed:
            cursor += 1
        if cursor == len(installs):
            break
        latencies.append((installs[cursor][0] - due_at) * 1000.0)
    never_visible = len(due) - len(latencies)
    last_visible = installs[-1][0] if installs else time.perf_counter()
    outcome = Outcome(
        work=len(latencies),
        wall_s=last_visible - first_due,
        latencies_ms=latencies,
        attempted=len(due) + len(ctx.reader_statuses),
        extras={
            "lateness_p95_ms": percentile(late_ms, 95) if late_ms else 0.0,
            "refreshes": float(len(installs)),
            "reader_p95_ms": (
                percentile(ctx.reader_ms, 95) if ctx.reader_ms else 0.0
            ),
        },
    )
    outcome.fail(never_visible, "snippets never became visible"
                 + (" (timed out)" if timed_out else ""))
    return outcome


def verify(ctx: Context, outcome: Outcome) -> None:
    view = ctx.store.current()
    served = {
        story_id: {row["id"] for row in rows}
        for story_id, rows in view.story_snippets.items()
    }
    visible = set().union(*served.values()) if served else set()
    offered = {s.snippet_id for s in ctx.corpus}
    outcome.fail(len(offered - visible),
                 "offered snippets missing from the final view")
    outcome.fail(ctx.stream.rejected, "snippets the gauntlet rejected")
    outcome.fail(sum(1 for status in ctx.reader_statuses if status != 200),
                 "reader requests that were not 200 with a JSON body")
    outcome.f1 = pairwise_scores(served, ctx.corpus.truth.labels).f1


def layer_metrics(ctx: Context, outcome: Outcome, rec, workdir: str) -> dict:
    """The live window's counters, then — at the final live state — what
    one view refresh is made of."""
    runtime = ctx.runtime
    busy = rec.total("server.refresh") / outcome.wall_s
    with rec.span("runtime.merge_final", "runtime"):
        merged = runtime.merged_pivot()
    with rec.span("runtime.realign_final", "runtime"):
        runtime.realign()
    result = merged.finish()
    store = ViewStore(dataset="probe")
    with rec.span("server.install_final", "server"):
        store.install(result, corpus=ctx.corpus)
    refresher = ViewRefresher(runtime, store, corpus=ctx.corpus)
    with rec.span("server.refresh_final", "server"):
        refresher.refresh(force=True)
    return {
        "server.refreshes": outcome.extras["refreshes"],
        "server.refresh_busy_ratio": busy,
        "server.read_beside_refresh_p95_ms": outcome.extras["reader_p95_ms"],
        "bench.lateness_p95_ms": outcome.extras["lateness_p95_ms"],
        "runtime.merge_s": rec.total("runtime.merge_final"),
        "runtime.realign_s": rec.total("runtime.realign_final"),
        "server.view_build_s": rec.total("server.install_final"),
        "server.refresh_s": rec.total("server.refresh_final"),
    }


def teardown(ctx: Context) -> None:
    ctx.refresher.stop()
    ctx.api.close()
    ctx.runtime.stop(checkpoint=False)
