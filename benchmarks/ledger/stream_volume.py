"""``stream_volume`` — volume at constant density, identification only.

One long corpus (the timeline is stretched with the event count, so
events/day match the 1,200-event/183-day card) arrives in publication
order with ~10% re-deliveries through a two-shard runtime with a WAL and
periodic checkpoints.  ``runtime`` + ``storage`` + ``core``
identification do the work; alignment, refinement and views do none.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.core.config import StoryPivotConfig
from repro.core.streaming import StreamProcessor
from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Snippet
from repro.evaluation.metrics import pairwise_scores
from repro.obs.store import SpanStore
from repro.obs.trace import Tracer
from repro.runtime import ShardedRuntime

from common import Outcome
from inputs import make_corpus, with_redeliveries

NAME = "stream_volume"
EVENTS = 2400
DAYS = 366.0          # 2400 events at the density of 1200 over 183 days
SOURCES = 6
PAGE = 32
SHARDS = 2
CHECKPOINTS_PER_SHARD = 3


@dataclass
class Context:
    corpus: Corpus
    delivery: List[Snippet]
    unique: int
    duplicates_sent: int
    runtime: ShardedRuntime
    wal_dir: str
    #: wall time of the single-threaded oracle pass, set by verify()
    oracle_wall_s: float = 0.0


def make_runtime(wal_dir: str, unique: int, tracer=None) -> ShardedRuntime:
    # a shard sees about unique/SHARDS snippets; one more interval than
    # checkpoints wanted, so the last one does not hinge on the split
    every = max(1, unique // (SHARDS * CHECKPOINTS_PER_SHARD + 1))
    return ShardedRuntime(
        StoryPivotConfig.temporal(),
        tracer=tracer,
        num_shards=SHARDS,
        executor="thread",
        wal_dir=wal_dir,
        checkpoint_every=every,
    )


def setup(seed: int, workdir: str, fraction: float = 1.0) -> Context:
    corpus = make_corpus(
        NAME, max(12, round(EVENTS * fraction)), SOURCES, seed,
        days=DAYS * fraction,
    )
    ordered = corpus.snippets_by_publication()
    delivery, duplicates = with_redeliveries(ordered, seed)
    wal_dir = os.path.join(workdir, "wal")
    runtime = make_runtime(wal_dir, len(ordered)).start()
    return Context(corpus, delivery, len(ordered), duplicates, runtime, wal_dir)


def run(ctx: Context, rec) -> Outcome:
    runtime = ctx.runtime
    delivery = ctx.delivery
    latencies: List[float] = []
    started = time.perf_counter()
    with rec.span("bench.stream", "bench"):
        for start in range(0, len(delivery), PAGE):
            page = delivery[start:start + PAGE]
            offered = time.perf_counter()
            with rec.span("runtime.consume", "runtime", count=len(page)):
                runtime.consume(page)
            with rec.span("runtime.drain", "runtime", count=len(page)):
                runtime.drain()
            latencies.append((time.perf_counter() - offered) * 1000.0)
    wall = time.perf_counter() - started
    return Outcome(
        work=len(delivery), wall_s=wall, latencies_ms=latencies,
        attempted=len(delivery),
        extras={"volume_slope": volume_slope(latencies)},
    )


def volume_slope(page_ms: List[float]) -> float:
    """Last-quarter ÷ first-quarter throughput (pages are equal-sized).

    1.0 means the thousandth page costs what the tenth did: a bounded
    working set.  Medians, so a checkpoint inside a quarter does not
    decide it.
    """
    quarter = max(1, len(page_ms) // 4)
    first = statistics.median(page_ms[:quarter])
    last = statistics.median(page_ms[-quarter:])
    return first / last


def _partitions(story_sets) -> Dict[str, Set[frozenset]]:
    return {
        source: {frozenset(c) for c in story_set.as_clusters().values()}
        for source, story_set in story_sets.items()
    }


def verify(ctx: Context, outcome: Outcome) -> None:
    """Equal to a single-threaded StreamProcessor over the same input."""
    started = time.perf_counter()
    oracle = StreamProcessor(StoryPivotConfig.temporal(), realign_every=10**9)
    oracle.consume(ctx.delivery)
    ctx.oracle_wall_s = time.perf_counter() - started

    stats = ctx.runtime.stats()
    story_sets = ctx.runtime.merged_pivot().story_sets()
    outcome.fail(abs(stats["accepted"] - oracle.stats.accepted),
                 "accepted count differs from the oracle's")
    outcome.fail(abs(stats["accepted"] - ctx.unique),
                 "accepted count differs from the distinct snippets sent")
    outcome.fail(abs(stats["duplicates"] - ctx.duplicates_sent),
                 "duplicates dropped differ from duplicates sent")
    outcome.fail(stats["dropped"] + stats["quarantined"],
                 "snippets shed or quarantined")
    ours = _partitions(story_sets)
    theirs = _partitions(oracle.pivot.story_sets())
    outcome.fail(
        sum(len(ours.get(s, set()) ^ theirs.get(s, set()))
            for s in set(ours) | set(theirs)),
        "per-source story clusters differ from the oracle's",
    )
    truth = ctx.corpus.truth.labels
    outcome.f1 = statistics.fmean(
        pairwise_scores(story_set.as_clusters(), truth).f1
        for story_set in story_sets.values()
    )
    outcome.extras["checkpoints"] = float(stats["checkpoints"])


def layer_metrics(ctx: Context, outcome: Outcome, rec, workdir: str) -> dict:
    return {
        "runtime.offer_us": rec.per_item_us("runtime.consume"),
        "runtime.overhead_ratio": outcome.wall_s / ctx.oracle_wall_s,
        "runtime.volume_slope": outcome.extras["volume_slope"],
        **_checkpoint_and_recover(ctx, rec),
        **_tracer_overhead(ctx.delivery[:len(ctx.delivery) // 3], rec, workdir),
    }


def _checkpoint_and_recover(ctx: Context, rec) -> dict:
    """At end-of-input state: a full checkpoint, then a cold resume."""
    with rec.span("runtime.checkpoint", "runtime"):
        size = ctx.runtime.checkpoint()
    ctx.runtime.stop(checkpoint=False)
    with rec.span("runtime.recover", "runtime"):
        resumed = ShardedRuntime.resume(ctx.wal_dir)
    try:
        recovered = resumed.accepted
    finally:
        resumed.stop(checkpoint=False)
    if recovered != ctx.unique:
        raise RuntimeError(
            f"resume recovered {recovered} snippets, {ctx.unique} were accepted"
        )
    return {
        "runtime.checkpoint_s": rec.total("runtime.checkpoint"),
        "runtime.checkpoint_mb": size / 1e6,
        "runtime.recover_s": rec.total("runtime.recover"),
    }


def _tracer_overhead(delivery: List[Snippet], rec, workdir: str) -> dict:
    """The head of the stream with ``Tracer(sample_rate=1.0)`` ÷
    untraced, arms alternated so drift hits both."""
    walls: Dict[str, List[float]] = {"plain": [], "traced": []}
    unique = len({s.snippet_id for s in delivery})
    for arms in (("plain", "traced"), ("traced", "plain")):
        for arm in arms:
            tracer = (
                Tracer(sample_rate=1.0, store=SpanStore())
                if arm == "traced" else None
            )
            wal_dir = os.path.join(workdir, f"obs-{arm}-{len(walls[arm])}")
            runtime = make_runtime(wal_dir, unique, tracer).start()
            try:
                with rec.span(f"obs.stream_{arm}", "obs", count=len(delivery)):
                    started = time.perf_counter()
                    runtime.consume(delivery)
                    runtime.drain()
                    walls[arm].append(time.perf_counter() - started)
            finally:
                runtime.stop(checkpoint=False)
    return {
        "obs.trace_overhead_ratio":
            statistics.median(walls["traced"]) / statistics.median(walls["plain"]),
    }


def teardown(ctx: Context) -> None:
    ctx.runtime.stop(checkpoint=False)
