"""``batch_density`` — the paper's Figure 7: a full pass at rising density.

Temporal identification, alignment and refinement over a fixed 183-day
timeline at three density rungs.  ``core`` does all the work; nothing of
``runtime``, ``server`` or ``connect`` runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import PivotResult, StoryPivot
from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Snippet
from repro.evaluation.metrics import pairwise_scores

import layers
from common import Outcome
from inputs import make_corpus

NAME = "batch_density"
#: ground events per rung, all over the same 183 days
RUNGS = (150, 300, 600)
SOURCES = 5


@dataclass
class Context:
    corpora: List[Corpus]
    snippets: List[List[Snippet]]   # per rung, event order
    result: PivotResult = None      # of the densest rung, set by run()


def setup(seed: int, workdir: str, fraction: float = 1.0) -> Context:
    corpora = [
        make_corpus(NAME, max(12, round(events * fraction)), SOURCES, seed)
        for events in RUNGS
    ]
    return Context(corpora, [c.snippets_by_time() for c in corpora])


def run(ctx: Context, rec) -> Outcome:
    config = StoryPivotConfig.temporal()
    wall = 0.0
    work = 0
    latencies: List[float] = []
    extras = {}
    for rung, snippets in enumerate(ctx.snippets):
        pivot = StoryPivot(config)
        handed: List[float] = []
        started = time.perf_counter()
        with rec.span("bench.pass", "bench"):
            with rec.span("core.identify", "core", count=len(snippets)):
                for snippet in snippets:
                    handed.append(time.perf_counter())
                    pivot.add_snippet(snippet)
            if rec.enabled:
                # finish(), taken apart so each phase gets its own span
                story_sets = pivot.story_sets()
                with rec.span("core.align", "core"):
                    alignment = pivot.aligner.align(story_sets)
                with rec.span("core.refine", "core"):
                    refinement = pivot.refiner.refine(story_sets, alignment)
                result = PivotResult(
                    story_sets, refinement.alignment, refinement
                )
                # the layer table's counts, densest rung last; the pairs
                # are the first alignment's (refinement re-aligns)
                extras = {
                    "identify_comparisons": float(sum(
                        pivot.identifier(source).stats.comparisons
                        for source in pivot.source_ids
                    )),
                    "align_pairs": float(alignment.stats.story_pairs_scored),
                    "refine_moves": float(refinement.num_moves),
                }
            else:
                result = pivot.finish()
        done = time.perf_counter()
        wall += done - started
        work += len(snippets)
        if rung == len(ctx.snippets) - 1:
            ctx.result = result
            latencies = [(done - t) * 1000.0 for t in handed]
    return Outcome(
        work=work, wall_s=wall, latencies_ms=latencies,
        attempted=work, extras=extras,
    )


def verify(ctx: Context, outcome: Outcome) -> None:
    corpus = ctx.corpora[-1]
    clusters = ctx.result.global_clusters()
    placed = [sid for members in clusters.values() for sid in members]
    expected = {s.snippet_id for s in ctx.snippets[-1]}
    outcome.fail(len(placed) - len(set(placed)),
                 "snippets in more than one integrated story")
    outcome.fail(len(expected - set(placed)),
                 "snippets missing from the integrated stories")
    outcome.f1 = pairwise_scores(clusters, corpus.truth.labels).f1


def layer_metrics(ctx: Context, outcome: Outcome, rec, workdir: str) -> dict:
    """``core`` from the traced pass, then the micro-timings of the
    layers under it, all on the densest rung's snippets."""
    snippets, corpus = ctx.snippets[-1], ctx.corpora[-1]
    return {
        "core.identify_us": rec.per_item_us("core.identify"),
        "core.identify_comparisons": outcome.extras["identify_comparisons"],
        "core.align_s": rec.duration(rec.named("core.align")[-1]),
        "core.align_pairs": outcome.extras["align_pairs"],
        "core.refine_s": rec.duration(rec.named("core.refine")[-1]),
        "core.refine_moves": outcome.extras["refine_moves"],
        **layers.live_alignment(rec, snippets),
        **layers.complete_vs_temporal(rec, snippets, corpus.truth.labels),
        **layers.text_features(rec, snippets),
        **layers.storage_indexes(rec, snippets),
        **layers.sketch_signature(rec, snippets),
        **layers.connector(rec, corpus, snippets, workdir),
        **layers.wal_append(rec, snippets, workdir),
    }


def teardown(ctx: Context) -> None:
    pass
