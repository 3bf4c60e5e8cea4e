"""Micro-timings of single layers, by calling their public functions.

Each probe runs one layer's call in a loop under a span (``count`` = the
items the loop covered) and reads its metric back from the recorder, so
the span file holds everything the layer table was derived from.  The
probes take the snippets of a ``batch_density`` repetition as their
input; the probes that need a workload's end state (a loaded runtime, a
serving API) live in that workload's ``layer_metrics``.  None of them
runs in an untraced run.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, Sequence

from repro.connect import Normalizer, open_source
from repro.core.config import StoryPivotConfig
from repro.core.live_alignment import LiveAligner
from repro.core.pipeline import StoryPivot
from repro.core.stories import snippet_shingles
from repro.eventdata.models import Snippet
from repro.evaluation.metrics import pairwise_scores
from repro.runtime import ShardWal
from repro.sketch.minhash import MinHash
from repro.storage.event_store import match_terms
from repro.storage.inverted_index import InvertedIndex
from repro.storage.temporal_index import TemporalIndex
from repro.text.vectorize import TfIdfVectorizer

import inputs


def text_features(rec, snippets: Sequence[Snippet]) -> Dict[str, float]:
    vectorizer = TfIdfVectorizer()
    with rec.span("text.features", "text", count=len(snippets)):
        for snippet in snippets:
            vectorizer.observe(snippet.text)      # tokenize + stem + count
            vectorizer.vector(snippet.text)       # tf-idf weights
    return {"text.features_us": rec.per_item_us("text.features")}


def storage_indexes(rec, snippets: Sequence[Snippet]) -> Dict[str, float]:
    window = StoryPivotConfig().window
    features = [
        list(snippet.entities) + list(match_terms(snippet))
        for snippet in snippets
    ]
    index = InvertedIndex()
    with rec.span("storage.index_add", "storage", count=len(snippets)):
        for snippet, feats in zip(snippets, features):
            index.insert(snippet.snippet_id, feats)
    with rec.span("storage.index_query", "storage", count=len(snippets)):
        for feats in features:
            index.candidates(feats)
    temporal = TemporalIndex()
    for snippet in snippets:
        temporal.insert(snippet.snippet_id, snippet.timestamp)
    with rec.span("storage.temporal_query", "storage", count=len(snippets)):
        for snippet in snippets:
            temporal.around(snippet.timestamp, window)
    return {
        "storage.index_add_us": rec.per_item_us("storage.index_add"),
        "storage.index_query_us": rec.per_item_us("storage.index_query"),
        "storage.temporal_query_us": rec.per_item_us("storage.temporal_query"),
    }


def sketch_signature(rec, snippets: Sequence[Snippet]) -> Dict[str, float]:
    minhash = MinHash(StoryPivotConfig().minhash_permutations)
    with rec.span("sketch.signature", "sketch", count=len(snippets)):
        for snippet in snippets:
            minhash.signature(snippet_shingles(snippet))
    return {"sketch.signature_us": rec.per_item_us("sketch.signature")}


def live_alignment(rec, snippets: Sequence[Snippet]) -> Dict[str, float]:
    """``LiveAligner.update_story`` per accepted snippet — the step the
    runtime does not take yet (it realigns from scratch instead)."""
    config = StoryPivotConfig.temporal()
    pivot = StoryPivot(config)
    live = LiveAligner(config)
    attached = set()
    for snippet in snippets:
        story = pivot.add_snippet(snippet)
        with rec.span("core.live_align", "core"):
            if story.source_id in attached:
                live.update_story(story)
            else:
                attached.add(story.source_id)
                live.attach_story_set(pivot.identifier(story.source_id).stories)
    return {"core.live_align_us": rec.per_item_us("core.live_align")}


def complete_vs_temporal(rec, snippets, truth) -> Dict[str, float]:
    """Identification only, complete ÷ temporal: Figure 7's shape."""
    numbers = {}
    for mode in ("temporal", "complete"):
        pivot = StoryPivot(getattr(StoryPivotConfig, mode)())
        with rec.span(f"core.identify_{mode}", "core", count=len(snippets)):
            for snippet in snippets:
                pivot.add_snippet(snippet)
        numbers[mode] = (
            rec.total(f"core.identify_{mode}"),
            sum(pivot.identifier(s).stats.comparisons
                for s in pivot.source_ids),
            statistics.fmean(
                pairwise_scores(story_set.as_clusters(), truth).f1
                for story_set in pivot.story_sets().values()
            ),
        )
    t_time, t_comparisons, t_f1 = numbers["temporal"]
    c_time, c_comparisons, c_f1 = numbers["complete"]
    return {
        "core.complete_comparisons_ratio": c_comparisons / t_comparisons,
        "core.complete_time_ratio": c_time / t_time,
        "core.complete_f1_delta": t_f1 - c_f1,
    }


def connector(rec, corpus, snippets, workdir: str) -> Dict[str, float]:
    wire = os.path.join(workdir, "probe.jsonl")
    inputs.write_jsonl(corpus, snippets, wire)
    source = open_source("jsonl:" + wire)
    with rec.span("connect.pull", "connect", count=len(snippets)):
        raw_items = list(source.pull())
    normalizer = Normalizer(default_source=source.default_source())
    with rec.span("connect.normalize", "connect", count=len(raw_items)):
        for raw in raw_items:
            normalizer.normalize(raw)
    return {
        "connect.pull_us": rec.per_item_us("connect.pull"),
        "connect.normalize_us": rec.per_item_us("connect.normalize"),
    }


def wal_append(rec, snippets: Sequence[Snippet], workdir: str) -> Dict[str, float]:
    wal = ShardWal(os.path.join(workdir, "probe.wal.jsonl"))
    written = 0
    try:
        with rec.span("runtime.wal_append", "runtime", count=len(snippets)):
            for snippet in snippets:
                written += wal.append(snippet)
    finally:
        wal.close()
    return {
        "runtime.wal_append_us": rec.per_item_us("runtime.wal_append"),
        "runtime.wal_bytes_per_snippet": written / len(snippets),
    }
