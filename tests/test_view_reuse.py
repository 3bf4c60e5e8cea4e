"""A view built after another reuses its records, and equals a cold build.

``ViewStore.install`` hands its current view to the next ``ReadView``,
which shares a snippet's record while the snippet object and its role are
unchanged and an integrated story's summary and detail (re-stamped with
the new id) while its member stories hold the members they held.  The
oracle is the same result materialized without a previous view.
"""

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.eventdata.sourcegen import synthetic_corpus
from repro.runtime import ShardedRuntime
from repro.server import ViewRefresher
from repro.server.views import ReadView

from test_delta_refresh import RecordingStore, batches

SURFACE = ("stories", "story_details", "story_snippets", "source_stories",
           "sources", "stats")


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(total_events=60, num_sources=4, seed=18)


def assert_cold_equal(view, result, corpus):
    cold = ReadView(result, view.generation, dataset=view.dataset, corpus=corpus)
    for name in SURFACE:
        assert getattr(view, name) == getattr(cold, name), name


def records(view):
    return {record["id"]: record
            for rows in view.story_snippets.values() for record in rows}


def members(result):
    return {story.story_id: set(story.members)
            for story_set in result.story_sets.values() for story in story_set}


def test_every_refreshed_view_equals_a_cold_build(corpus):
    runtime = ShardedRuntime(StoryPivotConfig.temporal(), num_shards=2).start()
    store = RecordingStore()
    refresher = ViewRefresher(runtime, store, corpus=corpus)
    seen = {"role changed": 0, "member lost": 0, "record reused": 0,
            "detail reused": 0}
    before = None
    try:
        for batch in batches(corpus, generations=8):
            runtime.consume(batch).drain()
            view = refresher.refresh(force=True)
            assert_cold_equal(view, store.result, corpus)
            now = (view, records(view), members(store.result))
            if before is not None:
                old_view, old_records, old_members = before
                shared = old_records.keys() & now[1].keys()
                seen["role changed"] += sum(
                    old_records[sid]["role"] != now[1][sid]["role"]
                    for sid in shared)
                seen["record reused"] += sum(
                    old_records[sid] is now[1][sid] for sid in shared)
                seen["member lost"] += sum(
                    not old_members[story_id] <= now[2][story_id]
                    for story_id in old_members.keys() & now[2].keys())
                old_details = {d["story_ids"][0]: d
                               for d in old_view.story_details.values()}
                seen["detail reused"] += sum(
                    old_details.get(d["story_ids"][0], {}).get("entities")
                    is d["entities"] for d in view.story_details.values())
            before = now
    finally:
        runtime.stop(checkpoint=False)
    assert all(seen.values()), seen


def test_stories_changed_in_place_are_seen(corpus):
    """A long-lived pivot edits the very story objects the last view was
    built from: the reuse check compares against copies of their members."""
    snippets = corpus.snippets_by_time()
    pivot = StoryPivot(StoryPivotConfig.temporal())
    store = RecordingStore()
    edits = [
        lambda: [pivot.add_snippet(s) for s in snippets[:-40]],
        lambda: [pivot.add_snippet(s) for s in snippets[-40:]],
        lambda: [pivot.remove_snippet(s.snippet_id) for s in snippets[5:90:4]],
        lambda: None,
    ]
    for edit in edits:
        edit()
        view = store.install(pivot.finish(), corpus=corpus)
        assert_cold_equal(view, store.result, corpus)
