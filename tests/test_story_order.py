"""``Story.snippets()`` keeps its time order between membership changes.

The order is sorted once and kept until ``add`` or ``remove`` changes the
members; ``copy()`` starts without it.  Random add / remove / merge /
split / copy sequences are checked against a fresh sort after every step.
A warm ``ReadView`` formats only the date spans it has not formatted
before.
"""

import random

import pytest

from repro.core import stories as stories_module
from repro.core.pipeline import StoryPivot
from repro.core.stories import StorySet
from repro.eventdata.models import Snippet
from repro.eventdata.sourcegen import synthetic_corpus
from repro.server.views import ViewStore


def fresh_sort(story):
    return sorted(story.members.values(), key=lambda s: (s.timestamp, s.snippet_id))


def make_snippet(index, rng):
    # few distinct timestamps, so ties fall to the id
    return Snippet(
        snippet_id=f"s{index:04d}", source_id="a",
        timestamp=float(rng.randrange(20) * 3600), description=f"d{index}",
    )


@pytest.mark.parametrize("seed", range(8))
def test_cached_order_equals_a_fresh_sort(seed):
    rng = random.Random(seed)
    stories = StorySet("a")
    copies = []
    made = 0
    for _ in range(300):
        live = [story for story in stories if len(story)]
        op = rng.choice(("add", "add", "add", "remove", "merge", "split", "copy"))
        if op == "add" or not live:
            if live and rng.random() < 0.7:
                target = rng.choice(live)
            else:
                target = stories.new_story()
            stories.assign(make_snippet(made, rng), target)
            made += 1
        elif op == "remove":
            story = rng.choice(live)
            stories.unassign(rng.choice(sorted(story.members)))
        elif op == "merge" and len(live) > 1:
            keep, absorb = rng.sample(live, 2)
            stories.merge(keep.story_id, absorb.story_id)
        elif op == "split":
            story = rng.choice(live)
            ids = sorted(story.members)
            if len(ids) > 1:
                stories.split(story.story_id, set(rng.sample(ids, len(ids) // 2)))
        elif op == "copy":
            story = rng.choice(live)
            story.snippets()  # the original holds its order
            clone = story.copy()
            copies.append(clone)
            clone.add(make_snippet(made, rng))  # ...which the clone must not share
            made += 1
            assert story.snippets() == fresh_sort(story)
        for story in stories:
            assert story.snippets() == fresh_sort(story)
    for clone in copies:
        assert clone.snippets() == fresh_sort(clone)


def test_callers_get_their_own_list():
    rng = random.Random(0)
    stories = StorySet("a")
    story = stories.new_story()
    for index in range(5):
        stories.assign(make_snippet(index, rng), story)
    first = story.snippets()
    first.reverse()
    assert story.snippets() == fresh_sort(story)


def counting(monkeypatch, module, seen):
    real = module.format_timestamp

    def record(timestamp, *args, **kwargs):
        seen.append(timestamp)
        return real(timestamp, *args, **kwargs)

    monkeypatch.setattr(module, "format_timestamp", record)


def test_a_warm_install_formats_only_new_spans(monkeypatch):
    corpus = synthetic_corpus(total_events=80, num_sources=3, seed=5)
    snippets = corpus.snippets_by_publication()
    half = len(snippets) * 9 // 10
    pivot = StoryPivot()
    for snippet in snippets[:half]:
        pivot.add_snippet(snippet)
    store = ViewStore()
    store.install(pivot.finish(), corpus=corpus)
    spans = {
        (story.start, story.end)
        for story_set in pivot.story_sets().values() for story in story_set
    }
    for snippet in snippets[half:]:
        pivot.add_snippet(snippet)
    result = pivot.finish()
    new = [
        story for story_set in result.story_sets.values() for story in story_set
        if (story.start, story.end) not in spans
    ]
    assert new and len(new) < result.num_stories
    seen = []
    counting(monkeypatch, stories_module, seen)
    store.install(result, corpus=corpus)
    assert sorted(seen) == sorted(
        t for story in new for t in (story.start, story.end)
    )
    # the same result again: nothing of a per-source row is formatted
    seen.clear()
    store.install(result, corpus=corpus)
    assert seen == []
    # and the rows equal a cold build's
    cold = ViewStore().install(result, corpus=corpus)
    assert store.current().source_stories == cold.source_stories
