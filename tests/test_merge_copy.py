"""``merge_shards`` copies the shards' stories: it equals restoring them.

The oracle is a pivot that restores every shard story under its id through
``restore_story`` (the checkpoint path), sources in sorted order.  The copy
must equal it field by field, orders included — every float a story sums
in member order depends on them — and must mint no story id.
"""

import itertools

import pytest

from repro.core import stories as stories_module
from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.eventdata.sourcegen import synthetic_corpus
from repro.runtime import ShardedRuntime
from tests.conftest import held_indexes


@pytest.fixture(scope="module")
def snippets():
    corpus = synthetic_corpus(total_events=60, num_sources=5, seed=11)
    return corpus.snippets_by_publication()  # out of time order


def config_for(sketches):
    """Loose enough that identification merges and splits stories."""
    return StoryPivotConfig.temporal(
        use_sketches=sketches, match_threshold=0.3, merge_threshold=0.35,
        split_gap=10 * 86400.0,
    )


def restored(story_sets, config):
    oracle = StoryPivot(config)
    for source_id in sorted(story_sets):
        for story in story_sets[source_id]:
            oracle.restore_story(source_id, story.story_id, story.snippets())
    return oracle


def fields(pivot, indexed=False):
    """Everything of a pivot's stories, in the orders they are held, and
    with ``indexed`` every candidate index each identifier holds."""
    out = {"snippets": pivot.num_snippets, "sources": list(pivot.story_sets())}
    for source_id, identifier in sorted(pivot._identifiers.items()):
        story_set = identifier.stories
        out[source_id] = {
            "held": list(identifier._snippets.items()),
            "counted": identifier.stats.snippets,
            "homes": list(story_set.snippet_homes.items()),
            "stories": [sketched(story) for story in story_set._stories.values()],
        }
        if indexed:
            out[source_id]["indexes"] = held_indexes(identifier)
    return out


def sketched(story):
    sketch = story.sketch
    return (
        story.story_id, story.source_id, list(story.members.items()),
        list(sketch.entity_counts.items()), list(sketch.term_counts.items()),
        sketch.entity_mass, sketch.term_mass, sketch.span,
        list(sketch._members.items()), list(sketch._signatures.items()),
        sketch.signature, sketch.decay_half_life,
    )


@pytest.mark.parametrize("sketches", (False, True), ids=("plain", "sketched"))
@pytest.mark.parametrize("num_shards", (1, 2, 4))
def test_the_copy_equals_restoring(snippets, monkeypatch, num_shards, sketches):
    config = config_for(sketches)
    runtime = ShardedRuntime(config, num_shards=num_shards).start()
    held_back = snippets[-25:]
    try:
        runtime.consume(snippets[:-25]).drain()
        shards = runtime._shards
        work = [shard.pivot.identifier(source_id).stats
                for shard in shards for source_id in shard.pivot.source_ids]
        # identification merged and split stories: not a trivial stream
        assert sum(stats.merges for stats in work) > 0
        assert sum(stats.splits for stats in work) > 0
        story_sets = {}
        for shard in shards:
            story_sets.update(shard.pivot.story_sets())
        before = {sid: sketched(story) for story_set in story_sets.values()
                  for story in story_set for sid in [story.story_id]}

        counter = repr(stories_module._story_counter)
        merged = runtime.merged_pivot()
        assert repr(stories_module._story_counter) == counter  # minted none
        oracle = restored(story_sets, config)
        assert fields(merged) == fields(oracle)

        # refining the copy leaves every shard story as it was
        result = merged.finish()
        assert result.refinement.num_moves > 0
        assert {sid: sketched(story) for story_set in story_sets.values()
                for story in story_set for sid in [story.story_id]} == before

        # the copy's identifiers index on their first add or remove: later
        # arrivals and withdrawals land as they do in a restored pivot
        merged, oracle = runtime.merged_pivot(), restored(story_sets, config)
        for pivot in (merged, oracle):
            monkeypatch.setattr(stories_module, "_story_counter",
                                itertools.count(10 ** 6))
            for snippet in held_back:
                pivot.add_snippet(snippet)
            for snippet in snippets[3:200:9]:
                pivot.remove_snippet(snippet.snippet_id)
        assert fields(merged, indexed=True) == fields(oracle, indexed=True)
    finally:
        runtime.stop(checkpoint=False)


def test_a_restore_beside_copies_indexes_the_copies_first(snippets):
    """``restore_story`` into an identifier holding copies: the copies'
    snippets are indexed first, in the order they were copied, none twice."""
    config = config_for(True)
    source = StoryPivot(config)
    for snippet in snippets[:150]:
        source.add_snippet(snippet)
    story_sets = source.story_sets()
    source_id = sorted(story_sets)[0]
    *kept, last = list(story_sets[source_id])
    copied = StoryPivot.copy_of(
        {**story_sets, source_id: {s.story_id: s for s in kept}.values()},
        config,
    )
    oracle = restored(story_sets, config)
    oracle.identifier(source_id).stories._stories.pop(last.story_id)
    oracle = restored(oracle.story_sets(), config)
    for pivot in (copied, oracle):
        pivot.restore_story(source_id, last.story_id, last.snippets())
    assert fields(copied, indexed=True)[source_id] == fields(
        oracle, indexed=True)[source_id]
