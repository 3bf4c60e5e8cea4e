"""Each member's features are held once, and scoring sets are never stored.

A snippet holds its match features in two containers: its ``entities``
frozenset and its ``match_terms`` tuple.  Every sketch member, every copy
of a sketch and the counterpart graph's timelines hold those objects
themselves; the term *set* the scorers need is built per arriving snippet
and dropped.  (a) An identity walk over a seeded two-shard runtime, its
merged pivot after ``finish()`` and a single-threaded ``StreamProcessor``.
(b) The graph's prepared-set kernel against ``snippet_score`` and its
definition.  (c) ``story_score`` sums a profile's shared weights in the
order of a term set built from the snippet's tuple.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StoryPivotConfig
from repro.core.matchers import SnippetMatcher, snippet_features
from repro.core.pipeline import StoryPivot
from repro.core.stories import Story
from repro.core.streaming import StreamProcessor
from repro.eventdata.models import Snippet
from repro.eventdata.sourcegen import synthetic_corpus
from repro.runtime import ShardedRuntime
from repro.storage.event_store import match_terms
from repro.text.similarity import (
    combine_weighted,
    jaccard_similarity,
    overlap_coefficient,
    temporal_proximity,
)

CORPUS = synthetic_corpus(total_events=120, num_sources=4, seed=29)


def assert_held_once(pivot: StoryPivot) -> int:
    """Every member of every sketch holds its snippet's own containers;
    returns the members walked."""
    walked = 0
    for story_set in pivot.story_sets().values():
        for story in story_set:
            for snippet_id, member in story.sketch._members.items():
                snippet = story.get(snippet_id)
                timestamp, entities, terms = member
                assert timestamp == snippet.timestamp
                assert entities is snippet.entities, snippet_id
                assert terms is snippet._match_terms, snippet_id
                assert isinstance(terms, tuple)
                walked += 1
    return walked


def assert_nothing_stored(pivot: StoryPivot) -> None:
    assert [f.name for f in dataclasses.fields(Snippet) if not f.init] == [
        "_match_terms"
    ]
    for story_set in pivot.story_sets().values():
        for story in story_set:
            for snippet in story.members.values():
                first, second = snippet_features(snippet), snippet_features(snippet)
                assert first == second and first[1] is not second[1]


@pytest.fixture(scope="module")
def pivots():
    config = StoryPivotConfig.temporal()
    delivery = CORPUS.snippets_by_publication()
    runtime = ShardedRuntime(config, num_shards=2).start()
    try:
        runtime.consume(delivery).drain()
        shards = [shard.pivot for shard in runtime._shards]
        merged = runtime.merged_pivot()
    finally:
        runtime.stop()
    merged.finish()  # the counterpart graph holds every member too
    oracle = StreamProcessor(config, realign_every=10**9).consume(delivery)
    return shards, merged, oracle.pivot


def test_every_member_holds_its_snippets_own_features(pivots):
    shards, merged, oracle = pivots
    total = len(CORPUS.snippets())
    assert sum(assert_held_once(pivot) for pivot in shards) == total
    assert assert_held_once(merged) == total
    assert assert_held_once(oracle) == total
    for pivot in (*shards, merged, oracle):
        assert_nothing_stored(pivot)


def test_the_counterpart_timelines_hold_the_snippets_own_features(pivots):
    _, merged, _ = pivots
    graph = merged.aligner.counterparts
    entries = [entry for timeline in graph._timelines.values() for entry in timeline]
    assert len(entries) == len(CORPUS.snippets())
    for timestamp, snippet_id, entities, terms, snippet in entries:
        assert (timestamp, snippet_id) == (snippet.timestamp, snippet.snippet_id)
        assert entities is snippet.entities
        assert terms is snippet._match_terms


# -- (b) the prepared-set kernel ----------------------------------------------------

WORDS = ("crash", "plane", "missile", "vote", "ballot", "rebel", "border")
WORDS8 = WORDS[:5] + ("convoy", "sanction", "ceasefire")
NAMES = ("UKR", "MAS", "RUS", "FRA")


@st.composite
def snippets(draw, snippet_id):
    return Snippet(
        snippet_id, draw(st.sampled_from(("s1", "s2"))),
        draw(st.floats(0.0, 30 * 86400.0)),
        " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=5))),
        entities=frozenset(draw(st.lists(st.sampled_from(NAMES), max_size=3))),
        keywords=tuple(draw(st.lists(st.sampled_from(WORDS), max_size=3))),
    )


@given(snippets("a"), snippets("b"), st.sampled_from((
    {"entity": 0.45, "term": 0.45, "temporal": 0.10},
    {"temporal": 0.5, "term": 0.25, "entity": 0.25},
    {"entity": 0.2, "term": 0.2, "temporal": 0.1, "tone": 0.5},
)))
@settings(max_examples=400, deadline=None)
def test_the_kernel_equals_snippet_score_both_ways(a, b, weights):
    config = StoryPivotConfig(weights=weights)
    matcher = SnippetMatcher(config)
    expected = combine_weighted({
        "entity": overlap_coefficient(a.entities, b.entities),
        "term": jaccard_similarity(set(match_terms(a)), set(match_terms(b))),
        "temporal": temporal_proximity(a.timestamp, b.timestamp, config.window),
    }, weights)
    for one, other in ((a, b), (b, a)):
        entities, terms = snippet_features(one)
        assert matcher.prepared_score(entities, terms, one.timestamp, other) == expected
        assert matcher.snippet_score(one, other) == expected


def test_empty_feature_sets_score_their_time_alone():
    bare = Snippet("a", "s1", 0.0, "", entities=frozenset())
    full = Snippet("b", "s2", 3600.0, "plane crash", entities=frozenset({"UKR"}))
    matcher = SnippetMatcher(StoryPivotConfig())
    entities, terms = snippet_features(bare)
    assert not entities and not terms and match_terms(bare) == ()
    for one, other in ((bare, full), (full, bare), (bare, bare)):
        prepared = snippet_features(one)
        got = matcher.prepared_score(*prepared, one.timestamp, other)
        assert got == matcher.snippet_score(one, other) == matcher.snippet_score(
            other, one
        )


# -- (c) story_score sums in the term set's order --------------------------------------

def overlap_in_order(features, weights, mass):
    """``_profile_overlap``'s sum, over ``features`` in the order given."""
    denominator = min(float(len(features)), mass)
    if denominator <= 0:
        return 0.0
    shared = 0.0
    for feature in features:
        weight = weights.get(feature)
        if weight:
            shared += weight if weight < 1.0 else 1.0
    return min(1.0, shared / denominator)


def scored_in_set_order(config, pairs):
    """Asserts ``story_score`` of every (probe, story) pair equals the sums
    over the probe's term set; returns how many a sum over its term tuple
    would have changed."""
    matcher = SnippetMatcher(config)
    order_matters = 0
    for probe, story in pairs:
        entities, terms = snippet_features(probe)
        e_w, e_mass, t_w, t_mass, nearest = story.sketch.decayed_shares(
            entities, terms, probe.timestamp, probe.timestamp
        )
        term = overlap_in_order(terms, t_w, t_mass)
        expected = combine_weighted({
            "entity": overlap_in_order(entities, e_w, e_mass),
            "term": term,
            "temporal": temporal_proximity(0.0, nearest, config.window),
        }, config.weights)
        assert matcher.story_score(probe, story) == expected
        order_matters += term != overlap_in_order(match_terms(probe), t_w, t_mass)
    return order_matters


def test_story_score_sums_shared_weights_in_the_term_sets_order():
    config = StoryPivotConfig.temporal()
    pivot = StoryPivot(config)
    ordered = CORPUS.snippets_by_time()
    for snippet in ordered:
        pivot.add_snippet(snippet)
    pairs = [(probe, story) for probe in ordered
             for story in pivot.story_sets()[probe.source_id] if len(story) > 1]
    assert len(pairs) > 2000
    scored_in_set_order(config, pairs)


def test_a_sum_over_the_term_tuple_would_be_caught():
    """Eight terms, each with its own decayed weight below 1, and forty
    probes holding six of them in some order: summed in a set's order and
    in a tuple's, some of the shares differ in their last bits."""
    config = StoryPivotConfig.temporal()
    story = Story("s1/c0", "s1")
    for i in range(len(WORDS8)):
        story.add(Snippet(f"m{i}", "s1", i * 3 * 86400.0, "", keywords=WORDS8[:i + 1]))
    rng = random.Random(7)
    probes = [
        Snippet(f"p{k}", "s1", 90 * 86400.0, "",
                keywords=tuple(rng.sample(WORDS8, 6)))
        for k in range(40)
    ]
    assert scored_in_set_order(config, [(probe, story) for probe in probes]) > 0
