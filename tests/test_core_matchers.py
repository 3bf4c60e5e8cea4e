"""Tests for snippet/story similarity scoring."""

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.matchers import SnippetMatcher, snippet_features
from repro.core.stories import Story
from repro.eventdata.models import DAY
from repro.eventdata.sourcegen import synthetic_corpus
from repro.text.similarity import (
    combine_weighted,
    jaccard_similarity,
    overlap_coefficient,
    temporal_proximity,
)
from tests.conftest import make_snippet


@pytest.fixture
def matcher():
    return SnippetMatcher(StoryPivotConfig())


def crash_snippet(snippet_id, date="2014-07-17", **kwargs):
    defaults = dict(description="plane crash", entities=("UKR", "MAS"),
                    keywords=("crash", "plane", "missile"))
    defaults.update(kwargs)
    return make_snippet(snippet_id, date=date, **defaults)


def vote_snippet(snippet_id, date="2014-07-17"):
    return make_snippet(snippet_id, date=date, description="election vote",
                        entities=("FRA",), keywords=("election", "ballot"))


class TestSnippetFeatures:
    def test_features_split_entities_terms(self):
        entities, terms = snippet_features(crash_snippet("v"))
        assert entities == frozenset({"UKR", "MAS"})
        assert "crash" in terms

    def test_nothing_is_stored(self):
        """A fresh term set per call, equal each time, built from the
        snippet's one stored container, the ``match_terms`` tuple."""
        snippet = crash_snippet("v")
        first, second = snippet_features(snippet), snippet_features(snippet)
        assert first == second and first[1] is not second[1]
        assert first[0] is snippet.entities
        assert list(first[1]) == list(frozenset(snippet._match_terms))


class TestSnippetScore:
    def test_identical_content_same_time_scores_high(self, matcher):
        a = crash_snippet("a")
        b = crash_snippet("b")
        assert matcher.snippet_score(a, b) > 0.9

    def test_unrelated_scores_low(self, matcher):
        assert matcher.snippet_score(crash_snippet("a"), vote_snippet("b")) < 0.2

    def test_symmetric(self, matcher):
        a = crash_snippet("a")
        b = crash_snippet("b", date="2014-07-20", entities=("UKR",))
        assert matcher.snippet_score(a, b) == pytest.approx(
            matcher.snippet_score(b, a)
        )

    def test_temporal_distance_lowers_score(self, matcher):
        a = crash_snippet("a", date="2014-07-17")
        near = crash_snippet("b", date="2014-07-18")
        far = crash_snippet("c", date="2014-12-01")
        assert matcher.snippet_score(a, near) > matcher.snippet_score(a, far)

    def test_score_in_unit_interval(self, matcher):
        a = crash_snippet("a")
        for other in (crash_snippet("b"), vote_snippet("c")):
            assert 0.0 <= matcher.snippet_score(a, other) <= 1.0


class TestSnippetScoreKernel:
    """The inlined kernel against its definition in ``text.similarity``,
    compared with ``==``: the same values summed in the same order."""

    WEIGHTS = (
        {"entity": 0.45, "term": 0.45, "temporal": 0.10},
        {"temporal": 0.5, "entity": 0.25, "term": 0.25},  # another order
        {"term": 0.3, "entity": 0.7},  # a channel left out
        {"entity": 0.2, "term": 0.2, "temporal": 0.1, "tone": 0.5},  # unscored
        {"entity": 1e-3, "term": 0.7, "temporal": 1e3},
    )

    @pytest.mark.parametrize("weights", WEIGHTS, ids=lambda w: "+".join(w))
    def test_equals_the_definition(self, weights):
        config = StoryPivotConfig(weights=weights)
        matcher = SnippetMatcher(config)
        snippets = synthetic_corpus(
            total_events=60, num_sources=4, seed=4
        ).snippets_by_time()
        snippets.append(make_snippet("bare", entities=(), keywords=()))
        scored = 0
        for index, a in enumerate(snippets):
            for b in snippets[index:index + 40]:
                entities_a, terms_a = snippet_features(a)
                entities_b, terms_b = snippet_features(b)
                expected = combine_weighted({
                    "entity": overlap_coefficient(entities_a, entities_b),
                    "term": jaccard_similarity(terms_a, terms_b),
                    "temporal": temporal_proximity(
                        a.timestamp, b.timestamp, config.window
                    ),
                }, weights)
                assert matcher.snippet_score(a, b) == expected
                assert matcher.snippet_score(b, a) == expected
                scored += 1
        assert scored > 2000


class TestStoryScore:
    def build_story(self, *snippets):
        story = Story("c1", "s1")
        for snippet in snippets:
            story.add(snippet)
        return story

    def test_empty_story_scores_zero(self, matcher):
        assert matcher.story_score(crash_snippet("q"), Story("c", "s1")) == 0.0

    def test_matching_story_scores_above_threshold(self, matcher):
        story = self.build_story(crash_snippet("a"), crash_snippet("b", "2014-07-18"))
        query = crash_snippet("q", "2014-07-19")
        assert matcher.story_score(query, story) > matcher.config.match_threshold

    def test_unrelated_story_scores_low(self, matcher):
        story = self.build_story(vote_snippet("a"))
        assert matcher.story_score(crash_snippet("q"), story) < 0.2

    def test_decay_discounts_stale_story_content(self, matcher):
        """The temporal mode's key property (Figure 2).

        Decay is *relative*: it reweights a mixed-age story toward what it
        is about now (uniform scaling cancels in the overlap normalization,
        and absolute staleness is carried by the temporal channel instead).
        A story whose crash content is old but whose recent content moved on
        must score lower for a crash query than the undecayed view says.
        """
        story = self.build_story(
            crash_snippet("a", "2014-06-01"),
            vote_snippet("b", "2014-08-30"),
            vote_snippet("c", "2014-08-31"),
        )
        query = crash_snippet("q", "2014-09-01")
        decayed = matcher.story_score(query, story, decayed=True)
        undecayed = matcher.story_score(query, story, decayed=False)
        assert decayed < undecayed

    def test_mode_selects_decay_default(self):
        temporal = SnippetMatcher(StoryPivotConfig.temporal())
        complete = SnippetMatcher(StoryPivotConfig.complete())
        story = self.build_story(crash_snippet("a", "2014-06-01"))
        query = crash_snippet("q", "2014-09-01")
        assert temporal.story_score(query, story) <= complete.story_score(query, story)

    def test_story_evolution_beats_stale_profile(self, matcher):
        """A story whose recent content matches scores higher at query time
        than one whose matching content is months old."""
        fresh = self.build_story(
            vote_snippet("a", "2014-05-01"),
            crash_snippet("b", "2014-07-16"),
        )
        stale = self.build_story(
            crash_snippet("c", "2014-05-01"),
            vote_snippet("d", "2014-07-16"),
        )
        query = crash_snippet("q", "2014-07-17")
        assert matcher.story_score(query, fresh, decayed=True) > matcher.story_score(
            query, stale, decayed=True
        )


class TestStoryPairScore:
    def test_same_content_stories_similar(self, matcher):
        a = Story("a", "s1")
        a.add(crash_snippet("a1"))
        b = Story("b", "s1")
        b.add(crash_snippet("b1", "2014-07-18"))
        assert matcher.story_pair_score(a, b) > 0.7

    def test_different_stories_dissimilar(self, matcher):
        a = Story("a", "s1")
        a.add(crash_snippet("a1"))
        b = Story("b", "s1")
        b.add(vote_snippet("b1"))
        assert matcher.story_pair_score(a, b) < 0.2

    def test_empty_story_scores_zero(self, matcher):
        a = Story("a", "s1")
        a.add(crash_snippet("a1"))
        assert matcher.story_pair_score(a, Story("b", "s1")) == 0.0
