"""Tests for story identification (temporal, complete, single-pass)."""

import random

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.identification import (
    CompleteIdentifier,
    SinglePassIdentifier,
    TemporalIdentifier,
    make_identifier,
)
from repro.errors import DuplicateSnippetError, UnknownSnippetError
from repro.eventdata.models import DAY, Snippet, parse_timestamp
from repro.storage.event_store import match_terms
from tests.conftest import make_snippet


def crash(snippet_id, date, **kwargs):
    defaults = dict(description="plane crash missile", entities=("UKR", "MAS"),
                    keywords=("crash", "plane", "missile"))
    defaults.update(kwargs)
    return make_snippet(snippet_id, date=date, **defaults)


def vote(snippet_id, date):
    return make_snippet(snippet_id, date=date, description="election ballot",
                        entities=("FRA", "EU"), keywords=("election", "ballot"))


class TestFactory:
    def test_mode_selection(self):
        assert isinstance(
            make_identifier("s1", StoryPivotConfig.temporal()), TemporalIdentifier
        )
        assert isinstance(
            make_identifier("s1", StoryPivotConfig.complete()), CompleteIdentifier
        )
        assert isinstance(
            make_identifier("s1", StoryPivotConfig.single_pass()),
            SinglePassIdentifier,
        )

    def test_default_is_temporal(self):
        assert isinstance(make_identifier("s1"), TemporalIdentifier)


class TestBasicPlacement:
    def test_first_snippet_founds_story(self):
        identifier = make_identifier("s1")
        story = identifier.add(crash("v1", "2014-07-17"))
        assert len(story) == 1
        assert identifier.stats.new_stories == 1

    def test_similar_snippet_joins(self):
        identifier = make_identifier("s1")
        identifier.add(crash("v1", "2014-07-17"))
        story = identifier.add(crash("v2", "2014-07-18"))
        assert len(story) == 2
        assert len(identifier.stories) == 1

    def test_dissimilar_snippet_founds_new_story(self):
        identifier = make_identifier("s1")
        identifier.add(crash("v1", "2014-07-17"))
        identifier.add(vote("v2", "2014-07-18"))
        assert len(identifier.stories) == 2

    def test_wrong_source_rejected(self):
        identifier = make_identifier("s1")
        with pytest.raises(ValueError):
            identifier.add(crash("v1", "2014-07-17", source_id="other"))

    def test_duplicate_rejected(self):
        identifier = make_identifier("s1")
        identifier.add(crash("v1", "2014-07-17"))
        with pytest.raises(DuplicateSnippetError):
            identifier.add(crash("v1", "2014-07-17"))

    def test_identify_batch(self):
        identifier = make_identifier("s1")
        stories = identifier.identify(
            [crash("v1", "2014-07-17"), crash("v2", "2014-07-18"),
             vote("v3", "2014-07-19")]
        )
        assert len(stories) == 2
        assert stories.num_snippets == 3


class TestTemporalWindow:
    def test_same_content_beyond_window_separates(self):
        """Figure 2(b): snippets outside [t-ω, t+ω] are not candidates."""
        config = StoryPivotConfig.temporal(window=7 * DAY, split_gap=365 * DAY)
        identifier = make_identifier("s1", config)
        identifier.add(crash("v1", "2014-07-01"))
        identifier.add(crash("v2", "2014-09-01"))  # 62 days later
        assert len(identifier.stories) == 2

    def test_same_content_inside_window_joins(self):
        config = StoryPivotConfig.temporal(window=7 * DAY)
        identifier = make_identifier("s1", config)
        identifier.add(crash("v1", "2014-07-01"))
        identifier.add(crash("v2", "2014-07-04"))
        assert len(identifier.stories) == 1

    def test_chained_windows_extend_story(self):
        """A story longer than ω survives through chained local matches."""
        config = StoryPivotConfig.temporal(window=7 * DAY, split_gap=365 * DAY)
        identifier = make_identifier("s1", config)
        for i, day in enumerate(("01", "05", "09", "13", "17", "21")):
            identifier.add(crash(f"v{i}", f"2014-07-{day}"))
        assert len(identifier.stories) == 1

    def test_complete_mode_joins_across_any_gap(self):
        config = StoryPivotConfig.complete(window=7 * DAY, split_gap=365 * DAY)
        identifier = make_identifier("s1", config)
        identifier.add(crash("v1", "2014-07-01"))
        identifier.add(crash("v2", "2014-09-01"))
        assert len(identifier.stories) == 1

    def test_comparisons_counted(self):
        identifier = make_identifier("s1")
        identifier.add(crash("v1", "2014-07-01"))
        identifier.add(crash("v2", "2014-07-02"))
        assert identifier.stats.comparisons >= 1
        assert identifier.stats.snippets == 2


class TestIncrementalEquivalence:
    def test_one_at_a_time_equals_batch(self, small_synthetic):
        """Design invariant: identification is truly incremental."""
        config = StoryPivotConfig.temporal()
        source_id = sorted(small_synthetic.sources)[0]
        snippets = small_synthetic.by_source(source_id)

        batch = make_identifier(source_id, config)
        batch.identify(snippets)

        incremental = make_identifier(source_id, config)
        for snippet in snippets:
            incremental.add(snippet)

        batch_clusters = {frozenset(v) for v in batch.stories.as_clusters().values()}
        inc_clusters = {
            frozenset(v) for v in incremental.stories.as_clusters().values()
        }
        assert batch_clusters == inc_clusters


class TestMergeAndSplit:
    def test_bridge_snippet_merges_stories(self):
        """A snippet matching two stories strongly triggers a merge."""
        config = StoryPivotConfig.temporal(
            window=30 * DAY, match_threshold=0.40, merge_threshold=0.60
        )
        identifier = make_identifier("s1", config)
        # two fragments of the same story, founded far enough apart in
        # content order that they start separate
        identifier.add(crash("v1", "2014-07-01", keywords=("crash", "plane")))
        identifier.add(crash("v2", "2014-07-03",
                             entities=("UKR", "RUS"),
                             keywords=("missile", "separatists")))
        n_before = len(identifier.stories)
        identifier.add(crash("bridge", "2014-07-02",
                             entities=("UKR", "MAS", "RUS"),
                             keywords=("crash", "plane", "missile",
                                       "separatists")))
        if n_before == 2:
            assert len(identifier.stories) == 1
            assert identifier.stats.merges == 1

    def test_split_on_long_silence(self):
        config = StoryPivotConfig.complete(
            split_gap=30 * DAY, enable_split=True
        )
        identifier = make_identifier("s1", config)
        identifier.add(crash("v1", "2014-06-01"))
        identifier.add(crash("v2", "2014-06-02"))
        identifier.add(crash("v3", "2014-09-01"))  # 90-day silence
        assert len(identifier.stories) == 2
        assert identifier.stats.splits == 1

    def test_split_disabled(self):
        config = StoryPivotConfig.complete(split_gap=30 * DAY, enable_split=False)
        identifier = make_identifier("s1", config)
        identifier.add(crash("v1", "2014-06-01"))
        identifier.add(crash("v2", "2014-09-01"))
        assert len(identifier.stories) == 1

    def test_single_pass_never_merges(self):
        config = StoryPivotConfig.single_pass(match_threshold=0.40,
                                              merge_threshold=0.60)
        identifier = make_identifier("s1", config)
        identifier.add(crash("v1", "2014-07-01"))
        identifier.add(vote("v2", "2014-07-02"))
        identifier.add(crash("v3", "2014-07-03"))
        assert identifier.stats.merges == 0


class TestRemoval:
    def test_remove_snippet(self):
        identifier = make_identifier("s1")
        identifier.add(crash("v1", "2014-07-17"))
        identifier.add(crash("v2", "2014-07-18"))
        removed = identifier.remove("v1")
        assert removed.snippet_id == "v1"
        assert identifier.stories.num_snippets == 1
        assert identifier.stats.removals == 1

    def test_remove_last_member_drops_story(self):
        identifier = make_identifier("s1")
        identifier.add(crash("v1", "2014-07-17"))
        identifier.remove("v1")
        assert len(identifier.stories) == 0

    def test_remove_unknown(self):
        with pytest.raises(UnknownSnippetError):
            make_identifier("s1").remove("nope")

    def test_removed_snippet_no_longer_a_candidate(self):
        identifier = make_identifier("s1")
        identifier.add(crash("v1", "2014-07-17"))
        identifier.remove("v1")
        story = identifier.add(crash("v2", "2014-07-18"))
        assert len(identifier.stories) == 1
        assert len(story) == 1


class TestCandidateOracle:
    """Temporal candidate retrieval equals a brute-force scan of the source.

    The candidates of ``q`` are the stories of every held snippet within
    ω of ``q`` (inclusive) sharing an entity or a match term with it,
    ``q`` itself excluded — checked before every add, then again for every
    snippet (held or withdrawn) after removals.
    """

    ENTITIES = ("UKR", "MAS", "RUS", "FRA", "EU", "USA")
    WORDS = ("crash", "plane", "missile", "election", "ballot", "flood",
             "rescue", "summit", "strike", "protest")

    def random_snippet(self, rng, index):
        # whole-day offsets make |t - t'| == ω exact, so the window's
        # inclusive edges are exercised
        return Snippet(
            snippet_id=f"v{index:03d}",
            source_id="s1",
            timestamp=parse_timestamp("2014-07-01") + rng.randrange(60) * DAY,
            description=" ".join(rng.sample(self.WORDS, rng.randint(1, 2))),
            entities=frozenset(rng.sample(self.ENTITIES, rng.randint(0, 2))),
            keywords=(rng.choice(self.WORDS),),
        )

    @staticmethod
    def oracle(identifier, held, query):
        terms = set(match_terms(query))
        return {
            identifier.stories.story_of(other.snippet_id).story_id
            for other in held.values()
            if other.snippet_id != query.snippet_id
            and abs(other.timestamp - query.timestamp) <= identifier.config.window
            and (other.entities & query.entities
                 or terms.intersection(match_terms(other)))
        }

    def test_candidates_match_brute_force(self):
        rng = random.Random(7)
        identifier = make_identifier("s1", StoryPivotConfig.temporal())
        held = {}

        def add_checked(snippet):
            expected = self.oracle(identifier, held, snippet)
            assert identifier._candidate_story_ids(snippet) == expected
            identifier.add(snippet)
            held[snippet.snippet_id] = snippet

        snippets = [self.random_snippet(rng, i) for i in range(120)]
        for snippet in snippets:
            add_checked(snippet)
        assert len(identifier.stories) > 1
        removed = rng.sample(snippets, 40)
        for snippet in removed:
            identifier.remove(snippet.snippet_id)
            del held[snippet.snippet_id]
        for snippet in snippets:
            expected = self.oracle(identifier, held, snippet)
            assert identifier._candidate_story_ids(snippet) == expected
        # withdrawn documents come back revised under their old ids
        for snippet in removed[:20]:
            index = int(snippet.snippet_id[1:])
            add_checked(self.random_snippet(rng, index))
        for snippet in held.values():
            expected = self.oracle(identifier, held, snippet)
            assert identifier._candidate_story_ids(snippet) == expected


class TestSketchPath:
    def test_sketch_mode_produces_similar_clustering(self, small_synthetic):
        source_id = sorted(small_synthetic.sources)[0]
        snippets = small_synthetic.by_source(source_id)
        exact = make_identifier(source_id, StoryPivotConfig.temporal())
        exact.identify(snippets)
        sketched = make_identifier(
            source_id, StoryPivotConfig.temporal(use_sketches=True)
        )
        sketched.identify(snippets)
        # sketching approximates candidate retrieval: story counts should be
        # in the same ballpark, and no snippet may be lost
        assert sketched.stories.num_snippets == exact.stories.num_snippets
        assert len(sketched.stories) <= 3 * max(1, len(exact.stories))

    def test_sketch_candidates_reduce_comparisons(self, small_synthetic):
        source_id = sorted(small_synthetic.sources)[0]
        snippets = small_synthetic.by_source(source_id)
        exact = make_identifier(source_id, StoryPivotConfig.complete())
        exact.identify(snippets)
        sketched = make_identifier(
            source_id, StoryPivotConfig.complete(use_sketches=True)
        )
        sketched.identify(snippets)
        assert sketched.stats.comparisons <= exact.stats.comparisons

    def test_sketch_removal_keeps_index_consistent(self):
        config = StoryPivotConfig.temporal(use_sketches=True)
        identifier = make_identifier("s1", config)
        identifier.add(crash("v1", "2014-07-17"))
        identifier.add(crash("v2", "2014-07-18"))
        identifier.remove("v1")
        story = identifier.add(crash("v3", "2014-07-19"))
        assert identifier.stories.num_snippets == 2
