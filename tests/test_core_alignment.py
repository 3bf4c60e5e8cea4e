"""Tests for story alignment across sources."""

import dataclasses
import itertools
import random

import pytest

from repro.core.alignment import StoryAligner
from repro.core.config import StoryPivotConfig
from repro.core.identification import make_identifier
from repro.core.stories import StorySet
from repro.errors import AlignmentError
from repro.eventdata.models import DAY
from repro.sketch.minhash import MinHash
from tests.conftest import make_snippet


def build_story_set(source_id, groups):
    """groups: list of lists of snippets → a StorySet with one story each."""
    story_set = StorySet(source_id)
    for snippets in groups:
        story = story_set.new_story()
        for snippet in snippets:
            story_set.assign(snippet, story)
    return story_set


def crash(snippet_id, source_id, date):
    return make_snippet(snippet_id, source_id=source_id, date=date,
                        description="plane crash missile",
                        entities=("UKR", "MAS"),
                        keywords=("crash", "plane", "missile"))


def vote(snippet_id, source_id, date):
    return make_snippet(snippet_id, source_id=source_id, date=date,
                        description="election ballot result",
                        entities=("FRA", "EU"),
                        keywords=("election", "ballot"))


@pytest.fixture
def aligner():
    return StoryAligner(StoryPivotConfig())


@pytest.fixture
def two_sources():
    set_a = build_story_set("a", [
        [crash("a:1", "a", "2014-07-17"), crash("a:2", "a", "2014-07-19")],
        [vote("a:3", "a", "2014-07-20")],
    ])
    set_b = build_story_set("b", [
        [crash("b:1", "b", "2014-07-17")],
        [vote("b:2", "b", "2014-07-21")],
    ])
    return {"a": set_a, "b": set_b}


class TestStoryPairScore:
    def test_same_story_high(self, aligner, two_sources):
        story_a = two_sources["a"].stories_by_size()[0]
        story_b = two_sources["b"].story_of("b:1")
        # weighted-Jaccard profiles discount the size mismatch (2 vs 1
        # snippets → 0.5 per content channel), still well above threshold
        assert aligner.story_pair_score(story_a, story_b) > 0.5

    def test_different_story_low(self, aligner, two_sources):
        story_a = two_sources["a"].stories_by_size()[0]  # crash
        story_b = two_sources["b"].story_of("b:2")  # vote
        assert aligner.story_pair_score(story_a, story_b) < 0.3

    def test_temporal_gap_penalizes(self, aligner):
        early = build_story_set("a", [[crash("a:1", "a", "2014-01-01")]])
        late = build_story_set("b", [[crash("b:1", "b", "2014-12-01")]])
        score = aligner.story_pair_score(
            early.story_of("a:1"), late.story_of("b:1")
        )
        close = build_story_set("b", [[crash("b:2", "b", "2014-01-02")]])
        close_score = aligner.story_pair_score(
            early.story_of("a:1"), close.story_of("b:2")
        )
        assert score < close_score


class TestAlign:
    def test_matching_stories_integrate(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        crash_aligned = alignment.aligned_of_snippet("a:1")
        assert set(crash_aligned.source_ids) == {"a", "b"}
        assert {s.snippet_id for s in crash_aligned.snippets()} == {
            "a:1", "a:2", "b:1",
        }

    def test_unaligned_stories_survive_as_singletons(self, aligner):
        """Section 2.3: single-source stories stay in the result set."""
        sets = {
            "a": build_story_set("a", [[crash("a:1", "a", "2014-07-17")]]),
            "b": build_story_set("b", [[vote("b:1", "b", "2014-07-17")]]),
        }
        alignment = aligner.align(sets)
        assert len(alignment) == 2
        assert len(alignment.singleton_stories()) == 2
        assert len(alignment.cross_source_stories()) == 0

    def test_every_story_appears_exactly_once(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        all_story_ids = [
            story.story_id
            for aligned in alignment.aligned.values()
            for story in aligned.stories
        ]
        assert len(all_story_ids) == len(set(all_story_ids))
        expected = {s.story_id for ss in two_sources.values() for s in ss}
        assert set(all_story_ids) == expected

    def test_empty_input(self, aligner):
        alignment = aligner.align({})
        assert len(alignment) == 0

    def test_none_strategy_aligns_nothing(self, two_sources):
        aligner = StoryAligner(StoryPivotConfig(alignment_strategy="none"))
        alignment = aligner.align(two_sources)
        assert len(alignment.cross_source_stories()) == 0
        assert len(alignment) == 4  # every story is its own singleton

    def test_same_source_stories_never_align_directly(self, aligner):
        sets = {"a": build_story_set("a", [
            [crash("a:1", "a", "2014-07-17")],
            [crash("a:2", "a", "2014-07-18")],
        ])}
        alignment = aligner.align(sets)
        # no cross-source evidence: both stay separate singletons
        assert len(alignment) == 2

    def test_aligned_story_profiles(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        aligned = alignment.aligned_of_snippet("a:1")
        entities = dict(aligned.top_entities(5))
        assert entities.get("UKR") == 3  # 3 crash snippets mention UKR
        start, end = aligned.date_range()
        assert start == "Jul 17, 2014"

    def test_edge_scores_recorded(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        assert alignment.stats.edges >= 1
        for score in alignment.edge_scores.values():
            assert score >= aligner.config.align_threshold


class TestOptimalStrategy:
    def test_one_to_one_constraint(self):
        """With 'optimal', a story may align to at most one per source."""
        config = StoryPivotConfig(alignment_strategy="optimal",
                                  align_threshold=0.2)
        aligner = StoryAligner(config)
        sets = {
            "a": build_story_set("a", [[crash("a:1", "a", "2014-07-17")]]),
            "b": build_story_set("b", [
                [crash("b:1", "b", "2014-07-17")],
                [crash("b:2", "b", "2014-07-18")],
            ]),
        }
        alignment = aligner.align(sets)
        aligned = alignment.aligned_of_snippet("a:1")
        b_members = [s for s in aligned.stories if s.source_id == "b"]
        assert len(b_members) == 1

    def test_greedy_can_chain_transitively(self):
        config = StoryPivotConfig(alignment_strategy="greedy",
                                  align_threshold=0.2)
        aligner = StoryAligner(config)
        sets = {
            "a": build_story_set("a", [[crash("a:1", "a", "2014-07-17")]]),
            "b": build_story_set("b", [
                [crash("b:1", "b", "2014-07-17")],
                [crash("b:2", "b", "2014-07-18")],
            ]),
        }
        alignment = aligner.align(sets)
        aligned = alignment.aligned_of_snippet("a:1")
        assert len(aligned.stories) == 3  # union of all matching stories


class TestSnippetRoles:
    def test_counterpart_snippets_are_aligning(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        assert alignment.role("a:1") == "aligning"
        assert alignment.role("b:1") == "aligning"

    def test_source_exclusive_snippet_is_enriching(self, aligner):
        enrich = make_snippet("a:extra", source_id="a", date="2014-07-25",
                              description="crash families background report",
                              entities=("UKR", "NTH"),
                              keywords=("families", "background"))
        sets = {
            "a": build_story_set("a", [
                [crash("a:1", "a", "2014-07-17"), enrich],
            ]),
            "b": build_story_set("b", [[crash("b:1", "b", "2014-07-17")]]),
        }
        alignment = aligner.align(sets)
        assert alignment.role("a:1") == "aligning"
        assert alignment.role("a:extra") == "enriching"

    def test_counterparts_listed(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        counterparts = alignment.counterparts("a:1")
        assert any(cid == "b:1" for cid, _ in counterparts)

    def test_role_defaults_enriching_for_unknown(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        assert alignment.role("zzz") == "enriching"


class TestExtend:
    def test_new_source_attaches_to_existing_story(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        before = len(alignment)
        new_set = build_story_set("c", [[crash("c:1", "c", "2014-07-18")]])
        aligner.extend(alignment, new_set)
        aligned = alignment.aligned_of_snippet("c:1")
        assert "a" in aligned.source_ids or "b" in aligned.source_ids
        assert len(alignment) == before

    def test_new_source_with_novel_story_founds_new(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        before = len(alignment)
        novel = make_snippet("c:1", source_id="c", date="2014-07-18",
                             description="volcano eruption ash",
                             entities=("IDN",), keywords=("volcano", "ash"))
        aligner.extend(alignment, build_story_set("c", [[novel]]))
        assert len(alignment) == before + 1

    def test_aligned_of_unknown_story_raises(self, aligner, two_sources):
        alignment = aligner.align(two_sources)
        with pytest.raises(AlignmentError):
            alignment.aligned_of("nope")
        with pytest.raises(AlignmentError):
            alignment.aligned_of_snippet("nope")


class TestEndToEndWithIdentification:
    def test_identify_then_align(self, two_source_corpus):
        config = StoryPivotConfig(match_threshold=0.40, merge_threshold=0.62)
        sets = {}
        for source_id, snippets in two_source_corpus.source_partition().items():
            identifier = make_identifier(source_id, config)
            sets[source_id] = identifier.identify(snippets)
        alignment = StoryAligner(config).align(sets)
        flood = alignment.aligned_of_snippet("a:1")
        assert {s.snippet_id for s in flood.snippets()} == {"a:1", "a:2", "b:1"}
        election = alignment.aligned_of_snippet("a:3")
        assert {s.snippet_id for s in election.snippets()} == {"a:3", "b:2"}


def random_story_sets(seed, minhash=None):
    """3–5 sources of stories over a small entity/term vocabulary, on a
    7-day grid so that some spans lie exactly 3× the default alignment
    tolerance (84 days) apart; each source also holds one empty story."""
    rng = random.Random(seed)
    entities = [f"E{i}" for i in range(14)]
    words = [f"word{i}" for i in range(16)]
    sets, serial = {}, 0
    for source_index in range(rng.randint(3, 5)):
        source_id = f"s{source_index}"
        story_set = StorySet(source_id, minhash=minhash)
        story_set.new_story()
        for _ in range(rng.randint(2, 6)):
            story, center = story_set.new_story(), rng.randrange(0, 40, 3)
            for _ in range(rng.randint(1, 4)):
                serial += 1
                snippet = make_snippet(
                    f"{source_id}:{serial}", source_id=source_id,
                    description=" ".join(rng.sample(words, 2)),
                    entities=rng.sample(entities, 3),
                    keywords=rng.sample(words, 2),
                )
                day = center + rng.randint(0, 2)
                snippet = dataclasses.replace(
                    snippet, timestamp=day * 7 * DAY, published=None
                )
                story_set.assign(snippet, story)
        sets[source_id] = story_set
    return sets


def brute_force_pairs(config, stories, touched):
    """Every cross-source pair, at least one side touched, sharing a top-8
    entity or top-10 term, at most 3× the tolerance apart, over the
    sketch floor when both stories carry a signature."""
    tolerance = max(1.0, config.alignment_tolerance * config.window)
    pairs = []
    for id_a, id_b in itertools.combinations(sorted(stories), 2):
        a, b = stories[id_a], stories[id_b]
        if a.source_id == b.source_id or not {id_a, id_b} & touched:
            continue
        shares = (
            {e for e, _ in a.sketch.top_entities(8)}
            & {e for e, _ in b.sketch.top_entities(8)}
            or {t for t, _ in a.sketch.top_terms(10)}
            & {t for t, _ in b.sketch.top_terms(10)}
        )
        if not shares:
            continue
        if max(0.0, max(a.start, b.start) - min(a.end, b.end)) > 3 * tolerance:
            continue
        sig_a, sig_b = a.sketch.signature, b.sketch.signature
        if (sig_a is not None and sig_b is not None
                and sig_a.similarity(sig_b) < config.sketch_candidate_floor):
            continue
        pairs.append((id_a, id_b))
    return pairs


class TestCandidatePairs:
    """``_candidate_pairs`` against a brute-force scan of every pair."""

    @pytest.mark.parametrize("sketches", [False, True])
    def test_equals_brute_force(self, sketches):
        config = StoryPivotConfig(
            use_sketches=sketches, sketch_candidate_floor=0.3
        )
        minhash = MinHash(config.minhash_permutations) if sketches else None
        at_bound = pruned = 0
        for seed in range(30):
            sets = random_story_sets(seed, minhash)
            stories = {s.story_id: s for ss in sets.values() for s in ss}
            aligner = StoryAligner(config)
            seen, _ = aligner._diff(stories)
            rng = random.Random(seed)
            for touched in (set(), set(stories),
                            set(rng.sample(sorted(stories), 3))):
                got = aligner._candidate_pairs(stories, seen, touched)
                assert got == brute_force_pairs(config, stories, touched)
            for a, b in itertools.combinations(stories.values(), 2):
                if len(a) and len(b) and a.source_id != b.source_id:
                    gap = max(a.start, b.start) - min(a.end, b.end)
                    at_bound += gap == 3 * aligner._tolerance
            unfloored = dataclasses.replace(config, sketch_candidate_floor=0.0)
            pruned += len(brute_force_pairs(unfloored, stories, set(stories))) \
                - len(brute_force_pairs(config, stories, set(stories)))
        assert at_bound  # the gap bound is exercised at equality
        assert bool(pruned) == sketches  # the floor prunes only with sketches
