"""Delta ``finish()`` equals from-scratch ``finish()``, bit for bit.

Everything the aligner and the refiner remember lives on instances, so a
pass in which every ``align`` is made by a brand-new ``StoryAligner`` and
every round by a brand-new ``StoryRefiner`` *is* the from-scratch result —
the oracle that incremental integration must equal ("Online Event
Integration with StoryPivot", arXiv:1610.07732).  Floats are compared
with ``==`` throughout.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import alignment as alignment_module
from repro.core import stories as stories_module
from repro.core.alignment import StoryAligner
from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.core.refinement import RefinementResult, StoryRefiner
from repro.eventdata.sourcegen import synthetic_corpus
from repro.sketch.story_sketch import StorySketch

SEEDS = (5, 18, 26)


@pytest.fixture(scope="module")
def corpora():
    return {
        seed: synthetic_corpus(total_events=60, num_sources=4, seed=seed)
        for seed in SEEDS
    }


def same_ids(monkeypatch, first_story=0):
    """Restart the id counters, so two passes mint the same ids."""
    monkeypatch.setattr(
        stories_module, "_story_counter", itertools.count(first_story)
    )
    monkeypatch.setattr(alignment_module, "_aligned_counter", itertools.count())


def identified(config, snippets, monkeypatch):
    same_ids(monkeypatch)
    pivot = StoryPivot(config)
    for snippet in snippets:
        pivot.add_snippet(snippet)
    return pivot


def restored(pivot):
    """A fresh pivot holding the same stories under the same ids (and the
    sources in the same order: integrated-story ids follow it)."""
    fresh = StoryPivot(pivot.config)
    for source_id, story_set in pivot.story_sets().items():
        for story in story_set:
            fresh.restore_story(source_id, story.story_id, story.snippets())
    return fresh


def trust_of(corpus):
    return {s.source_id: s.trust for s in corpus.sources.values()}


def from_scratch(pivot, trust):
    """``finish()`` with nothing remembered between any two steps."""
    config = pivot.config

    def fresh_aligner():
        aligner = StoryAligner(config)
        aligner.set_source_trust(trust)
        return aligner

    story_sets = pivot.story_sets()
    result = RefinementResult(alignment=fresh_aligner().align(story_sets))
    one_round = config.with_(max_refinement_rounds=1)
    for _ in range(config.max_refinement_rounds):
        step = StoryRefiner(one_round, aligner=fresh_aligner()).refine(
            story_sets, result.alignment
        )
        result.moves += step.moves
        result.rounds += 1
        result.conflicts_checked += step.conflicts_checked
        if not step.moves:
            break
        result.alignment = step.alignment
    return story_sets, result


def everything(story_sets, refinement):
    alignment = refinement.alignment
    return {
        "clusters": alignment.as_clusters(),
        "story_to_aligned": alignment.story_to_aligned,
        "links": alignment.links,  # in order; SnippetLink == compares the score
        "roles": list(alignment.roles.items()),
        "edge_scores": list(alignment.edge_scores.items()),
        "edges": alignment.stats.edges,
        "moves": refinement.moves,
        "evidence": [repr(move.evidence) for move in refinement.moves],
        "per_source": {s: ss.as_clusters() for s, ss in story_sets.items()},
        "conflicts_checked": refinement.conflicts_checked,
        "rounds": refinement.rounds,
    }


def assert_delta_equals_scratch(config, corpus, trust, monkeypatch):
    snippets = corpus.snippets_by_time()
    delta = identified(config, snippets, monkeypatch)
    delta.aligner.set_source_trust(trust)
    got = delta.finish()
    scratch = identified(config, snippets, monkeypatch)
    expected = everything(*from_scratch(scratch, trust))
    assert everything(got.story_sets, got.refinement) == expected
    return got


class TestDifferentialOracle:
    @pytest.mark.parametrize("trusted", (False, True), ids=("plain", "trust"))
    @pytest.mark.parametrize("sketches", (False, True), ids=("exact", "sketch"))
    @pytest.mark.parametrize("strategy", ("greedy", "optimal", "none"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_finish_equals_from_scratch(
        self, corpora, monkeypatch, seed, strategy, sketches, trusted
    ):
        config = StoryPivotConfig.temporal(
            alignment_strategy=strategy,
            use_sketches=sketches, minhash_permutations=16, lsh_bands=8,
            trust_weighted_alignment=trusted,
        )
        trust = trust_of(corpora[seed]) if trusted else {}
        got = assert_delta_equals_scratch(
            config, corpora[seed], trust, monkeypatch
        )
        # not vacuous: refinement moved snippets and later rounds kept votes
        assert got.refinement.num_moves > 0 and got.refinement.rounds > 1
        assert sum(got.refinement.votes_reused) > 0
        if strategy != "none":
            assert got.alignment.stats.story_pairs_reused > 0

    def test_temporal_weight_alone_clears_the_snippet_threshold(
        self, corpora, monkeypatch
    ):
        """Same-day snippets sharing nothing are links (alignment scores
        every in-window pair) yet not counterparts (votes need a shared
        feature): the stale rule must follow the vote predicate."""
        config = StoryPivotConfig.temporal(
            weights={"entity": 0.25, "term": 0.25, "temporal": 0.5},
            snippet_align_threshold=0.35,
        )
        got = assert_delta_equals_scratch(config, corpora[18], {}, monkeypatch)
        assert got.refinement.num_moves > 0

    def test_refined_alignment_keeps_source_trust(self, corpora):
        """Re-alignments after a move score with the trust the first had."""
        config = StoryPivotConfig.temporal(trust_weighted_alignment=True)
        result = StoryPivot(config).run(corpora[18])
        assert result.refinement.num_moves > 0
        trusted = StoryAligner(config)
        trusted.set_source_trust(trust_of(corpora[18]))
        expected = trusted.align(result.story_sets).edge_scores
        assert result.alignment.edge_scores == expected
        assert expected != StoryAligner(config).align(result.story_sets).edge_scores


class TestIdentityNotId:
    def test_restored_stories_under_the_same_ids_are_rescored(self, corpora):
        """Members, not identity and not id: every story below is a new
        object under an old id; only the two whose members changed are
        touched."""
        config = StoryPivotConfig.temporal()
        identified_once = StoryPivot(config)
        for snippet in corpora[26].snippets_by_time():
            identified_once.add_snippet(snippet)
        live = restored(identified_once)
        aligner = StoryAligner(config)
        first = aligner.align(live.story_sets())

        # the same ids and the same sizes, one snippet swapped
        source_id, story_set = sorted(live.story_sets().items())[0]
        one, other = [list(s.snippets()) for s in story_set.stories_by_size()[:2]]
        one[0], other[0] = other[0], one[0]
        swapped = dict(zip(
            [s.story_id for s in story_set.stories_by_size()[:2]], (one, other)
        ))
        rebuilt = StoryPivot(config)
        for source, stories in sorted(live.story_sets().items()):
            for story in stories:
                rebuilt.restore_story(
                    source, story.story_id,
                    swapped.get(story.story_id, story.snippets()),
                )
        for story_id in swapped:
            assert len(rebuilt.story_sets()[source_id].story(story_id)) == len(
                story_set.story(story_id)
            )

        again = aligner.align(rebuilt.story_sets())
        fresh = StoryAligner(config).align(rebuilt.story_sets())
        # every edge is carried but those of the two swapped stories, and
        # only pairs with one of those two were scored
        assert again.stats.story_pairs_reused == sum(
            1 for pair in first.edge_scores if not set(pair) & set(swapped)
        ) > 0
        assert 0 < again.stats.story_pairs_scored < fresh.stats.story_pairs_scored
        assert again.edge_scores == fresh.edge_scores
        assert again.links == fresh.links
        assert again.roles == fresh.roles
        assert sorted(map(sorted, again.as_clusters().values())) == sorted(
            map(sorted, fresh.as_clusters().values())
        )


class TestTickToTick:
    def test_a_long_lived_aligner_equals_a_fresh_one_at_every_tick(self, corpora):
        """``runtime.realign()`` keeps one aligner while identification
        extends, merges and splits the stories under it."""
        config = StoryPivotConfig.temporal()
        pivot = StoryPivot(config)
        aligner = StoryAligner(config)
        reused = 0
        for count, snippet in enumerate(corpora[18].snippets_by_publication(), 1):
            pivot.add_snippet(snippet)
            if count % 20:
                continue
            got = aligner.align(pivot.story_sets())
            fresh = StoryAligner(config).align(pivot.story_sets())
            assert got.edge_scores == fresh.edge_scores
            assert (got.links, got.roles) == (fresh.links, fresh.roles)
            assert got.stats.edges == fresh.stats.edges
            reused += got.stats.story_pairs_reused
        assert reused > 0


class TestFinishTwice:
    def test_second_finish_after_edits_equals_a_fresh_pivot(
        self, corpora, monkeypatch
    ):
        snippets = corpora[18].snippets_by_time()
        held_back, removed = snippets[-25:], snippets[10:40:3]
        pivot = identified(StoryPivotConfig.temporal(), snippets[:-25], monkeypatch)
        first = pivot.finish()
        assert first.refinement.num_moves > 0
        for snippet in held_back:
            pivot.add_snippet(snippet)
        for snippet in removed:
            pivot.remove_snippet(snippet.snippet_id)
        fresh = restored(pivot)

        same_ids(monkeypatch, first_story=10_000)
        second = pivot.finish()
        same_ids(monkeypatch, first_story=10_000)
        expected = fresh.finish()
        assert everything(second.story_sets, second.refinement) == everything(
            expected.story_sets, expected.refinement
        )
        # the first alignment of the second finish() diffed against the last
        # of the first; a fresh pivot's had nothing to diff against
        assert second.refinement.num_moves > 0


_adds = st.lists(
    st.tuples(
        st.floats(0.0, 1e9, allow_nan=False),
        st.lists(st.sampled_from("ABCDE"), max_size=4),
        st.lists(st.sampled_from("vwxyz"), max_size=5),
        st.booleans(),  # remove some earlier member afterwards?
    ),
    min_size=1, max_size=30,
)


class TestStorySketchBookkeeping:
    @given(_adds, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_span_and_masses_track_the_members(self, steps, rng):
        sketch = StorySketch()
        members = {}

        def check():
            assert sketch.entity_mass == sum(sketch.entity_counts.values())
            assert sketch.term_mass == sum(sketch.term_counts.values())
            assert sketch.entity_counts == _recount(members, 1)
            assert sketch.term_counts == _recount(members, 2)
            if members:
                stamps = [m[0] for m in members.values()]
                assert (sketch.start, sketch.end) == (min(stamps), max(stamps))
            else:
                with pytest.raises(ValueError):
                    sketch.start

        for number, (timestamp, entities, terms, remove) in enumerate(steps):
            members[f"v{number}"] = (timestamp, entities, terms)
            sketch.add(f"v{number}", timestamp, entities, terms)
            check()
            if remove:
                victim = rng.choice(sorted(members))
                del members[victim]
                sketch.remove(victim)
                check()


def _recount(members, field):
    counts = {}
    for member in members.values():
        for key in member[field]:
            counts[key] = counts.get(key, 0) + 1
    return counts
