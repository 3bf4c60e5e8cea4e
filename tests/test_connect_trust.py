"""Source trust levels and trust-weighted alignment confidence."""

import pytest

from repro.core.alignment import StoryAligner
from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.errors import ConfigurationError
from repro.eventdata.models import Source
from repro.eventdata.sourcegen import (
    ARCHETYPE_TRUST,
    PERSONAS,
    default_profiles,
    synthetic_corpus,
)


class TestSourceTrust:
    def test_default_is_neutral(self):
        assert Source("s1", "S One").trust == 5

    def test_validated_range(self):
        with pytest.raises(ValueError):
            Source("s1", "S One", trust=11)
        with pytest.raises(ValueError):
            Source("s1", "S One", trust=-1)

    def test_jsonl_roundtrip_preserves_trust(self):
        corpus = synthetic_corpus(total_events=20, num_sources=3, seed=4)
        from repro.eventdata.corpus import Corpus

        restored = Corpus.from_jsonl(corpus.to_jsonl())
        for source_id, source in corpus.sources.items():
            assert restored.sources[source_id].trust == source.trust


class TestProfiles:
    def test_archetype_trust_assigned(self):
        for profile in default_profiles(10, seed=13):
            assert profile.trust_level == ARCHETYPE_TRUST[profile.kind]
            assert profile.persona in PERSONAS[profile.kind]

    def test_personas_rotate_within_archetype(self):
        profiles = default_profiles(12, seed=13)
        newspapers = [p for p in profiles if p.kind == "newspaper"]
        assert len({p.persona for p in newspapers}) > 1

    def test_trust_level_validated(self):
        with pytest.raises(ConfigurationError):
            default_profiles(1)[0].__class__(
                source_id="x", name="X", trust_level=99
            )

    def test_to_source_carries_trust(self):
        profile = default_profiles(2, seed=13)[1]  # a wire service
        assert profile.to_source().trust == ARCHETYPE_TRUST["wire"]


class TestTrustWeighting:
    def corpus(self):
        return synthetic_corpus(total_events=60, num_sources=5, seed=7)

    def test_knob_off_ignores_installed_trust(self):
        corpus = self.corpus()
        result = StoryPivot(StoryPivotConfig()).run(corpus)
        stories = [
            s for ss in result.story_sets.values() for s in ss if len(s) > 0
        ]
        a = stories[0]
        b = next(s for s in stories if s.source_id != a.source_id)
        plain = StoryAligner(StoryPivotConfig())
        weighted_off = StoryAligner(StoryPivotConfig())
        weighted_off.set_source_trust({a.source_id: 10, b.source_id: 10})
        assert weighted_off.story_pair_score(a, b) == pytest.approx(
            plain.story_pair_score(a, b)
        )

    def test_pipeline_installs_corpus_trust_when_enabled(self):
        corpus = self.corpus()
        pivot = StoryPivot(StoryPivotConfig(trust_weighted_alignment=True))
        pivot.run(corpus)
        installed = pivot.aligner._source_trust
        assert installed == {
            s.source_id: s.trust for s in corpus.sources.values()
        }
        untouched = StoryPivot(StoryPivotConfig())
        untouched.run(corpus)
        assert untouched.aligner._source_trust == {}

    def test_factor_neutral_at_default_trust(self):
        aligner = StoryAligner(
            StoryPivotConfig(trust_weighted_alignment=True)
        )
        # no trust installed: every source scores as the neutral 5
        corpus = self.corpus()
        result = StoryPivot(StoryPivotConfig()).run(corpus)
        stories = [
            s for ss in result.story_sets.values() for s in ss
            if len(s) > 0
        ]
        a, b = stories[0], next(
            s for s in stories if s.source_id != stories[0].source_id
        )
        plain = StoryAligner(StoryPivotConfig())
        assert aligner.story_pair_score(a, b) == pytest.approx(
            plain.story_pair_score(a, b)
        )

    def test_factor_scales_with_installed_trust(self):
        config = StoryPivotConfig(trust_weighted_alignment=True)
        corpus = self.corpus()
        result = StoryPivot(StoryPivotConfig()).run(corpus)
        stories = [
            s for ss in result.story_sets.values() for s in ss
            if len(s) > 0
        ]
        a = stories[0]
        b = next(
            s for s in stories if s.source_id != a.source_id
        )
        plain = StoryAligner(StoryPivotConfig()).story_pair_score(a, b)
        high = StoryAligner(config)
        high.set_source_trust({a.source_id: 10, b.source_id: 10})
        low = StoryAligner(config)
        low.set_source_trust({a.source_id: 0, b.source_id: 0})
        assert high.story_pair_score(a, b) == pytest.approx(
            min(1.0, plain * 1.25)
        )
        assert low.story_pair_score(a, b) == pytest.approx(plain * 0.75)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_edge_scores_are_story_pair_score(self, weighted):
        """Every stored edge score is what ``story_pair_score`` gives the
        pair, after the first alignment and after refinement re-aligns."""
        corpus = self.corpus()
        pivot = StoryPivot(
            StoryPivotConfig.temporal(trust_weighted_alignment=weighted)
        )
        for snippet in corpus.snippets_by_time():
            pivot.add_snippet(snippet)
        aligner, story_sets = pivot.aligner, pivot.story_sets()
        aligner.set_source_trust({
            source_id: 3 * i % 11 for i, source_id in enumerate(story_sets)
        })

        def check(alignment):
            stories = {s.story_id: s for ss in story_sets.values() for s in ss}
            assert alignment.edge_scores
            for (id_a, id_b), score in alignment.edge_scores.items():
                assert score == aligner.story_pair_score(
                    stories[id_a], stories[id_b]
                )

        alignment = aligner.align(story_sets)
        check(alignment)
        refinement = pivot.refiner.refine(story_sets, alignment)
        assert len(refinement.passes) > 1  # refinement re-aligned
        check(refinement.alignment)

    def test_score_stays_capped_at_one(self):
        config = StoryPivotConfig(trust_weighted_alignment=True)
        corpus = self.corpus()
        result = StoryPivot(config).run(corpus)
        for score in result.alignment.edge_scores.values():
            assert 0.0 <= score <= 1.0
