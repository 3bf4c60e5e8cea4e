"""Tests for the bootstrap significance test of F1 comparisons."""

import pytest

from repro.evaluation.significance import bootstrap_f1_comparison


class TestBootstrap:
    TRUTH = {f"v{i}": f"w{i % 4}" for i in range(24)}

    @staticmethod
    def perfect_clusters(truth):
        clusters = {}
        for snippet_id, label in truth.items():
            clusters.setdefault(label, set()).add(snippet_id)
        return clusters

    def test_clear_winner_is_significant(self):
        perfect = self.perfect_clusters(self.TRUTH)
        one_blob = {"all": set(self.TRUTH)}
        comparison = bootstrap_f1_comparison(perfect, one_blob, self.TRUTH,
                                             replicates=200)
        assert comparison.mean_difference > 0
        assert comparison.p_a_beats_b > 0.9
        assert comparison.significant
        assert comparison.ci_low <= comparison.mean_difference <= comparison.ci_high

    def test_identical_systems_not_significant(self):
        perfect = self.perfect_clusters(self.TRUTH)
        comparison = bootstrap_f1_comparison(perfect, dict(perfect),
                                             self.TRUTH, replicates=100)
        assert comparison.mean_difference == pytest.approx(0.0)
        assert not comparison.significant

    def test_deterministic_for_seed(self):
        perfect = self.perfect_clusters(self.TRUTH)
        blob = {"all": set(self.TRUTH)}
        a = bootstrap_f1_comparison(perfect, blob, self.TRUTH,
                                    replicates=50, seed=3)
        b = bootstrap_f1_comparison(perfect, blob, self.TRUTH,
                                    replicates=50, seed=3)
        assert a == b

    def test_validation(self):
        perfect = self.perfect_clusters(self.TRUTH)
        with pytest.raises(ValueError):
            bootstrap_f1_comparison(perfect, perfect, self.TRUTH, replicates=0)
        with pytest.raises(ValueError):
            bootstrap_f1_comparison(perfect, perfect, self.TRUTH,
                                    confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_f1_comparison(perfect, perfect, {})

    def test_temporal_vs_complete_on_synthetic(self, medium_synthetic):
        """End-to-end: the bootstrap runs on real pipeline outputs."""
        from repro.core.pipeline import StoryPivot
        from repro.core.config import StoryPivotConfig

        temporal = StoryPivot(StoryPivotConfig.temporal()).run(medium_synthetic)
        complete = StoryPivot(StoryPivotConfig.complete()).run(medium_synthetic)
        comparison = bootstrap_f1_comparison(
            temporal.global_clusters(), complete.global_clusters(),
            medium_synthetic.truth.labels, replicates=60,
        )
        assert 0.0 <= comparison.p_a_beats_b <= 1.0
        assert comparison.replicates == 60
