"""Tests for StoryPivotConfig."""

import pytest

from repro.core.config import StoryPivotConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_valid(self):
        StoryPivotConfig()

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(identification_mode="magic")

    def test_bad_strategy(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(alignment_strategy="magic")

    def test_nonpositive_window(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(window=0)

    def test_threshold_ranges(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(match_threshold=1.5)
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(align_threshold=-0.1)

    def test_merge_below_match_rejected(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(match_threshold=0.6, merge_threshold=0.5)

    def test_weights_validation(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(weights={})
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(weights={"entity": -1.0})
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(weights={"entity": 0.0})

    def test_minhash_band_divisibility(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(minhash_permutations=60, lsh_bands=16)

    def test_negative_tolerance(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(alignment_tolerance=-1.0)

    def test_negative_rounds(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(max_refinement_rounds=-1)

    def test_bad_half_life(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig(decay_half_life=0)


class TestPresets:
    def test_temporal(self):
        assert StoryPivotConfig.temporal().identification_mode == "temporal"

    def test_complete_disables_decay(self):
        config = StoryPivotConfig.complete()
        assert config.identification_mode == "complete"
        assert config.decay_half_life > 365 * 86400

    def test_single_pass_disables_repair(self):
        config = StoryPivotConfig.single_pass()
        assert not config.enable_merge
        assert not config.enable_split

    def test_preset_overrides(self):
        config = StoryPivotConfig.temporal(match_threshold=0.5)
        assert config.match_threshold == 0.5

    @pytest.mark.parametrize("mode", ["temporal", "complete", "single_pass"])
    def test_preset_by_mode_matches_named_preset(self, mode):
        named = getattr(StoryPivotConfig, mode)(window=86400.0)
        assert StoryPivotConfig.preset(mode, window=86400.0) == named

    @pytest.mark.parametrize("mode", ["bogus", "with_", "preset", ""])
    def test_preset_unknown_mode_raises(self, mode):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig.preset(mode)

    def test_with_copies(self):
        base = StoryPivotConfig()
        changed = base.with_(window=86400.0)
        assert changed.window == 86400.0
        assert base.window != changed.window

    def test_with_validates(self):
        with pytest.raises(ConfigurationError):
            StoryPivotConfig().with_(match_threshold=2.0)
