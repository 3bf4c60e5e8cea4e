"""Configuration for the StoryPivot pipeline.

One dataclass carries every knob of both phases so that the demo can
"combine the implemented methods on the fly" (Section 4.1) by swapping a
config.  Values are validated eagerly; the defaults are the ones used by
the examples and reproduce the paper's qualitative results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.errors import ConfigurationError
from repro.eventdata.models import DAY

#: identification execution modes (Figure 2 + the single-pass baseline the
#: paper contrasts with, Allan et al. 1998).
IDENTIFICATION_MODES = ("temporal", "complete", "single_pass")

#: alignment matching strategies.
ALIGNMENT_STRATEGIES = ("greedy", "optimal", "none")


@dataclass
class StoryPivotConfig:
    """All parameters of identification, alignment and refinement."""

    # -- identification (Section 2.2) ----------------------------------
    identification_mode: str = "temporal"
    window: float = 14 * DAY  # ω — the sliding-window radius of Fig. 2b
    match_threshold: float = 0.48  # min snippet→story score to join
    merge_threshold: float = 0.62  # bridge score at which two stories merge
    split_gap: float = 45 * DAY  # internal silence that splits a story
    enable_merge: bool = True
    enable_split: bool = True
    decay_half_life: float = 14 * DAY  # profile decay in temporal mode
    weights: Dict[str, float] = field(
        default_factory=lambda: {"entity": 0.45, "term": 0.45, "temporal": 0.10}
    )

    # -- sketches (Section 2.4) -------------------------------------------
    use_sketches: bool = False  # MinHash/LSH fast path for candidates
    minhash_permutations: int = 64
    lsh_bands: int = 32
    sketch_candidate_floor: float = 0.05  # min estimated sim to consider

    # -- alignment (Section 2.3) ------------------------------------------
    alignment_strategy: str = "greedy"
    align_threshold: float = 0.30  # min story–story score to align
    alignment_tolerance: float = 2.0  # temporal slack, in multiples of ω
    snippet_align_threshold: float = 0.35  # snippet counterpart similarity
    snippet_align_tolerance: float = 7 * DAY  # counterpart time slack
    trust_weighted_alignment: bool = False  # scale scores by source trust

    # -- refinement (Section 2.3, Figure 1d) ----------------------------
    enable_refinement: bool = True
    refinement_margin: float = 0.10  # evidence margin to move a snippet
    max_refinement_rounds: int = 3

    def __post_init__(self) -> None:
        if self.identification_mode not in IDENTIFICATION_MODES:
            raise ConfigurationError(
                f"identification_mode must be one of {IDENTIFICATION_MODES}, "
                f"got {self.identification_mode!r}"
            )
        if self.alignment_strategy not in ALIGNMENT_STRATEGIES:
            raise ConfigurationError(
                f"alignment_strategy must be one of {ALIGNMENT_STRATEGIES}, "
                f"got {self.alignment_strategy!r}"
            )
        if self.window <= 0:
            raise ConfigurationError("window must be positive")
        for name in ("match_threshold", "merge_threshold", "align_threshold",
                     "snippet_align_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.merge_threshold < self.match_threshold:
            raise ConfigurationError(
                "merge_threshold must be >= match_threshold"
            )
        if self.decay_half_life <= 0:
            raise ConfigurationError("decay_half_life must be positive")
        if not self.weights:
            raise ConfigurationError("weights must be non-empty")
        if any(w < 0 for w in self.weights.values()) or sum(self.weights.values()) <= 0:
            raise ConfigurationError("weights must be non-negative, sum > 0")
        if self.minhash_permutations % self.lsh_bands != 0:
            raise ConfigurationError(
                "minhash_permutations must be divisible by lsh_bands"
            )
        if self.alignment_tolerance < 0:
            raise ConfigurationError("alignment_tolerance must be non-negative")
        if self.max_refinement_rounds < 0:
            raise ConfigurationError("max_refinement_rounds must be >= 0")

    # -- presets ------------------------------------------------------------

    @classmethod
    def temporal(cls, **overrides) -> "StoryPivotConfig":
        """The paper's recommended temporal mode (Figure 2b)."""
        return cls(identification_mode="temporal", **overrides)

    @classmethod
    def complete(cls, **overrides) -> "StoryPivotConfig":
        """The complete-matching baseline (Figure 2a)."""
        overrides.setdefault("decay_half_life", 3650 * DAY)  # effectively none
        return cls(identification_mode="complete", **overrides)

    @classmethod
    def single_pass(cls, **overrides) -> "StoryPivotConfig":
        """Single-pass on-line event detection baseline (no merge/split)."""
        overrides.setdefault("enable_merge", False)
        overrides.setdefault("enable_split", False)
        return cls(identification_mode="single_pass", **overrides)

    @classmethod
    def preset(cls, mode: str, **overrides) -> "StoryPivotConfig":
        """The preset for an identification ``mode`` (one of
        :data:`IDENTIFICATION_MODES`) — the selector every CLI and the
        experiment harness share."""
        if mode not in IDENTIFICATION_MODES:
            raise ConfigurationError(
                f"identification mode must be one of {IDENTIFICATION_MODES}, "
                f"got {mode!r}"
            )
        return getattr(cls, mode)(**overrides)

    def with_(self, **overrides) -> "StoryPivotConfig":
        """A modified copy (validated)."""
        return replace(self, **overrides)
