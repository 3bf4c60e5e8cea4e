"""StoryPivot reproduction: comparing and contrasting story evolution.

A full reimplementation of the system demonstrated in "StoryPivot:
Comparing and Contrasting Story Evolution" (SIGMOD 2015): per-source story
identification (temporal sliding-window and complete matching), cross-source
story alignment, story refinement, sketch-accelerated similarity, streaming
integration, synthetic GDELT/EventRegistry-style workloads with ground
truth, and the demo's exploration modules.

The package root re-exports the paper's pipeline only; the serving stack
(``repro.runtime``, ``repro.server``, ...) and the analyst packages are
imported from their own modules.

Quickstart::

    from repro import StoryPivot, StoryPivotConfig, mh17_corpus

    pivot = StoryPivot(StoryPivotConfig.temporal())
    result = pivot.run(mh17_corpus())
    for aligned in result.alignment.aligned.values():
        print(aligned.aligned_id, aligned.source_ids, len(aligned))
"""

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import PivotResult, StoryPivot
from repro.core.stories import Story, StorySet
from repro.core.identification import (
    CompleteIdentifier,
    SinglePassIdentifier,
    TemporalIdentifier,
    make_identifier,
)
from repro.core.alignment import AlignedStory, Alignment, StoryAligner
from repro.core.refinement import StoryRefiner
from repro.core.streaming import StreamProcessor, replay_out_of_order
from repro.eventdata.corpus import Corpus, GroundTruth
from repro.eventdata.models import Document, Snippet, Source
from repro.eventdata.handcrafted import mh17_corpus
from repro.eventdata.sourcegen import SourceSimulator, default_profiles, synthetic_corpus
from repro.eventdata.worldgen import WorldConfig, WorldGenerator
from repro.evaluation.metrics import pairwise_scores

__version__ = "1.0.0"

__all__ = [
    "StoryPivot",
    "StoryPivotConfig",
    "PivotResult",
    "Story",
    "StorySet",
    "TemporalIdentifier",
    "CompleteIdentifier",
    "SinglePassIdentifier",
    "make_identifier",
    "StoryAligner",
    "Alignment",
    "AlignedStory",
    "StoryRefiner",
    "StreamProcessor",
    "replay_out_of_order",
    "Corpus",
    "GroundTruth",
    "Snippet",
    "Document",
    "Source",
    "mh17_corpus",
    "synthetic_corpus",
    "SourceSimulator",
    "default_profiles",
    "WorldConfig",
    "WorldGenerator",
    "pairwise_scores",
    "__version__",
]
