"""Storage substrate: the indexes per-source identification runs on.

Story identification needs, per source, (1) the snippets inside a temporal
window ``[t - ω, t + ω]`` (Figure 2b) and (2) candidate snippets sharing an
entity or term (to avoid scoring everything in the window).  Snippets are
partitioned by source (the ``V_i`` of Section 2.1) by
:class:`repro.core.pipeline.StoryPivot`, which keeps one identifier per
source; each identifier owns a :class:`TemporalIndex` and one
:class:`InvertedIndex` each for entities and for the terms of
:func:`repro.storage.event_store.match_terms`, with full support for
dynamic insertion and removal (documents can be added/removed in the demo).
"""

from repro.storage.temporal_index import TemporalIndex
from repro.storage.inverted_index import InvertedIndex

__all__ = [
    "TemporalIndex",
    "InvertedIndex",
]
