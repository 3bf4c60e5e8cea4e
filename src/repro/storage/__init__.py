"""Storage substrate: the indexes per-source identification runs on.

Story identification needs, per source, (1) the snippets inside a temporal
window ``[t - ω, t + ω]`` (Figure 2b) and (2) candidate snippets sharing an
entity or term (to avoid scoring everything in the window).  Snippets are
partitioned by source (the ``V_i`` of Section 2.1) by
:class:`repro.core.pipeline.StoryPivot`, which keeps one identifier per
source.  Each identifier owns only the index its mode reads (see
:mod:`repro.core.identification`): :class:`InvertedIndex` serves complete
identification and :class:`TemporalIndex` temporal with sketches, with
dynamic insertion and removal (documents can be added/removed in the demo).
"""

from repro.storage.temporal_index import TemporalIndex
from repro.storage.inverted_index import InvertedIndex

__all__ = [
    "TemporalIndex",
    "InvertedIndex",
]
