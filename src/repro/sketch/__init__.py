"""Sketching substrate.

Section 2.4 proposes abstracting snippets and stories into a common
*sketch* — "a (smaller) unified representation ... that allows for fast and
efficient similarity comparisons" — citing Muthukrishnan's data-streams
monograph.  This package implements the classical MinHash sketch, the
composite, time-decayed :class:`~repro.sketch.story_sketch.StorySketch`
the matchers use, and an LSH index for sub-linear candidate retrieval.
"""

from repro.sketch.minhash import MinHash, MinHashSignature
from repro.sketch.lsh import LshIndex
from repro.sketch.story_sketch import StorySketch

__all__ = [
    "MinHash",
    "MinHashSignature",
    "LshIndex",
    "StorySketch",
]
