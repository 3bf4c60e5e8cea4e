"""Similarity scoring between snippets, stories and sketches.

Section 2.2: "If a snippet is sufficiently similar to any other candidate
snippets they may be part of the same story."  Similarity combines three
channels — entity overlap, term similarity and temporal proximity — with
configurable weights.  The *temporal* execution mode scores a snippet
against a story's time-decayed profile (what the story is about *around the
snippet's time*); the *complete* mode scores against the undecayed
whole-history profile (Figure 2a), which is exactly what makes it overfit
evolving stories.
"""

from __future__ import annotations

import math
from typing import AbstractSet, FrozenSet, Mapping, Optional, Tuple

from repro.core.config import StoryPivotConfig
from repro.core.stories import Story
from repro.eventdata.models import Snippet
from repro.sketch.story_sketch import StorySketch
from repro.storage.event_store import match_terms
from repro.text.similarity import (
    combine_weighted,
    temporal_proximity,
    weighted_jaccard,
)


def snippet_features(snippet: Snippet) -> Tuple[frozenset, frozenset]:
    """(entities, stemmed terms) — the match features of one snippet, as sets.

    The term set is built on every call and stored nowhere: a snippet
    holds its features once, as ``entities`` and the :func:`match_terms`
    tuple.  Scorers build one term set per arriving snippet and read the
    other side's tuple.
    """
    return snippet.entities, frozenset(match_terms(snippet))


#: where ``snippet_score`` puts each channel; any other name reads the 0.0
_CHANNELS = {"entity": 0, "term": 1, "temporal": 2}


class SnippetMatcher:
    """Scores snippet–snippet and snippet–story similarity per the config
    (which must not change afterwards)."""

    def __init__(self, config: Optional[StoryPivotConfig] = None) -> None:
        self.config = config if config is not None else StoryPivotConfig()
        weights = self.config.weights
        self._total_weight = sum(weights.values())
        self._weighted = [(w, _CHANNELS.get(name, 3)) for name, w in weights.items()]

    # -- snippet vs snippet ------------------------------------------------

    def snippet_score(self, a: Snippet, b: Snippet) -> float:
        """Pairwise similarity of two snippets in [0, 1], symmetric."""
        terms = frozenset(match_terms(a))
        return self.prepared_score(a.entities, terms, a.timestamp, b)

    def prepared_score(
        self, entities: AbstractSet[str], terms: FrozenSet[str],
        timestamp: float, other: Snippet,
    ) -> float:
        """:meth:`snippet_score` of a snippet with these features (its
        terms as a set) against ``other``, whose term tuple is read as it
        is: a caller scoring one snippet against many builds one set.

        ``combine_weighted`` over ``overlap_coefficient`` (entities),
        ``jaccard_similarity`` (terms) and ``temporal_proximity``, inlined:
        alignment's and refinement's hottest call builds no dict.  The same
        products through builtin ``sum`` in the same order: the same float.
        """
        other_entities, other_terms = other.entities, match_terms(other)
        entity = term = 0.0
        if entities and other_entities:
            smaller = min(len(entities), len(other_entities))
            entity = len(entities & other_entities) / smaller
        if terms and other_terms:  # a term tuple holds no repeats
            shared = len(terms.intersection(other_terms))
            term = shared / (len(terms) + len(other_terms) - shared)
        proximity = math.exp(-abs(timestamp - other.timestamp) / self.config.window)
        channels = (entity, term, proximity, 0.0)
        return sum([w * channels[at] for w, at in self._weighted]) / self._total_weight

    # -- snippet vs story ----------------------------------------------------

    def story_score(
        self,
        snippet: Snippet,
        story: Story,
        at_time: Optional[float] = None,
        decayed: Optional[bool] = None,
        terms: Optional[FrozenSet[str]] = None,
    ) -> float:
        """Similarity of ``snippet`` to ``story``.

        ``decayed`` selects the profile view: ``True`` decays member
        contributions toward ``at_time`` (defaults to the snippet's own
        timestamp) — the temporal mode; ``False`` uses raw counts — the
        complete mode.  When ``None`` it follows the configured mode.
        ``terms`` is the snippet's term set if the caller built it (one
        per snippet, however many stories it is scored against); it must
        be ``frozenset(match_terms(snippet))``, whose order the sums follow.
        """
        if len(story) == 0:
            return 0.0
        if decayed is None:
            decayed = self.config.identification_mode == "temporal"
        sketch = story.sketch
        entities = snippet.entities
        if terms is None:
            terms = frozenset(match_terms(snippet))
        if decayed:
            reference = at_time if at_time is not None else snippet.timestamp
            entity_weights, entity_mass, term_weights, term_mass, nearest = (
                sketch.decayed_shares(entities, terms, reference, snippet.timestamp)
            )
        else:
            entity_weights, entity_mass = sketch.entity_counts, sketch.entity_mass
            term_weights, term_mass = sketch.term_counts, sketch.term_mass
            nearest = sketch.nearest(snippet.timestamp)
        scores = {
            "entity": _profile_overlap(entities, entity_weights, entity_mass),
            "term": _profile_overlap(terms, term_weights, term_mass),
            # proximity of the snippet to the story's nearest member
            "temporal": temporal_proximity(0.0, nearest, self.config.window),
        }
        return combine_weighted(scores, self.config.weights)

    # -- story vs story (identification-time merges) ----------------------------

    def story_pair_score(self, a: Story, b: Story) -> float:
        """Similarity of two same-source stories (merge check)."""
        if len(a) == 0 or len(b) == 0:
            return 0.0
        scores = {
            "entity": weighted_jaccard(
                a.sketch.entity_counts, b.sketch.entity_counts
            ),
            "term": weighted_jaccard(
                a.sketch.term_counts, b.sketch.term_counts
            ),
            "temporal": temporal_proximity(
                _midpoint(a.sketch), _midpoint(b.sketch), 2 * self.config.window
            ),
        }
        return combine_weighted(scores, self.config.weights)


def _profile_overlap(
    features: AbstractSet[str], weights: Mapping[str, float], mass: float
) -> float:
    """Overlap-coefficient analogue of a feature set vs a weighted profile.

    The shared mass (sum of profile weights on shared features, capped by
    each side's own mass) over the smaller side's mass.  Reduces to the set
    overlap coefficient when all profile weights are 1.  The profile is
    read through its ``weights`` on the shared features and its total
    ``mass``, so a caller need not materialize the rest of it.
    """
    denominator = min(float(len(features)), mass)
    if denominator <= 0:
        return 0.0
    shared = 0.0
    for feature in features:
        weight = weights.get(feature)
        if weight:
            shared += weight if weight < 1.0 else 1.0
    return min(1.0, shared / denominator)


def _midpoint(sketch: StorySketch) -> float:
    return (sketch.start + sketch.end) / 2.0
