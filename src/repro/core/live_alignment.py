"""Incremental alignment maintenance (Section 2.4).

The batch aligner recomputes every story pair; a live deployment cannot
afford that per arrival.  :class:`LiveAligner` keeps the alignment current
*incrementally*: whenever identification places a snippet into a story,
only that story is re-scored — against candidate stories of other sources
retrieved through a feature index — and any new above-threshold edge
merges the affected integrated components (union-find).

Two effects cannot be handled edge-by-edge and are deferred to periodic
:meth:`compact` (and to any :meth:`snapshot`, which validates edges):

* **edge decay** — a story can drift away from a former partner, so old
  edges are re-verified against the *current* profiles before use;
* **story deletions/merges** — identification may merge stories away;
  stale ids are dropped lazily.

This trades a small staleness window for per-arrival cost proportional to
one story's candidates, exactly the "efficient representation ... to
provide near real-time integration" the paper calls for.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.alignment import AlignedStory, Alignment, StoryAligner, _UnionFind
from repro.core.config import StoryPivotConfig
from repro.core.stories import Story, StorySet


@dataclass
class LiveAlignerStats:
    updates: int = 0
    scores_computed: int = 0
    edges_added: int = 0
    edges_dropped: int = 0
    compactions: int = 0


class LiveAligner:
    """Maintain story alignment under per-snippet updates."""

    def __init__(
        self,
        config: Optional[StoryPivotConfig] = None,
        story_sets: Optional[Mapping[str, StorySet]] = None,
    ) -> None:
        self.config = config if config is not None else StoryPivotConfig()
        self._scorer = StoryAligner(self.config)
        self._story_sets: Dict[str, StorySet] = dict(story_sets or {})
        self._union = _UnionFind()
        self._edges: Dict[Tuple[str, str], float] = {}
        self._feature_index: Dict[object, Set[str]] = defaultdict(set)
        self._features_of: Dict[str, Set[object]] = {}
        self._source_of: Dict[str, str] = {}
        self.stats = LiveAlignerStats()
        for source_id, story_set in self._story_sets.items():
            for story in story_set:
                self.update_story(story)

    # -- bookkeeping -----------------------------------------------------

    def attach_story_set(self, story_set: StorySet) -> None:
        """Register a (possibly new) source's story set."""
        self._story_sets[story_set.source_id] = story_set
        for story in story_set:
            self.update_story(story)

    def _story_features(self, story: Story) -> Set[object]:
        features: Set[object] = {
            ("e", entity) for entity, _ in story.sketch.top_entities(8)
        }
        features |= {("t", term) for term, _ in story.sketch.top_terms(10)}
        return features

    def _reindex(self, story: Story) -> None:
        story_id = story.story_id
        old = self._features_of.get(story_id, set())
        new = self._story_features(story)
        for feature in old - new:
            self._feature_index[feature].discard(story_id)
        for feature in new - old:
            self._feature_index[feature].add(story_id)
        self._features_of[story_id] = new
        self._source_of[story_id] = story.source_id
        self._union.add(story_id)

    def _live_story(self, story_id: str) -> Optional[Story]:
        source_id = self._source_of.get(story_id)
        if source_id is None:
            return None
        story_set = self._story_sets.get(source_id)
        if story_set is None or story_id not in story_set:
            return None
        return story_set.story(story_id)

    # -- incremental update ---------------------------------------------------

    def update_story(self, story: Story) -> List[Tuple[str, str, float]]:
        """Re-score one changed story; returns the new edges added.

        Call after identification adds a snippet to (or creates) ``story``.
        """
        self.stats.updates += 1
        if story.source_id not in self._story_sets:
            raise KeyError(
                f"source {story.source_id!r} not attached to the live aligner"
            )
        self._reindex(story)
        tolerance = max(1.0, self.config.alignment_tolerance * self.config.window)
        candidates: Set[str] = set()
        for feature in self._features_of[story.story_id]:
            candidates |= self._feature_index.get(feature, set())
        added: List[Tuple[str, str, float]] = []
        for candidate_id in sorted(candidates):
            if candidate_id == story.story_id:
                continue
            if self._source_of.get(candidate_id) == story.source_id:
                continue
            other = self._live_story(candidate_id)
            if other is None:
                continue  # stale id: cleaned up at compaction
            gap = max(0.0, max(story.start, other.start)
                      - min(story.end, other.end))
            if gap > 3 * tolerance:
                continue
            score = self._scorer.story_pair_score(story, other)
            self.stats.scores_computed += 1
            key = (min(story.story_id, candidate_id),
                   max(story.story_id, candidate_id))
            if score >= self.config.align_threshold:
                is_new = key not in self._edges
                self._edges[key] = score
                if is_new:
                    self.stats.edges_added += 1
                    added.append((key[0], key[1], score))
                self._union.union(story.story_id, candidate_id)
            elif key in self._edges:
                # drifted below threshold: forget the edge (components are
                # only re-derived from surviving edges at compaction)
                del self._edges[key]
                self.stats.edges_dropped += 1
        return added

    # -- views ------------------------------------------------------------------

    def snapshot(self) -> Alignment:
        """Materialize the current components as an Alignment.

        Membership comes from the union-find; edges are re-validated
        against live stories so the snapshot never references merged-away
        stories.  Snippet roles are classified exactly as the batch
        aligner does.
        """
        import itertools
        from repro.core import alignment as alignment_module

        live_stories: Dict[str, Story] = {}
        for story_set in self._story_sets.values():
            for story in story_set:
                live_stories[story.story_id] = story

        snapshot = Alignment()
        groups: Dict[str, List[str]] = defaultdict(list)
        for story_id in live_stories:
            groups[self._union.find(story_id)].append(story_id)
        for root in sorted(groups):
            members = sorted(groups[root])
            aligned = AlignedStory(
                f"c'{next(alignment_module._aligned_counter):06d}"
            )
            for story_id in members:
                aligned.stories.append(live_stories[story_id])
                snapshot.story_to_aligned[story_id] = aligned.aligned_id
            snapshot.aligned[aligned.aligned_id] = aligned
        for (id_a, id_b), score in self._edges.items():
            if id_a in live_stories and id_b in live_stories:
                snapshot.edge_scores[(id_a, id_b)] = score
        snapshot.stats.story_pairs_scored = self.stats.scores_computed
        snapshot.stats.edges = len(snapshot.edge_scores)
        self._scorer._classify_snippets(snapshot)
        return snapshot

    def compact(self) -> None:
        """Re-derive components from surviving, re-validated edges.

        Removes stale story ids (merged away or emptied) and splits
        components whose bridging edges have decayed — the corrective pass
        that union-find alone cannot do.
        """
        self.stats.compactions += 1
        live: Dict[str, Story] = {}
        for story_set in self._story_sets.values():
            for story in story_set:
                live[story.story_id] = story
        surviving: Dict[Tuple[str, str], float] = {}
        for (id_a, id_b) in list(self._edges):
            story_a, story_b = live.get(id_a), live.get(id_b)
            if story_a is None or story_b is None:
                self.stats.edges_dropped += 1
                continue
            score = self._scorer.story_pair_score(story_a, story_b)
            self.stats.scores_computed += 1
            if score >= self.config.align_threshold:
                surviving[(id_a, id_b)] = score
            else:
                self.stats.edges_dropped += 1
        self._edges = surviving
        self._union = _UnionFind()
        self._feature_index = defaultdict(set)
        self._features_of = {}
        self._source_of = {}
        for story in live.values():
            self._reindex(story)
        for id_a, id_b in surviving:
            self._union.union(id_a, id_b)
