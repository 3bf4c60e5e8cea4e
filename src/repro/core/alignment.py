"""Story alignment across sources (Section 2.3).

Two stories from different sources align when "their evolution is similar
and their content is similar as well": content similarity over entity and
term profiles, temporal similarity over the stories' life spans ("it is
highly unlikely that two stories are similar if c1 ends at time t_i and c2
starts at t_j with t_i << t_j").

Aligned stories from multiple sources form *integrated stories* (the
``c'`` of Figure 1(c)).  Stories that align with nothing survive as
singleton integrated stories — a story reported by a single source "may
still hold interest for a variety of users".  Within an integrated story,
each snippet is classified as *aligning* (it has a temporally close,
similar counterpart in another source) or *enriching* (source-exclusive
background, special reports etc.).

The counterpart relation is kept once, in the aligner's
:class:`CounterpartGraph`: snippet roles and refinement's votes both read
it, so each cross-source snippet pair is scored once.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.config import StoryPivotConfig
from repro.core.matchers import SnippetMatcher, snippet_features
from repro.core.stories import Story, StorySet
from repro.errors import AlignmentError
from repro.eventdata.models import DEFAULT_TRUST, Snippet, format_timestamp

_aligned_counter = itertools.count()
#: stamps every counterpart graph's changes: none is ever handed out twice
_stamp_counter = itertools.count()


@dataclass
class AlignedStory:
    """An integrated story ``c'``: member stories across sources."""

    aligned_id: str
    stories: List[Story] = field(default_factory=list)

    @property
    def source_ids(self) -> List[str]:
        return sorted({story.source_id for story in self.stories})

    @property
    def story_ids(self) -> List[str]:
        return sorted(story.story_id for story in self.stories)

    def snippets(self) -> List[Snippet]:
        """All member snippets across sources, in time order."""
        pool = [s for story in self.stories for s in story.snippets()]
        return sorted(pool, key=lambda s: (s.timestamp, s.snippet_id))

    def __len__(self) -> int:
        return sum(len(story) for story in self.stories)

    @property
    def start(self) -> float:
        return min(story.start for story in self.stories)

    @property
    def end(self) -> float:
        return max(story.end for story in self.stories)

    def date_range(self) -> Tuple[str, str]:
        return format_timestamp(self.start), format_timestamp(self.end)

    def entity_profile(self) -> Dict[str, float]:
        return _merged(s.sketch.entity_counts for s in self.stories)

    def term_profile(self) -> Dict[str, float]:
        return _merged(s.sketch.term_counts for s in self.stories)

    def entity_set(self) -> Set[str]:
        """The keys of :meth:`entity_profile`, without merging the counts."""
        return set().union(*(s.sketch.entity_counts for s in self.stories))

    def top_entities(self, k: int = 5) -> List[Tuple[str, int]]:
        return _top(self.entity_profile(), k)

    def top_terms(self, k: int = 9) -> List[Tuple[str, int]]:
        return _top(self.term_profile(), k)


def _merged(member_counts: Iterable[Mapping[str, int]]) -> Dict[str, float]:
    profile: Dict[str, float] = defaultdict(float)
    for counts in member_counts:
        for key, count in counts.items():
            profile[key] += count
    return dict(profile)


def _top(profile: Dict[str, float], k: int) -> List[Tuple[str, int]]:
    ranked = sorted(profile.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(name, int(round(weight))) for name, weight in ranked[:k]]


@dataclass(frozen=True)
class SnippetLink:
    """A cross-source counterpart pair found during alignment."""

    # tens of thousands per alignment, and the aligner's memory shares
    # them between alignments: no per-instance __dict__
    __slots__ = ("snippet_a", "snippet_b", "score")
    snippet_a: str
    snippet_b: str
    score: float

    def __reduce__(self):  # frozen + slots: copy/pickle must go through __init__
        return SnippetLink, (self.snippet_a, self.snippet_b, self.score)


@dataclass
class AlignmentStats:
    story_pairs_scored: int = 0  # story_pair_score calls made by this pass
    story_pairs_reused: int = 0  # edges carried over from the aligner's last pass
    edges: int = 0
    snippet_pairs_scored: int = 0  # snippet_score calls made through the graph


class Alignment:
    """The output of story alignment: integrated stories + snippet roles."""

    def __init__(self) -> None:
        self.aligned: Dict[str, AlignedStory] = {}
        self.story_to_aligned: Dict[str, str] = {}
        self.links: List[SnippetLink] = []
        self.roles: Dict[str, str] = {}  # snippet id -> "aligning"|"enriching"
        self.edge_scores: Dict[Tuple[str, str], float] = {}
        self.stats = AlignmentStats()

    def __len__(self) -> int:
        return len(self.aligned)

    def aligned_of(self, story_id: str) -> AlignedStory:
        aligned_id = self.story_to_aligned.get(story_id)
        if aligned_id is None:
            raise AlignmentError(f"story {story_id!r} is not in this alignment")
        return self.aligned[aligned_id]

    def aligned_of_snippet(self, snippet_id: str) -> AlignedStory:
        for aligned in self.aligned.values():
            for story in aligned.stories:
                if snippet_id in story:
                    return aligned
        raise AlignmentError(f"snippet {snippet_id!r} is not in this alignment")

    def role(self, snippet_id: str) -> str:
        """'aligning' or 'enriching' (Section 2.3's two snippet purposes)."""
        return self.roles.get(snippet_id, "enriching")

    def cross_source_stories(self) -> List[AlignedStory]:
        """Integrated stories spanning more than one source."""
        return [a for a in self.aligned.values() if len(a.source_ids) > 1]

    def singleton_stories(self) -> List[AlignedStory]:
        """Integrated stories seen in a single source only."""
        return [a for a in self.aligned.values() if len(a.source_ids) == 1]

    def as_clusters(self) -> Dict[str, Set[str]]:
        """aligned id -> snippet ids (global clustering for evaluation)."""
        return {
            aligned_id: {s.snippet_id for s in aligned.snippets()}
            for aligned_id, aligned in self.aligned.items()
        }

    def counterparts(self, snippet_id: str) -> List[Tuple[str, float]]:
        """Cross-source counterpart snippets recorded for ``snippet_id``."""
        found = []
        for link in self.links:
            if link.snippet_a == snippet_id:
                found.append((link.snippet_b, link.score))
            elif link.snippet_b == snippet_id:
                found.append((link.snippet_a, link.score))
        return sorted(found, key=lambda kv: -kv[1])


def _count_jaccard(a: Mapping, mass_a: int, b: Mapping, mass_b: int) -> float:
    """Min/max Jaccard of two integer count profiles, in one pass.

    The same float, bit for bit, as ``weighted_jaccard(dict(a), dict(b))``:
    counts are integers, so Σmax = mass_a + mass_b − Σmin holds exactly
    and the one division rounds the same rational.
    """
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    shared = 0
    for key, count in a.items():
        other = b.get(key)
        if other:
            shared += min(count, other)
    return shared / (mass_a + mass_b - shared)


#: a counterpart: (its timestamp, its id, the score, shares a feature)
Pair = Tuple[float, str, float, bool]


class CounterpartGraph:
    """Per snippet seen, in ``(timestamp, id)`` order, the other sources'
    snippets whose ``snippet_score`` reaches the snippet threshold within
    the tolerance plus a second (Section 2.3's counterparts, and a superset
    each reader filters with its own exact predicate).  Feature-disjoint
    pairs are kept, flagged, when the weights let them clear the threshold.
    A pair is scored once, when the later snippet arrives; a snippet that
    leaves or is replaced takes its pairs with it on both sides, and every
    snippet carries the stamp of the last change to its pairs.
    """

    def __init__(self, config: StoryPivotConfig) -> None:
        self.matcher = SnippetMatcher(config)
        self.threshold = config.snippet_align_threshold
        self.radius = config.snippet_align_tolerance + 1.0
        # a disjoint pair scores its temporal channel alone, at most this
        weights = config.weights
        self._keep_disjoint = (
            weights.get("temporal", 0.0) / sum(weights.values()) >= self.threshold
        )
        self._clear()

    def _clear(self) -> None:
        self._snippets: Dict[str, Snippet] = {}
        #: per source, its snippets as sorted (timestamp, id, features, snippet)
        self._timelines: Dict[str, List[tuple]] = defaultdict(list)
        self._pairs: Dict[str, List[Pair]] = {}
        self._stamps: Dict[str, int] = {}

    def pairs(self, snippet_id: str) -> List[Pair]:
        """The snippet's counterparts, in ``(timestamp, id)`` order."""
        return self._pairs.get(snippet_id, [])

    def source_of(self, snippet_id: str) -> str:
        return self._snippets[snippet_id].source_id

    def stamp(self, snippet_id: str) -> int:
        """When the snippet's pairs last changed (it arriving included)."""
        return self._stamps[snippet_id]

    def mark(self) -> int:
        """A stamp later than every change so far."""
        return next(_stamp_counter)

    def sync(self, stories: Iterable[Story]) -> int:
        """Hold exactly the members of ``stories``; returns the pairs scored."""
        current: Dict[str, Snippet] = {}
        for story in stories:
            current.update(story.members)
        known = self._snippets
        gone = [sid for sid, s in known.items() if current.get(sid) is not s]
        arrived = [s for sid, s in current.items() if known.get(sid) is not s]
        stamp, scored = next(_stamp_counter), 0
        try:
            for snippet_id in gone:
                self._drop(snippet_id, stamp)
            for snippet in arrived:
                scored += self._add(snippet, stamp)
        except BaseException:
            self._clear()  # half-updated: the next sync starts over
            raise
        return scored

    def _drop(self, snippet_id: str, stamp: int) -> None:
        snippet = self._snippets.pop(snippet_id)
        del self._stamps[snippet_id]
        key = (snippet.timestamp, snippet_id)
        timeline = self._timelines[snippet.source_id]
        del timeline[bisect.bisect_left(timeline, key)]
        for _, other_id, _, _ in self._pairs.pop(snippet_id):
            theirs = self._pairs[other_id]
            del theirs[bisect.bisect_left(theirs, key)]
            self._stamps[other_id] = stamp

    def _add(self, snippet: Snippet, stamp: int) -> int:
        snippet_id, timestamp, scored = snippet.snippet_id, snippet.timestamp, 0
        entities, terms = features = snippet_features(snippet)
        # inclusive bounds whatever the ids' characters
        low = (timestamp - self.radius,)
        high = (math.nextafter(timestamp + self.radius, math.inf),)
        mine: List[Pair] = []
        for source_id, timeline in self._timelines.items():
            if source_id == snippet.source_id:
                continue
            window = timeline[bisect.bisect_left(timeline, low):
                              bisect.bisect_left(timeline, high)]
            for other_timestamp, other_id, other_features, other in window:
                other_entities, other_terms = other_features
                shared = not (entities.isdisjoint(other_entities)
                              and terms.isdisjoint(other_terms))
                if not shared and not self._keep_disjoint:
                    continue
                score = self.matcher.snippet_score(snippet, other)  # symmetric
                scored += 1
                if score < self.threshold:
                    continue
                mine.append((other_timestamp, other_id, score, shared))
                bisect.insort(self._pairs[other_id],
                              (timestamp, snippet_id, score, shared))
                self._stamps[other_id] = stamp
        mine.sort()
        self._pairs[snippet_id] = mine
        self._snippets[snippet_id] = snippet
        bisect.insort(self._timelines[snippet.source_id],
                      (timestamp, snippet_id, features, snippet))
        self._stamps[snippet_id] = stamp
        return scored


#: the (start, end) of a story's members; None for an empty story
Span = Optional[Tuple[float, float]]
#: story id -> (snapshot of its members, its candidate features, its span)
_Seen = Dict[str, Tuple[Dict[str, Snippet], List[object], Span]]


class _UnionFind:
    """Merge-only disjoint sets over story ids.

    :meth:`components` yields each set at its earliest-added member, in
    insertion order: the order a breadth-first sweep over the items would
    find the connected components in.
    """

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def add(self, item: str) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: str) -> str:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[max(ra, rb)] = min(ra, rb)
        return True

    def components(self) -> Dict[str, Set[str]]:
        groups: Dict[str, Set[str]] = defaultdict(set)
        for item in self._parent:
            groups[self.find(item)].add(item)
        return dict(groups)


class StoryAligner:
    """Compute story alignment over per-source story sets.

    The aligner remembers its last :meth:`align` — per story a snapshot
    of its members and its candidate features; the raw edges; the snippet
    links of each integrated story — and the next call re-derives only
    what involves a *touched* story (unseen, or members differ from the
    snapshot).  An aligner that has seen nothing finds every story
    touched: from scratch is the same code.  ``config`` must not change
    between calls.
    """

    def __init__(self, config: Optional[StoryPivotConfig] = None) -> None:
        self.config = config if config is not None else StoryPivotConfig()
        weights = self.config.weights
        self._weights = tuple(weights.get(channel, 0.0)
                              for channel in ("entity", "term", "temporal"))
        self._total_weight = sum(weights.values())
        self._tolerance = max(
            1.0, self.config.alignment_tolerance * self.config.window
        )
        #: what roles and refinement's votes read; no trust in it: kept by _forget()
        self.counterparts = CounterpartGraph(self.config)
        self._source_trust: Dict[str, int] = {}
        self._forget()

    def _forget(self) -> None:
        # story id -> (members snapshot, features, span).  Members, not the
        # story object: merged_pivot() re-creates every story each
        # generation, and all that alignment reads of a story (profiles,
        # span, features, signature, links) is a function of its members.
        self._seen: _Seen = {}
        self._edges: List[Tuple[str, str, float]] = []  # before _one_to_one
        # member story ids of an integrated story -> (snapshots of their
        # members, links, roles); stands while the members equal them
        self._classified: Dict[tuple, tuple] = {}

    def set_source_trust(self, trust: Mapping[str, int]) -> None:
        """Install per-source trust (0–10) for trust-weighted alignment.

        Only consulted when ``config.trust_weighted_alignment`` is on;
        sources absent from the mapping score as the neutral default 5.
        """
        self._source_trust = dict(trust)
        self._forget()  # remembered edge scores carry the old trust

    # -- story-level similarity ----------------------------------------------

    def _trust_factor(self, a: Story, b: Story) -> float:
        """Confidence multiplier from the pair's source trust.

        ``0.75 + 0.025 * (trust_a + trust_b)``: 1.0 when both sources sit
        at the default trust of 5, 1.25 for two fully trusted wires, 0.75
        for two untrusted feeds.  Identity when the knob is off.
        """
        if not self.config.trust_weighted_alignment:
            return 1.0
        trust_a = self._source_trust.get(a.source_id, DEFAULT_TRUST)
        trust_b = self._source_trust.get(b.source_id, DEFAULT_TRUST)
        return 0.75 + 0.025 * (trust_a + trust_b)

    def story_pair_score(
        self, a: Story, b: Story, spans: Optional[Tuple[Span, Span]] = None
    ) -> float:
        """Cross-source story similarity: content + evolution.

        Evolution is 1.0 for overlapping spans, decaying with the gap
        beyond that; ``spans`` are the two stories' spans when the caller
        has read them already.
        """
        if len(a) == 0 or len(b) == 0:
            return 0.0
        sketch_a, sketch_b = a.sketch, b.sketch
        entity_sim = _count_jaccard(
            sketch_a.entity_counts, sketch_a.entity_mass,
            sketch_b.entity_counts, sketch_b.entity_mass,
        )
        term_sim = _count_jaccard(
            sketch_a.term_counts, sketch_a.term_mass,
            sketch_b.term_counts, sketch_b.term_mass,
        )
        (start_a, end_a), (start_b, end_b) = spans or (sketch_a.span, sketch_b.span)
        gap = max(0.0, max(start_a, start_b) - min(end_a, end_b))
        entity_weight, term_weight, temporal_weight = self._weights
        score = (
            entity_weight * entity_sim
            + term_weight * term_sim
            + temporal_weight * math.exp(-gap / self._tolerance)
        ) / self._total_weight
        return min(1.0, score * self._trust_factor(a, b))

    # -- alignment -------------------------------------------------------------

    def align(self, story_sets: Mapping[str, StorySet]) -> Alignment:
        """Align stories across all sources into integrated stories."""
        alignment = Alignment()
        stories: Dict[str, Story] = {}
        for story_set in story_sets.values():
            for story in story_set:
                stories[story.story_id] = story
        if not stories:
            return alignment

        seen, touched = self._diff(stories)
        edges: List[Tuple[str, str, float]] = []
        if self.config.alignment_strategy != "none":
            # an edge between two untouched stories stands: whether a pair
            # is a candidate, and its score, depend on its two stories only
            edges = [
                edge for edge in self._edges
                if edge[0] in stories and edge[1] in stories
                and edge[0] not in touched and edge[1] not in touched
            ]
            alignment.stats.story_pairs_reused = len(edges)
            for id_a, id_b in self._candidate_pairs(stories, seen, touched):
                score = self.story_pair_score(
                    stories[id_a], stories[id_b], (seen[id_a][2], seen[id_b][2])
                )
                alignment.stats.story_pairs_scored += 1
                if score >= self.config.align_threshold:
                    edges.append((id_a, id_b, score))
            edges.sort()
            self._edges = edges
        # only now, beside the edges: a pass that raised remembered nothing
        self._seen = seen
        if self.config.alignment_strategy == "optimal":
            edges = self._one_to_one(edges, stories)
        alignment.stats.edges = len(edges)

        union = _UnionFind()
        for story_id in stories:
            union.add(story_id)
        for id_a, id_b, score in edges:
            union.union(id_a, id_b)
            alignment.edge_scores[(min(id_a, id_b), max(id_a, id_b))] = score

        for component in union.components().values():
            aligned = AlignedStory(f"c'{next(_aligned_counter):06d}")
            for story_id in sorted(component):
                aligned.stories.append(stories[story_id])
                alignment.story_to_aligned[story_id] = aligned.aligned_id
            alignment.aligned[aligned.aligned_id] = aligned

        self._classify_snippets(alignment)
        return alignment

    def extend(
        self, alignment: Alignment, new_set: StorySet
    ) -> Alignment:
        """Integrate a *new source* into an existing alignment (Section 2.1).

        "As new sources become available, we first identify the stories
        associated with them and then align them with existing stories" —
        each new story attaches to the best-matching existing integrated
        story, or founds its own, without recomputing the old alignment.
        """
        for story in new_set:
            best_id, best_score = None, 0.0
            for aligned in alignment.aligned.values():
                for member in aligned.stories:
                    if member.source_id == new_set.source_id:
                        continue
                    score = self.story_pair_score(story, member)
                    alignment.stats.story_pairs_scored += 1
                    if score > best_score:
                        best_id, best_score = aligned.aligned_id, score
            if best_id is not None and best_score >= self.config.align_threshold:
                target = alignment.aligned[best_id]
                target.stories.append(story)
                alignment.story_to_aligned[story.story_id] = best_id
            else:
                aligned = AlignedStory(f"c'{next(_aligned_counter):06d}")
                aligned.stories.append(story)
                alignment.aligned[aligned.aligned_id] = aligned
                alignment.story_to_aligned[story.story_id] = aligned.aligned_id
        self._classify_snippets(alignment)
        return alignment

    # -- candidates ---------------------------------------------------------

    def _diff(self, stories: Dict[str, Story]) -> Tuple[_Seen, Set[str]]:
        """The per-story memory of ``stories`` and the ids of the touched."""
        seen: _Seen = {}
        touched: Set[str] = set()
        for story_id, story in stories.items():
            entry = self._seen.get(story_id)
            # exact: dict == compares every member, and is a pointer
            # check per member while the snippets are the same objects
            if entry is None or entry[0] != story.members:
                touched.add(story_id)
                features: List[object] = [
                    ("e", entity) for entity, _ in story.sketch.top_entities(8)
                ]
                features += [("t", term) for term, _ in story.sketch.top_terms(10)]
                # a copy: a live story's own map changes under us
                span = story.sketch.span if len(story) else None
                entry = (dict(story.members), features, span)
            seen[story_id] = entry
        return seen, touched

    def _candidate_pairs(
        self, stories: Dict[str, Story], seen: _Seen, touched: Set[str]
    ) -> List[Tuple[str, str]]:
        """Cross-source story pairs, at least one side touched, sharing at
        least one salient feature, whose spans are at most 3× the alignment
        tolerance apart, sorted.

        Each touched story takes the union of its features' posting lists
        less its own source and the touched stories already visited: every
        pair is examined once.
        """
        postings: Dict[object, Set[str]] = defaultdict(set)
        by_source: Dict[str, Set[str]] = defaultdict(set)
        for story_id, story in stories.items():
            by_source[story.source_id].add(story_id)
            for feature in seen[story_id][1]:
                postings[feature].add(story_id)
        limit = 3 * self._tolerance
        pairs: List[Tuple[str, str]] = []
        visited: Set[str] = set()
        for story_id in touched:
            story, (_, features, span) = stories[story_id], seen[story_id]
            visited.add(story_id)
            others = set().union(*[postings[feature] for feature in features])
            others -= by_source[story.source_id]
            others -= visited
            signature = story.sketch.signature
            for other_id in others:
                other_span = seen[other_id][2]
                if max(span[0], other_span[0]) - min(span[1], other_span[1]) > limit:
                    continue
                # sketch fast path (Section 2.4): when story signatures are
                # maintained, a MinHash estimate prunes pairs before the
                # exact profile comparison
                other_signature = stories[other_id].sketch.signature
                if (signature is not None and other_signature is not None
                        and signature.similarity(other_signature)
                        < self.config.sketch_candidate_floor):
                    continue
                pairs.append((min(story_id, other_id), max(story_id, other_id)))
        return sorted(pairs)

    def _one_to_one(
        self,
        edges: List[Tuple[str, str, float]],
        stories: Dict[str, Story],
    ) -> List[Tuple[str, str, float]]:
        """Optimal 1–1 matching per source pair (Hungarian algorithm)."""
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        by_source_pair: Dict[Tuple[str, str], List[Tuple[str, str, float]]] = (
            defaultdict(list)
        )
        for id_a, id_b, score in edges:
            source_a = stories[id_a].source_id
            source_b = stories[id_b].source_id
            if source_a > source_b:
                id_a, id_b = id_b, id_a
                source_a, source_b = source_b, source_a
            by_source_pair[(source_a, source_b)].append((id_a, id_b, score))

        kept: List[Tuple[str, str, float]] = []
        for pair_edges in by_source_pair.values():
            left_ids = sorted({e[0] for e in pair_edges})
            right_ids = sorted({e[1] for e in pair_edges})
            left_pos = {sid: i for i, sid in enumerate(left_ids)}
            right_pos = {sid: i for i, sid in enumerate(right_ids)}
            matrix = np.zeros((len(left_ids), len(right_ids)))
            for id_a, id_b, score in pair_edges:
                matrix[left_pos[id_a], right_pos[id_b]] = score
            rows, cols = linear_sum_assignment(-matrix)
            for row, col in zip(rows, cols):
                score = matrix[row, col]
                if score >= self.config.align_threshold:
                    kept.append((left_ids[row], right_ids[col], float(score)))
        return kept

    # -- snippet roles -----------------------------------------------------------

    def _classify_snippets(self, alignment: Alignment) -> None:
        """Label every snippet aligning/enriching and record counterpart links.

        An integrated story made of the same stories as last time, each
        with the members it had then, keeps its links and roles.
        """
        alignment.stats.snippet_pairs_scored += self.counterparts.sync(
            story for aligned in alignment.aligned.values()
            for story in aligned.stories
        )
        alignment.links = []
        alignment.roles = {}
        remembered, self._classified = self._classified, {}
        for aligned in alignment.aligned.values():
            key = tuple(story.story_id for story in aligned.stories)
            entry = remembered.get(key)
            if entry is None or entry[0] != tuple(s.members for s in aligned.stories):
                entry = (
                    tuple(dict(s.members) for s in aligned.stories),
                    *self._classify_one(aligned),
                )
            self._classified[key] = entry
            alignment.links.extend(entry[1])
            alignment.roles.update(entry[2])

    def _classify_one(
        self, aligned: AlignedStory
    ) -> Tuple[List[SnippetLink], Dict[str, str]]:
        """Every counterpart pair inside ``aligned`` at most the tolerance
        apart, each from its earlier snippet, in ``(timestamp, id)`` order."""
        links: List[SnippetLink] = []
        roles: Dict[str, str] = {}
        tolerance = self.config.snippet_align_tolerance
        snippets = aligned.snippets()  # time-ordered
        members = {snippet.snippet_id for snippet in snippets}
        for snippet_a in snippets:
            id_a = snippet_a.snippet_id
            key = (snippet_a.timestamp, id_a)
            pairs = self.counterparts.pairs(id_a)
            for timestamp, id_b, score, _ in pairs[bisect.bisect_right(pairs, key):]:
                if id_b not in members or timestamp - key[0] > tolerance:
                    continue
                links.append(SnippetLink(id_a, id_b, score))
                roles[id_a] = "aligning"
                roles[id_b] = "aligning"
        for snippet in snippets:
            roles.setdefault(snippet.snippet_id, "enriching")
        return links, roles
