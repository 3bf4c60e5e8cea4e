"""Query execution over alignments and corpora.

Story-level execution answers from a postings index over the integrated
stories' entity/term counts (profile mass): the query terms' postings
are intersected smallest first, the hard filters (sources, time range)
are applied to the survivors, and relevance-ranked :class:`StoryHit`
rows come back with per-term match explanations — the demo's query box
with explanations.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.core.alignment import AlignedStory, Alignment
from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Snippet
from repro.query.parser import parse_query
from repro.text.stem import stem


class StoryIndex:
    """What queries read of one alignment's integrated stories, inverted.

    Per entity and per stemmed term, the stories mentioning it with their
    counts (what ``AlignedStory.entity_profile/term_profile`` merge, as
    the integers they are); per story, the row the hard filters test.
    Building it costs about one scan — what every query used to cost.
    """

    def __init__(self, alignment: Alignment) -> None:
        self.aligned = alignment.aligned
        self.num_stories = len(alignment.story_to_aligned)
        #: entity / stemmed term -> {aligned id: its count in that story}
        self.entities: Dict[str, Dict[str, int]] = {}
        self.terms: Dict[str, Dict[str, int]] = {}
        #: aligned id -> (sources, start, end, number of snippets)
        self.rows: Dict[str, Tuple[FrozenSet[str], float, float, int]] = {}
        for aligned_id, aligned in self.aligned.items():
            self.rows[aligned_id] = (
                frozenset(aligned.source_ids), aligned.start, aligned.end,
                len(aligned),
            )
            for story in aligned.stories:
                for postings, counts in (
                    (self.entities, story.sketch.entity_counts),
                    (self.terms, story.sketch.term_counts),
                ):
                    for key, count in counts.items():
                        row = postings.setdefault(key, {})
                        row[aligned_id] = row.get(aligned_id, 0) + count
        #: the known entities bare query tokens resolve against
        self.vocabulary: FrozenSet[str] = frozenset(self.entities)

    def covers(self, alignment: Alignment) -> bool:
        """False once ``canonicalize_result_ids`` has re-keyed the stories
        into a new dict (it runs after ``finish()``) or ``StoryAligner.
        extend`` has grown the alignment in place: answer neither from here."""
        return (
            self.aligned is alignment.aligned
            and self.num_stories == len(alignment.story_to_aligned)
        )


#: one index per alignment instance, so a throwaway engine per request
#: (the API server's pattern) costs nothing beyond the first request
_INDEXES: "WeakKeyDictionary[Alignment, StoryIndex]" = WeakKeyDictionary()
_INDEXES_LOCK = threading.Lock()


def story_index(alignment: Alignment) -> StoryIndex:
    """The index of ``alignment``, built by the first query against it.

    Never ahead of one: a live view is replaced several times a second
    and receives less than one query on average.
    """
    with _INDEXES_LOCK:
        index = _INDEXES.get(alignment)
        if index is None or not index.covers(alignment):
            index = _INDEXES[alignment] = StoryIndex(alignment)
    return index


def known_entities(alignment: Alignment) -> FrozenSet[str]:
    """Entity codes mentioned anywhere in ``alignment`` (the index's keys)."""
    return story_index(alignment).vocabulary


@dataclass(frozen=True)
class StoryHit:
    """One ranked story result."""

    story: AlignedStory
    relevance: float
    matched: Tuple[str, ...]  # human-readable per-term explanations


class QueryEngine:
    """Execute parsed (or raw) queries.

    Construction is O(1): the :class:`StoryIndex` (and with it the
    vocabulary that resolves bare query tokens) is built on first use
    and shared by every engine over the same :class:`Alignment`.
    """

    def __init__(self, alignment: Alignment,
                 corpus: Optional[Corpus] = None) -> None:
        self.alignment = alignment
        self.corpus = corpus

    @property
    def _known_entities(self) -> FrozenSet[str]:
        return known_entities(self.alignment)

    # -- story-level ------------------------------------------------------

    def execute(self, query, limit: int = 10, offset: int = 0) -> List[StoryHit]:
        """One page of ranked stories matching ``query``.

        ``query`` is a string or :class:`StoryQuery`; ``offset`` skips that
        many ranked hits before taking ``limit`` — the server's pagination
        entry point.  Ranking ties break on ``aligned_id``, so pages are
        deterministic and non-overlapping.
        """
        index = story_index(self.alignment)
        if isinstance(query, str):
            query = parse_query(query, known_entities=index.vocabulary)
        if query.is_empty:
            raise ValueError("empty query")
        if limit <= 0:
            raise ValueError("limit must be positive")
        if offset < 0:
            raise ValueError("offset must be non-negative")
        # (explanation prefix, the term's postings); a repeated term counts twice
        terms = [
            (f"entity {entity}", index.entities.get(entity))
            for entity in query.entities
        ]
        for keyword in query.keywords:
            stemmed = stem(keyword)
            terms.append(
                (f"keyword {keyword} ({stemmed})", index.terms.get(stemmed))
            )
        postings = [row for _, row in terms]
        if None in postings:
            return []  # conjunctive: every term must match somewhere
        if postings:
            first, *rest = sorted(postings, key=len)
            candidates = [
                aligned_id for aligned_id in first
                if all(aligned_id in row for row in rest)
            ]
        else:
            candidates = index.rows  # filter-only query
        required = frozenset(query.sources)
        after, before = query.after, query.before
        ranked = []
        for aligned_id in candidates:
            sources, start, end, size = index.rows[aligned_id]
            if not required <= sources:
                continue
            if after is not None and end < after:
                continue
            if before is not None and start > before:
                continue
            relevance = size  # a filter-only query ranks by size
            if postings:
                # counts are integers: the sum is exact in any order
                relevance = sum(row[aligned_id] for row in postings)
            ranked.append((-float(relevance), aligned_id))
        ranked.sort()
        return [
            StoryHit(
                story=index.aligned[aligned_id],
                relevance=-negated,
                matched=tuple(
                    f"{prefix} ×{row[aligned_id]:g}" for prefix, row in terms
                ) or ("matched filters",),
            )
            for negated, aligned_id in ranked[offset:offset + limit]
        ]

    def search(self, query, limit: int = 10) -> List[StoryHit]:
        """Ranked stories matching ``query`` (a string or StoryQuery)."""
        return self.execute(query, limit=limit)

    def mentioning(
        self, entity: Optional[str], keyword: Optional[str], limit: int = 10
    ) -> List[Tuple[AlignedStory, float]]:
        """Stories mentioning ``entity`` and/or ``keyword``, ranked.

        Either suffices (unlike :meth:`execute`, which is conjunctive);
        relevance is the summed counts.  ``StoryPivot.query`` is this.
        """
        if entity is None and keyword is None:
            raise ValueError("query needs an entity or a keyword")
        index = story_index(self.alignment)
        relevance: Counter = Counter()  # update() adds a mapping's counts
        if entity is not None:
            relevance.update(index.entities.get(entity, {}))
        if keyword is not None:
            relevance.update(index.terms.get(stem(keyword), {}))
        ranked = sorted(relevance.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            (index.aligned[aligned_id], float(count))
            for aligned_id, count in ranked[:limit]
        ]

    # -- snippet-level -----------------------------------------------------

    def search_snippets(self, query, limit: int = 20) -> List[Snippet]:
        """Snippets matching the query's criteria, most recent first."""
        if isinstance(query, str):
            query = parse_query(query, known_entities=self._known_entities)
        if query.is_empty:
            raise ValueError("empty query")
        if limit <= 0:
            raise ValueError("limit must be positive")
        stems = {stem(k) for k in query.keywords}
        results: List[Snippet] = []
        for aligned in self.alignment.aligned.values():
            for snippet in aligned.snippets():
                if query.sources and snippet.source_id not in query.sources:
                    continue
                if query.after is not None and snippet.timestamp < query.after:
                    continue
                if query.before is not None and snippet.timestamp > query.before:
                    continue
                if query.entities and not (
                    set(query.entities) <= snippet.entities
                ):
                    continue
                if stems:
                    from repro.storage.event_store import match_terms
                    if not stems <= set(match_terms(snippet)):
                        continue
                if query.role is not None and (
                    self.alignment.role(snippet.snippet_id) != query.role
                ):
                    continue
                results.append(snippet)
        results.sort(key=lambda s: (-s.timestamp, s.snippet_id))
        return results[:limit]

    def explain(self, query, limit: int = 5) -> str:
        """Human-readable result block (the demo's query answer panel)."""
        hits = self.search(query, limit=limit)
        if not hits:
            return "(no stories match)"
        lines = []
        for hit in hits:
            start, end = hit.story.date_range()
            lines.append(
                f"{hit.story.aligned_id}  relevance {hit.relevance:g}  "
                f"[{', '.join(hit.story.source_ids)}]  {start} – {end}"
            )
            for explanation in hit.matched:
                lines.append(f"    {explanation}")
        return "\n".join(lines)
