"""Story identification (Section 2.2).

Connects the snippets of one source into stories, incrementally: every
arriving snippet is matched against *candidate stories*, joins the best one
if its score clears the threshold, and founds a new story otherwise.  Three
execution modes are provided:

* :class:`TemporalIdentifier` — Figure 2(b): candidates are stories with a
  member inside the window ``[t - ω, t + ω]``, scored against the story's
  time-decayed profile.  This is the paper's proposal.
* :class:`CompleteIdentifier` — Figure 2(a): candidates are all stories
  sharing any feature, scored against the full undecayed profile.  The
  paper's baseline; it "overfits stories ... independently of the evolution
  of the story in between".
* :class:`SinglePassIdentifier` — classic on-line new-event detection
  (Allan et al. 1998): one pass, nearest centroid, no merges or splits.

All modes construct stories *incrementally* (the paper follows Gruenheid et
al.'s incremental record linkage rather than single-pass detection), so the
identifiers also support merging stories when a snippet bridges two of
them, splitting stories across long silences, and exact removal of
snippets when documents are withdrawn in the demo.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.config import StoryPivotConfig
from repro.core.matchers import SnippetMatcher
from repro.core.stories import Story, StorySet, snippet_shingles
from repro.errors import DuplicateSnippetError, UnknownSnippetError
from repro.eventdata.models import Snippet
from repro.sketch.lsh import LshIndex
from repro.sketch.minhash import MinHash
from repro.storage.event_store import match_terms
from repro.storage.inverted_index import InvertedIndex
from repro.storage.temporal_index import TemporalIndex


@dataclass
class IdentificationStats:
    """Work counters the statistics module and benchmarks report."""

    snippets: int = 0
    comparisons: int = 0  # snippet-vs-story scorings performed
    candidates: int = 0  # candidate stories retrieved
    new_stories: int = 0
    merges: int = 0
    splits: int = 0
    removals: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "snippets": self.snippets,
            "comparisons": self.comparisons,
            "candidates": self.candidates,
            "new_stories": self.new_stories,
            "merges": self.merges,
            "splits": self.splits,
            "removals": self.removals,
        }


class BaseIdentifier:
    """Shared machinery: indexes, assignment, merge/split, removal."""

    #: subclasses set this; mirrors config.identification_mode
    mode = "base"

    def __init__(
        self,
        source_id: str,
        config: Optional[StoryPivotConfig] = None,
        decisions=None,
    ) -> None:
        self.source_id = source_id
        self.config = config if config is not None else StoryPivotConfig()
        #: optional repro.obs.decisions.DecisionLog receiving lifecycle
        #: events (created/extended/merged/split/restored) with scores
        self.decisions = decisions
        self.matcher = SnippetMatcher(self.config)
        self._minhash = (
            MinHash(self.config.minhash_permutations)
            if self.config.use_sketches
            else None
        )
        self.stories = StorySet(
            source_id,
            minhash=self._minhash,
            decay_half_life=self.config.decay_half_life,
        )
        self._snippets: Dict[str, Snippet] = {}
        self._lsh: Optional[LshIndex] = None
        self._indexed = True  # False: copied stories wait to be indexed
        self.stats = IdentificationStats()
        self._new_indexes()

    # -- public API ---------------------------------------------------------

    def identify(self, snippets: Iterable[Snippet]) -> StorySet:
        """Process a batch of snippets (in the order given) and return C_i."""
        for snippet in snippets:
            self.add(snippet)
        return self.stories

    def add(self, snippet: Snippet) -> Story:
        """Incrementally integrate one snippet; returns its story."""
        if snippet.source_id != self.source_id:
            raise ValueError(
                f"identifier for {self.source_id!r} got snippet of "
                f"{snippet.source_id!r}"
            )
        if snippet.snippet_id in self._snippets:
            raise DuplicateSnippetError(snippet.snippet_id)
        self._build_indexes()
        shingles = snippet_shingles(snippet)  # one feature set for both hooks
        ranked = self._score_candidates(snippet, shingles)
        story = self._place(snippet, ranked)
        self._index(snippet, shingles)
        self._post_assign(snippet, story, ranked)
        self.stats.snippets += 1
        return self.stories.story_of(snippet.snippet_id)

    def __contains__(self, snippet_id: str) -> bool:
        return snippet_id in self._snippets

    def restore_story(self, story_id: str, snippets: Iterable[Snippet]) -> Story:
        """Bulk-restore a persisted story under its original id.

        Bypasses candidate scoring entirely — the snippets are assigned to
        one story exactly as a checkpoint recorded them — while still
        maintaining the mode's candidate indexes, so the
        restored identifier accepts incremental adds and removals
        immediately.  Identification *work* counters are not replayed;
        only :attr:`IdentificationStats.snippets` is advanced.
        """
        members = sorted(snippets, key=lambda s: (s.timestamp, s.snippet_id))
        if not members:
            raise ValueError("restore_story requires at least one snippet")
        if story_id in self.stories:
            raise ValueError(f"story {story_id!r} already present")
        self._build_indexes()
        story = self.stories.new_story()
        story = self.stories.rebind_story_id(story.story_id, story_id)
        for snippet in members:
            if snippet.snippet_id in self._snippets:
                raise DuplicateSnippetError(snippet.snippet_id)
            self.stories.assign(snippet, story)
            self._snippets[snippet.snippet_id] = snippet
            self._index(snippet, snippet_shingles(snippet))
            self.stats.snippets += 1
        if self.decisions is not None:
            self.decisions.record(
                "restored", story_id, self.source_id,
                num_snippets=len(members),
            )
        return story

    def copy_stories(self, stories: Iterable[Story]) -> int:
        """Hold a :meth:`Story.copy` of each of ``stories``; returns their
        snippet count.  The indexes wait for the next add or remove."""
        count = 0
        for story in map(Story.copy, stories):
            self.stories.adopt(story)
            self._snippets.update(story.members)
            self._indexed, count = False, count + len(story)
        self.stats.snippets += count
        return count

    def _build_indexes(self) -> None:
        for snippet in () if self._indexed else self._snippets.values():
            self._index(snippet, snippet_shingles(snippet))
        self._indexed = True

    def remove(self, snippet_id: str) -> Snippet:
        """Withdraw a snippet (demo: removing a document from the system)."""
        if snippet_id not in self._snippets:
            raise UnknownSnippetError(snippet_id)
        self._build_indexes()
        snippet = self.stories.unassign(snippet_id)
        del self._snippets[snippet_id]
        self._unindex(snippet)
        self.stats.removals += 1
        return snippet

    # -- candidate retrieval (mode-specific) ---------------------------------

    def _candidate_story_ids(self, snippet: Snippet,
                             shingles: Optional[Set] = None) -> Set[str]:
        """Candidate story ids; :func:`snippet_shingles` built if not given."""
        raise NotImplementedError

    def _score_candidates(
        self, snippet: Snippet, shingles: Set
    ) -> List[Tuple[Story, float]]:
        candidate_ids = self._candidate_story_ids(snippet, shingles)
        self.stats.candidates += len(candidate_ids)
        # one term set for every candidate; temporal reads decayed profiles
        decayed, terms = self.mode == "temporal", frozenset(match_terms(snippet))
        scored: List[Tuple[Story, float]] = []
        for story_id in sorted(candidate_ids):
            story = self.stories.story(story_id)
            score = self.matcher.story_score(snippet, story, decayed=decayed, terms=terms)
            self.stats.comparisons += 1
            scored.append((story, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0].story_id))
        return scored

    # -- placement -------------------------------------------------------------

    def _place(self, snippet: Snippet, ranked: List[Tuple[Story, float]]) -> Story:
        best_score = ranked[0][1] if ranked else None
        if ranked and ranked[0][1] >= self.config.match_threshold:
            story = ranked[0][0]
            event = "extended"
        else:
            story = self.stories.new_story()
            self.stats.new_stories += 1
            event = "created"
        self.stories.assign(snippet, story)
        self._snippets[snippet.snippet_id] = snippet
        if self.decisions is not None:
            self.decisions.record(
                event, story.story_id, self.source_id,
                snippet_id=snippet.snippet_id, score=best_score,
            )
        return story

    def _post_assign(
        self,
        snippet: Snippet,
        story: Story,
        ranked: List[Tuple[Story, float]],
    ) -> None:
        if self.config.enable_merge:
            self._maybe_merge(snippet, story, ranked)
        # story may have been merged away; follow the snippet
        story = self.stories.story_of(snippet.snippet_id)
        if self.config.enable_split:
            self._maybe_split(story)

    def _maybe_merge(
        self,
        snippet: Snippet,
        story: Story,
        ranked: List[Tuple[Story, float]],
    ) -> None:
        """Bridge merge: the new snippet matched two stories strongly.

        If the runner-up story also clears the match threshold and the two
        stories resemble each other above ``merge_threshold``, they are one
        evolving story that had been tracked separately — merge them
        (Section 2.1's story merging).
        """
        for other, score in ranked:
            if other.story_id == story.story_id:
                continue
            if score < self.config.match_threshold:
                break  # ranked is sorted; nothing below can qualify
            pair = self.matcher.story_pair_score(story, other)
            if pair >= self.config.merge_threshold:
                keep, absorb = story, other
                if len(absorb) > len(keep):
                    keep, absorb = absorb, keep
                self.stories.merge(keep.story_id, absorb.story_id)
                self.stats.merges += 1
                if self.decisions is not None:
                    self.decisions.record(
                        "merged", keep.story_id, self.source_id,
                        snippet_id=snippet.snippet_id, score=pair,
                        absorbed=absorb.story_id,
                    )
                return

    def _maybe_split(self, story: Story) -> None:
        """Split a story across an internal silence longer than split_gap."""
        if len(story) < 2:
            return
        gap, index = story.largest_gap()
        if gap <= self.config.split_gap:
            return
        members = story.snippets()
        tail = {s.snippet_id for s in members[index + 1 :]}
        if not tail or len(tail) >= len(members):
            return
        fresh = self.stories.split(story.story_id, tail)
        self.stats.splits += 1
        if self.decisions is not None:
            self.decisions.record(
                "split", fresh.story_id, self.source_id,
                from_story=story.story_id, gap_seconds=round(gap, 3),
                moved=len(tail),
            )

    # -- indexing: each mode builds the indexes its lookup reads, no more -----

    def _new_indexes(self) -> None:
        """Build this mode's empty candidate indexes (single-pass: none)."""

    def _index(self, snippet: Snippet, shingles: Set) -> None:
        """Enter ``snippet`` and its shingles into this mode's candidate indexes."""

    def _unindex(self, snippet: Snippet) -> None:
        """Exactly undo :meth:`_index`."""

    def _use_lsh(self) -> bool:
        """Build the LSH if the config asks for sketches; True if it did."""
        if self.config.use_sketches:
            self._lsh = LshIndex(self.config.minhash_permutations, self.config.lsh_bands)
        return self.config.use_sketches

    def _index_signature(self, snippet: Snippet, shingles: Set) -> None:
        assert self._lsh is not None and self._minhash is not None
        self._lsh.insert(snippet.snippet_id, self._minhash.signature(shingles))

    def _stories_of_snippets(self, snippet_ids: Iterable[str]) -> Set[str]:
        homes = self.stories.snippet_homes
        return {homes[snippet_id] for snippet_id in snippet_ids}

    def _sketch_candidates(self, shingles: Set) -> Set[str]:
        """Candidate *snippet* ids colliding with the query in the LSH.

        The LSH indexes snippet signatures, not merged story signatures:
        Jaccard between a snippet and a whole story shrinks as the story
        grows, which would defeat the banding; snippet-to-snippet Jaccard
        stays meaningful, and candidates map to their stories afterwards.
        """
        assert self._lsh is not None and self._minhash is not None
        signature = self._minhash.signature(shingles)
        return {
            snippet_id
            for snippet_id, similarity in self._lsh.query(
                signature, self.config.sketch_candidate_floor
            )
        }


class TemporalIdentifier(BaseIdentifier):
    """Sliding-window identification (Figure 2b) — the paper's method.

    Without sketches each feature of :func:`snippet_shingles` keeps its
    snippets' ``(timestamp, id)`` entries in time order: a lookup bisects
    the arriving snippet's postings to its ω-window and reads nothing
    else.  With sketches, a :class:`TemporalIndex` window meets the LSH.
    """

    mode = "temporal"

    def _new_indexes(self) -> None:
        if self._use_lsh():
            self._temporal = TemporalIndex()
        else:
            #: feature -> time-ordered entries; one entry tuple per snippet
            self._postings: Dict[Tuple[str, str], List[Tuple[float, str]]] = {}

    def _index(self, snippet: Snippet, shingles: Set) -> None:
        if self._lsh is not None:
            self._temporal.insert(snippet.snippet_id, snippet.timestamp)
            return self._index_signature(snippet, shingles)
        entry = (snippet.timestamp, snippet.snippet_id)
        for feature in shingles:
            insort(self._postings.setdefault(feature, []), entry)

    def _unindex(self, snippet: Snippet) -> None:
        if self._lsh is not None:
            self._temporal.remove(snippet.snippet_id)
            return self._lsh.remove(snippet.snippet_id)
        entry = (snippet.timestamp, snippet.snippet_id)
        for feature in snippet_shingles(snippet):
            posting = self._postings[feature]
            del posting[bisect_left(posting, entry)]
            if not posting:
                del self._postings[feature]

    def _candidate_story_ids(self, snippet: Snippet,
                             shingles: Optional[Set] = None) -> Set[str]:
        shingles = snippet_shingles(snippet) if shingles is None else shingles
        start = snippet.timestamp - self.config.window
        end = snippet.timestamp + self.config.window
        if self._lsh is not None:
            ids = self._sketch_candidates(shingles)
            ids.intersection_update(self._temporal.window(start, end))
            ids.discard(snippet.snippet_id)
            return self._stories_of_snippets(ids)
        # TemporalIndex.window's inclusive bounds: one-element tuples sort
        # before every entry of their timestamp, whatever its id
        lo, hi = (start,), (math.nextafter(end, math.inf),)
        entries: Set[Tuple[float, str]] = set()
        for feature in shingles:
            posting = self._postings.get(feature)
            if posting:
                entries.update(posting[bisect_left(posting, lo):bisect_left(posting, hi)])
        own = snippet.snippet_id
        return self._stories_of_snippets(sid for _, sid in entries if sid != own)


class CompleteIdentifier(BaseIdentifier):
    """Complete matching (Figure 2a): compare against all history.
    Keeps an inverted index over :func:`snippet_shingles`, or the LSH."""

    mode = "complete"

    def _new_indexes(self) -> None:
        if not self._use_lsh():
            self._inverted = InvertedIndex()

    def _index(self, snippet: Snippet, shingles: Set) -> None:
        if self._lsh is not None:
            return self._index_signature(snippet, shingles)
        self._inverted.insert(snippet.snippet_id, shingles)

    def _unindex(self, snippet: Snippet) -> None:
        if self._lsh is not None:
            return self._lsh.remove(snippet.snippet_id)
        self._inverted.remove(snippet.snippet_id)

    def _candidate_story_ids(self, snippet: Snippet,
                             shingles: Optional[Set] = None) -> Set[str]:
        shingles = snippet_shingles(snippet) if shingles is None else shingles
        if self._lsh is not None:
            return self._stories_of_snippets(self._sketch_candidates(shingles))
        ids = self._inverted.candidates(shingles)
        ids.discard(snippet.snippet_id)
        return self._stories_of_snippets(ids)


class SinglePassIdentifier(BaseIdentifier):
    """On-line new-event-detection baseline: nearest story, no repair.
    Every story is a candidate, so it keeps no index."""

    mode = "single_pass"

    def _candidate_story_ids(self, snippet: Snippet,
                             shingles: Optional[Set] = None) -> Set[str]:
        return set(self.stories.story_ids())


_IDENTIFIER_CLASSES = {
    "temporal": TemporalIdentifier,
    "complete": CompleteIdentifier,
    "single_pass": SinglePassIdentifier,
}


def make_identifier(
    source_id: str,
    config: Optional[StoryPivotConfig] = None,
    decisions=None,
) -> BaseIdentifier:
    """Instantiate the identifier class the config's mode selects."""
    config = config if config is not None else StoryPivotConfig()
    cls = _IDENTIFIER_CLASSES[config.identification_mode]
    return cls(source_id, config, decisions=decisions)
