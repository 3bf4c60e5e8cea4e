"""Story model: mutable snippet clusters with sketches.

A :class:`Story` is a set of snippets from *one* source plus a
:class:`~repro.sketch.story_sketch.StorySketch` summarizing it; a
:class:`StorySet` is a source's full story collection ``C_i`` with the
bookkeeping identification needs (snippet → story lookup, merge, split).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import UnknownSnippetError, UnknownStoryError
from repro.eventdata.models import Snippet, format_timestamp
from repro.sketch.minhash import MinHash
from repro.sketch.story_sketch import StorySketch
from repro.storage.event_store import match_terms  # noqa: F401  (re-exported)

_story_counter = itertools.count()


def snippet_shingles(snippet: Snippet) -> Set:
    """Content features hashed into MinHash signatures.

    Unigram match terms plus entities (not word k-shingles): two reports of
    the same event paraphrase each other, so their k-shingle sets barely
    intersect while their term/entity sets overlap strongly — and MinHash
    banding needs that overlap to recall candidates.
    """
    return {("t", term) for term in match_terms(snippet)} | {
        ("e", entity) for entity in snippet.entities
    }


class Story:
    """A mutable story: snippets of one source plus their sketch."""

    def __init__(
        self,
        story_id: str,
        source_id: str,
        minhash: Optional[MinHash] = None,
        decay_half_life: float = 14 * 86400.0,
    ) -> None:
        self.story_id = story_id
        self.source_id = source_id
        self.sketch = StorySketch(minhash=minhash, decay_half_life=decay_half_life)
        self._snippets: Dict[str, Snippet] = {}
        #: the members in ``(timestamp, id)`` order; None until asked for
        self._ordered: Optional[List[Snippet]] = None

    def __len__(self) -> int:
        return len(self._snippets)

    def __contains__(self, snippet_id: str) -> bool:
        return snippet_id in self._snippets

    def __repr__(self) -> str:
        return f"Story({self.story_id!r}, {self.source_id!r}, n={len(self)})"

    def add(self, snippet: Snippet) -> None:
        """Add a snippet (ValueError on duplicates, wrong source)."""
        if snippet.source_id != self.source_id:
            raise ValueError(
                f"snippet {snippet.snippet_id!r} from source "
                f"{snippet.source_id!r} cannot join story of {self.source_id!r}"
            )
        hashes = self.sketch.minhash is not None  # only a MinHash reads shingles
        self.sketch.add(
            snippet.snippet_id,
            snippet.timestamp,
            snippet.entities,
            match_terms(snippet),
            shingles=snippet_shingles(snippet) if hashes else None,
        )
        self._snippets[snippet.snippet_id] = snippet
        self._ordered = None

    def copy(self) -> "Story":
        """What adding the members in ``(timestamp, id)`` order builds,
        sharing the immutable snippets and re-deriving nothing."""
        clone = object.__new__(Story)
        clone.story_id, clone.source_id = self.story_id, self.source_id
        clone.sketch = self.sketch.copy()
        clone._snippets = {sid: self._snippets[sid] for sid in clone.sketch._members}
        clone._ordered = None
        return clone

    def remove(self, snippet_id: str) -> Snippet:
        if snippet_id not in self._snippets:
            raise UnknownSnippetError(snippet_id)
        self.sketch.remove(snippet_id)
        self._ordered = None
        return self._snippets.pop(snippet_id)

    def snippets(self) -> List[Snippet]:
        """Member snippets in time order (a fresh list; sorted once per
        membership change)."""
        if self._ordered is None:
            self._ordered = sorted(
                self._snippets.values(), key=lambda s: (s.timestamp, s.snippet_id)
            )
        return list(self._ordered)

    def snippet_ids(self) -> Set[str]:
        return set(self._snippets)

    def get(self, snippet_id: str) -> Snippet:
        return self._snippets[snippet_id]

    @property
    def members(self) -> Mapping[str, Snippet]:
        """The live snippet id → snippet map (read-only by convention).

        Everything alignment derives from a story is a function of this
        map, so two stories with equal members align identically.
        """
        return self._snippets

    @property
    def start(self) -> float:
        return self.sketch.start

    @property
    def end(self) -> float:
        return self.sketch.end

    def date_range(self) -> Tuple[str, str]:
        """('Jul 17, 2014', 'Sep 12, 2014') — as the overview module shows."""
        return format_timestamp(self.start), format_timestamp(self.end)

    def largest_gap(self) -> Tuple[float, int]:
        """(largest inter-snippet silence, index after which it occurs).

        The split check uses this: a story whose members are separated by a
        long silence is really two stories.
        """
        members = self.snippets()
        if len(members) < 2:
            return 0.0, 0
        best_gap, best_index = 0.0, 0
        for i in range(len(members) - 1):
            gap = members[i + 1].timestamp - members[i].timestamp
            if gap > best_gap:
                best_gap, best_index = gap, i
        return best_gap, best_index


class StorySet:
    """The stories ``C_i`` of one source, with snippet→story lookup."""

    def __init__(
        self,
        source_id: str,
        minhash: Optional[MinHash] = None,
        decay_half_life: float = 14 * 86400.0,
    ) -> None:
        self.source_id = source_id
        self._minhash = minhash
        self._decay_half_life = decay_half_life
        self._stories: Dict[str, Story] = {}
        self._story_of: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._stories)

    def __iter__(self) -> Iterator[Story]:
        return iter(sorted(self._stories.values(), key=lambda s: s.story_id))

    def __contains__(self, story_id: str) -> bool:
        return story_id in self._stories

    @property
    def num_snippets(self) -> int:
        return len(self._story_of)

    def story(self, story_id: str) -> Story:
        story = self._stories.get(story_id)
        if story is None:
            raise UnknownStoryError(story_id)
        return story

    def story_of(self, snippet_id: str) -> Story:
        story_id = self._story_of.get(snippet_id)
        if story_id is None:
            raise UnknownSnippetError(snippet_id)
        return self._stories[story_id]

    def story_ids(self) -> List[str]:
        return sorted(self._stories)

    @property
    def snippet_homes(self) -> Mapping[str, str]:
        """The live snippet id → story id map (read-only by convention;
        copy it to keep it: moves and re-keying rewrite it in place)."""
        return self._story_of

    def new_story(self) -> Story:
        """Create and register an empty story with a globally fresh id."""
        story_id = f"{self.source_id}/c{next(_story_counter):06d}"
        # the counter is process-global, but restored stories keep ids
        # minted elsewhere (a checkpoint, a forked shard process) that may
        # sit ahead of it — never clobber, skip to the next free id
        while story_id in self._stories:
            story_id = f"{self.source_id}/c{next(_story_counter):06d}"
        return self._register(story_id)

    def found_story(self) -> Story:
        """Create and register the empty story a refinement move founds.

        ``{source}/r{n:06d}``, one past the highest such id the set holds: a
        function of the set alone — equal sets found equal ids, on every
        node and in every generation — that sorts after every ``c`` id, in
        founding order, as ids from the counter did.
        """
        prefix = f"{self.source_id}/r"
        numbers = [
            int(story_id[len(prefix):]) for story_id in self._stories
            if story_id.startswith(prefix) and story_id[len(prefix):].isdigit()
        ]
        return self._register(f"{prefix}{max(numbers, default=-1) + 1:06d}")

    def _register(self, story_id: str) -> Story:
        story = Story(
            story_id,
            self.source_id,
            minhash=self._minhash,
            decay_half_life=self._decay_half_life,
        )
        self._stories[story_id] = story
        return story

    def adopt(self, story: Story) -> None:
        """Register ``story`` (of this source) under its own id."""
        if story.story_id in self._stories:
            raise ValueError(f"story id {story.story_id!r} already in use")
        self._stories[story.story_id] = story
        self._story_of.update(dict.fromkeys(story.members, story.story_id))

    def rebind_story_id(self, old_id: str, new_id: str) -> Story:
        """Re-key a registered story under ``new_id``.

        State restoration (checkpoints, WAL recovery) must preserve story
        ids across process restarts; :meth:`new_story` always allocates a
        fresh counter-based id, so restorers create a story and rebind it
        under the persisted id.  Snippet→story lookups follow the move.
        """
        story = self.story(old_id)
        if new_id == old_id:
            return story
        if new_id in self._stories:
            raise ValueError(f"story id {new_id!r} already in use")
        del self._stories[old_id]
        story.story_id = new_id
        self._stories[new_id] = story
        for snippet_id in story.snippet_ids():
            self._story_of[snippet_id] = new_id
        return story

    def assign(self, snippet: Snippet, story: Story) -> None:
        """Put a snippet into a story of this set."""
        if story.story_id not in self._stories:
            raise UnknownStoryError(story.story_id)
        story.add(snippet)
        self._story_of[snippet.snippet_id] = story.story_id

    def unassign(self, snippet_id: str) -> Snippet:
        """Remove a snippet from whatever story holds it; prune empties."""
        story = self.story_of(snippet_id)
        snippet = story.remove(snippet_id)
        del self._story_of[snippet_id]
        if len(story) == 0:
            del self._stories[story.story_id]
        return snippet

    def merge(self, keep_id: str, absorb_id: str) -> Story:
        """Merge story ``absorb_id`` into ``keep_id`` and drop it."""
        if keep_id == absorb_id:
            raise ValueError("cannot merge a story with itself")
        keep = self.story(keep_id)
        absorb = self.story(absorb_id)
        for snippet in absorb.snippets():
            absorb.remove(snippet.snippet_id)
            keep.add(snippet)
            self._story_of[snippet.snippet_id] = keep_id
        del self._stories[absorb_id]
        return keep

    def split(self, story_id: str, snippet_ids: Set[str]) -> Story:
        """Move ``snippet_ids`` out of ``story_id`` into a fresh story.

        Raises if the move would empty the original or move nothing.
        """
        story = self.story(story_id)
        if not snippet_ids:
            raise ValueError("split requires a non-empty snippet set")
        missing = snippet_ids - story.snippet_ids()
        if missing:
            raise UnknownSnippetError(sorted(missing)[0])
        if snippet_ids >= story.snippet_ids():
            raise ValueError("split must leave at least one snippet behind")
        fresh = self.new_story()
        for snippet_id in sorted(snippet_ids):
            snippet = story.remove(snippet_id)
            fresh.add(snippet)
            self._story_of[snippet_id] = fresh.story_id
        return fresh

    def as_clusters(self) -> Dict[str, Set[str]]:
        """story id → snippet ids (the shape evaluation metrics consume)."""
        return {
            story_id: story.snippet_ids()
            for story_id, story in self._stories.items()
        }

    def stories_by_size(self) -> List[Story]:
        return sorted(
            self._stories.values(), key=lambda s: (-len(s), s.story_id)
        )
