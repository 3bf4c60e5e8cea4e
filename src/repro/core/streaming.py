"""Dynamic (streaming) integration of identification and alignment.

Section 2.4: snippets "are generated dynamically every time a news document
is published online", sources "do not necessarily publish their information
in a temporally ordered manner", and the system must provide "live
information on ongoing stories".  The :class:`StreamProcessor` consumes
snippets in *publication* order (which is out-of-order along the event-time
axis), deduplicates re-deliveries against a window of recent ids, keeps
identification fully incremental, and refreshes alignment+refinement every
``realign_every`` arrivals so a live view is always available.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional

from repro.core.config import StoryPivotConfig
from repro.core.live_alignment import LiveAligner
from repro.core.pipeline import PivotResult, StoryPivot
from repro.errors import DuplicateSnippetError
from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Snippet


class BoundedSeenSet:
    """Insertion-ordered set that evicts its oldest member beyond capacity.

    The fast path of stream deduplication.  An unbounded set
    grows forever on an infinite feed; this one keeps the most recent
    ``capacity`` ids.  The trade-off of evicting: a re-delivery *older*
    than the retained window is no longer confirmed here and falls through
    to the identifier's exact per-snippet check (still a duplicate, just
    off the fast path) — and if that snippet had meanwhile been *removed*
    from the system, the stale re-delivery is accepted as new (a false
    non-duplicate).  Size ``capacity`` to exceed the redelivery horizon of
    the feed, not its total cardinality.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._entries

    def add(self, item: Hashable) -> bool:
        """Insert; returns False if already present.  Evicts the oldest."""
        if item in self._entries:
            return False
        self._entries[item] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return True

    def discard(self, item: Hashable) -> None:
        self._entries.pop(item, None)


@dataclass
class StreamStats:
    arrived: int = 0
    accepted: int = 0
    duplicates: int = 0
    realignments: int = 0
    max_disorder: float = 0.0  # largest event-time regression observed


class StreamProcessor:
    """Live wrapper around :class:`StoryPivot`."""

    def __init__(
        self,
        config: Optional[StoryPivotConfig] = None,
        realign_every: int = 100,
        dedup_capacity: int = 100_000,
        live_alignment: bool = False,
    ) -> None:
        if realign_every <= 0:
            raise ValueError("realign_every must be positive")
        self.pivot = StoryPivot(config)
        self.realign_every = realign_every
        self.stats = StreamStats()
        self.live_alignment = live_alignment
        self._live: Optional[LiveAligner] = (
            LiveAligner(self.pivot.config) if live_alignment else None
        )
        self._seen = BoundedSeenSet(dedup_capacity)
        self._since_alignment = 0
        self._latest_event_time: Optional[float] = None
        self._result: Optional[PivotResult] = None

    # -- ingestion --------------------------------------------------------

    def offer(self, snippet: Snippet) -> bool:
        """Deliver one snippet; returns False for duplicates.

        Recent re-deliveries are answered by the bounded seen-set without
        touching identification; an id evicted from it (older than
        ``dedup_capacity`` arrivals) is caught by the identifier's own
        exact check instead — see :class:`BoundedSeenSet` for the
        trade-off.  The seen-set admits an id only once integration
        succeeded, so a snippet whose first attempt raised is integrated
        when it is offered again.
        """
        self.stats.arrived += 1
        if snippet.snippet_id in self._seen:
            self.stats.duplicates += 1
            return False
        try:
            story = self.pivot.add_snippet(snippet)
        except DuplicateSnippetError:
            # evicted from the bounded seen-set but still live in a story
            self.stats.duplicates += 1
            return False
        self._seen.add(snippet.snippet_id)
        if self._latest_event_time is not None:
            regression = self._latest_event_time - snippet.timestamp
            if regression > self.stats.max_disorder:
                self.stats.max_disorder = regression
        self._latest_event_time = max(
            self._latest_event_time or snippet.timestamp, snippet.timestamp
        )
        self.stats.accepted += 1
        if self._live is not None:
            if story.source_id not in self._live._story_sets:
                self._live.attach_story_set(
                    self.pivot.identifier(story.source_id).stories
                )
            else:
                self._live.update_story(story)
        self._since_alignment += 1
        if self._since_alignment >= self.realign_every:
            if self._live is not None:
                self._live.compact()  # periodic corrective pass, no rescan
                self._since_alignment = 0
            else:
                self.flush()
        return True

    def consume(self, snippets: Iterable[Snippet]) -> "StreamProcessor":
        for snippet in snippets:
            self.offer(snippet)
        return self

    def consume_corpus(self, corpus: Corpus) -> "StreamProcessor":
        """Replay a corpus in publication order (the live delivery order)."""
        return self.consume(corpus.snippets_by_publication())

    # -- views -------------------------------------------------------------

    def flush(self) -> PivotResult:
        """Refresh the live view.

        With ``live_alignment`` the view is the incremental aligner's
        snapshot (no full pair rescan and no refinement — the trade the
        live mode makes); otherwise alignment (+refinement) is recomputed.
        """
        if self._live is not None:
            alignment = self._live.snapshot()
            self._result = PivotResult(
                story_sets=self.pivot.story_sets(),
                alignment=alignment,
                refinement=None,
            )
        else:
            self._result = self.pivot.finish()
        self._since_alignment = 0
        self.stats.realignments += 1
        return self._result

    def result(self) -> PivotResult:
        """The live view; recomputes only if arrivals happened since."""
        if self._result is None or self._since_alignment > 0:
            return self.flush()
        return self._result

    def pending(self) -> int:
        """Arrivals since the last alignment refresh."""
        return self._since_alignment


def replay_out_of_order(
    corpus: Corpus,
    config: Optional[StoryPivotConfig] = None,
    realign_every: int = 100,
) -> PivotResult:
    """Convenience: stream a corpus in publication order, return final view."""
    processor = StreamProcessor(config, realign_every=realign_every)
    processor.consume_corpus(corpus)
    return processor.flush()
