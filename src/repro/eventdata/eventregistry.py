"""EventRegistry-style document feed.

EventRegistry serves article documents (title + body + metadata) that
StoryPivot's extraction pipeline turns into snippets.  This module renders
synthetic ground events as such documents — the input format of
:mod:`repro.extraction.pipeline` — and provides a feed abstraction that
yields documents in *publication* order, which is how a live crawl would
deliver them (and is deliberately not occurrence order; Section 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Document


@dataclass(frozen=True)
class FeedItem:
    """One feed entry: a document plus optional ground-truth story label."""

    document: Document
    story_label: Optional[str] = None


class DocumentFeed:
    """Iterate documents of a corpus in publication order.

    ``batches(window)`` groups the feed into fixed-duration publication
    windows, mirroring how repositories like GDELT release updates "over
    fixed time intervals (e.g., daily)".
    """

    def __init__(self, corpus: Corpus) -> None:
        self._corpus = corpus
        self._items = self._build_items()

    def _build_items(self) -> List[FeedItem]:
        items = []
        snippet_by_doc = {}
        for snippet in self._corpus.snippets():
            if snippet.document_id:
                snippet_by_doc[snippet.document_id] = snippet
        for document in self._corpus.documents.values():
            snippet = snippet_by_doc.get(document.document_id)
            label = None
            if snippet is not None:
                label = self._corpus.truth.labels.get(snippet.snippet_id)
            items.append(FeedItem(document, label))
        items.sort(key=lambda item: (item.document.published, item.document.document_id))
        return items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[FeedItem]:
        return iter(self._items)

    def documents(self) -> List[Document]:
        return [item.document for item in self._items]

    def batches(self, window: float) -> Iterator[List[FeedItem]]:
        """Yield feed items grouped into publication windows of ``window`` s.

        Empty intermediate windows are skipped; items within a batch keep
        publication order.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        if not self._items:
            return
        batch: List[FeedItem] = []
        batch_end = self._items[0].document.published + window
        for item in self._items:
            if item.document.published >= batch_end:
                if batch:
                    yield batch
                batch = []
                while item.document.published >= batch_end:
                    batch_end += window
            batch.append(item)
        if batch:
            yield batch


class ResilientFeed:
    """A feed whose pulls ride a retry schedule behind a circuit breaker.

    Wraps any iterable of feed items (a :class:`DocumentFeed`, a chaos
    wrapper, a network-backed generator) so that transient pull errors
    are retried on a deterministic backoff schedule and a *persistently*
    failing upstream trips a breaker instead of hammering it: pulls then
    fail fast with :class:`~repro.resilience.breaker.CircuitOpenError`
    until the reset timeout lets a probe through.  Because an injected or
    upstream error surfaces *before* an item is consumed, a retried pull
    never loses data.
    """

    def __init__(
        self,
        feed,
        retry=None,
        breaker=None,
        sleep=None,
        name: str = "feed",
    ) -> None:
        from repro.resilience.breaker import CircuitBreaker
        from repro.resilience.policies import RetryPolicy

        self.feed = feed
        self.name = name
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=4, base_delay=0.05, factor=2.0, max_delay=1.0
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            name=name, failure_threshold=0.5, window=20, min_calls=5,
            reset_timeout=2.0,
        )
        self._sleep = sleep

    def __iter__(self) -> Iterator:
        return self.pulls()

    def pulls(self, deadline=None) -> Iterator:
        """Iterate the feed; a ``deadline`` bounds the whole iteration."""
        from repro.resilience.policies import resilient_iter

        kwargs = {"retry": self.retry, "breaker": self.breaker,
                  "key": self.name, "deadline": deadline}
        if self._sleep is not None:
            kwargs["sleep"] = self._sleep
        return resilient_iter(iter(self.feed), **kwargs)

    def __len__(self) -> int:
        return len(self.feed)


def feed_from_events(
    events: Sequence, profiles: Sequence, seed: int = 7
) -> DocumentFeed:
    """Render ground events through the source simulator into a feed."""
    from repro.eventdata.sourcegen import SourceSimulator

    simulator = SourceSimulator(profiles, seed=seed)
    corpus = simulator.make_corpus(events, render_documents=True)
    return DocumentFeed(corpus)
