"""Core data model: sources, documents and information snippets.

The paper's elemental unit is the *information snippet* — e.g.
``<New York Times, Accident, {Ukraine, Malaysian Airlines}, "Plane Crash",
07/17/2014>``.  A snippet carries its data source, an event type, a set of
entities, a short description, free text content and two timestamps: when
the event *occurred* (``timestamp``, the axis stories evolve along) and when
the source *published* it (``published``, which may lag and arrive
out-of-order; Section 2.4).
"""

from __future__ import annotations

import datetime as _dt
import functools
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

#: Timestamps are POSIX seconds (UTC).  Convenience constants for callers.
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
WEEK = 7 * DAY


def parse_timestamp(text: str) -> float:
    """Parse ``MM/DD/YYYY`` or ISO ``YYYY-MM-DD[ HH:MM]`` into POSIX seconds.

    >>> parse_timestamp("07/17/2014") == parse_timestamp("2014-07-17")
    True
    """
    text = text.strip()
    for fmt in ("%m/%d/%Y", "%Y-%m-%d %H:%M", "%Y-%m-%d"):
        try:
            parsed = _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=_dt.timezone.utc).timestamp()
    raise ValueError(f"unrecognized timestamp format: {text!r}")


def format_timestamp(timestamp: float, with_time: bool = False) -> str:
    """Render POSIX seconds as a human-readable UTC date.

    >>> format_timestamp(parse_timestamp("07/17/2014"))
    'Jul 17, 2014'
    """
    day, second = divmod(timestamp, DAY)
    # fromtimestamp rounds to the microsecond, so a day's last instant
    # may render as the next day's date: that second goes the long way
    if with_time or second > DAY - 1.0:
        moment = _dt.datetime.fromtimestamp(timestamp, tz=_dt.timezone.utc)
        return moment.strftime("%b %d, %Y %H:%M" if with_time else "%b %d, %Y")
    return _format_day(day)


@functools.lru_cache(maxsize=4096)
def _format_day(day: float) -> str:
    # memoized: a view build renders thousands of dates on a few hundred days
    moment = _dt.datetime.fromtimestamp(day * DAY, tz=_dt.timezone.utc)
    return moment.strftime("%b %d, %Y")


#: Default source trust on the 0–10 ladder (see :attr:`Source.trust`).
DEFAULT_TRUST = 5


@dataclass(frozen=True)
class Source:
    """A data source: a newspaper, blog, wire service, social feed etc.

    ``trust`` grades editorial reliability on a 0–10 ladder (wire
    services ≈ 9, papers of record ≈ 8, anonymous blogs ≈ 3).  It is
    metadata only until
    :attr:`~repro.core.config.StoryPivotConfig.trust_weighted_alignment`
    is enabled, at which point the aligner scales cross-source alignment
    confidence by the pair's trust.
    """

    source_id: str
    name: str
    kind: str = "newspaper"
    trust: int = DEFAULT_TRUST

    def __post_init__(self) -> None:
        if not self.source_id:
            raise ValueError("source_id must be non-empty")
        if not 0 <= self.trust <= 10:
            raise ValueError(
                f"trust must be in [0, 10], got {self.trust}"
            )


@dataclass(frozen=True)
class Document:
    """A published document (news article, blog post) before extraction.

    ``body`` is the raw text the extraction pipeline splits into excerpts;
    ``url`` mirrors the document-selection module of the demo (Figure 3).
    """

    document_id: str
    source_id: str
    title: str
    body: str
    published: float
    url: str = ""

    @property
    def preview(self) -> str:
        """First ~100 characters of the body, as shown in Figure 3."""
        text = self.body.strip().replace("\n", " ")
        if len(text) <= 100:
            return text
        return text[:97] + "..."


@dataclass(frozen=True, slots=True)
class Snippet:
    """An information snippet — the elemental unit StoryPivot processes.

    ``entities`` and ``keywords`` are the annotations OpenCalais would
    attach; ``description`` is the short event description from the paper's
    tuple format; ``text`` is the underlying excerpt.  ``timestamp`` is the
    real-world occurrence time; ``published`` defaults to it but can lag.

    Every snippet seen is kept, once per copy of the state, so a snippet
    has slots and no ``__dict__``: nothing but a declared slot can be set
    on one.  Its features are held once: ``entities`` and the one memo,
    ``_match_terms`` (the tuple :func:`repro.storage.event_store.match_terms`
    builds), outside ``==``, ``hash`` and ``repr`` and never copied or
    pickled.  Scoring builds its term sets per call and stores none.
    """

    snippet_id: str
    source_id: str
    timestamp: float
    description: str
    entities: FrozenSet[str] = frozenset()
    keywords: Tuple[str, ...] = ()
    text: str = ""
    event_type: str = "unknown"
    document_id: str = ""
    url: str = ""
    published: Optional[float] = None
    _match_terms: Optional[Tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.snippet_id:
            raise ValueError("snippet_id must be non-empty")
        if not self.source_id:
            raise ValueError("source_id must be non-empty")
        if self.published is None:
            # frozen dataclass: write through object.__setattr__
            object.__setattr__(self, "published", self.timestamp)

    def __reduce__(self):
        # through __init__ on every Python: the memo is rebuilt, not shipped
        return Snippet, (
            self.snippet_id, self.source_id, self.timestamp, self.description,
            self.entities, self.keywords, self.text, self.event_type,
            self.document_id, self.url, self.published,
        )

    @property
    def content(self) -> str:
        """The matchable content: description plus underlying text."""
        if self.text and self.text != self.description:
            return f"{self.description} {self.text}"
        return self.description

    @property
    def date(self) -> str:
        """Occurrence date, e.g. ``'Jul 17, 2014'`` (Figure 5's timestamp row)."""
        return format_timestamp(self.timestamp)

    def delay(self) -> float:
        """Publication lag in seconds (0 for instantly published snippets)."""
        assert self.published is not None
        return self.published - self.timestamp


@dataclass(frozen=True)
class SnippetRef:
    """Lightweight (source, snippet) reference used in alignment edges."""

    source_id: str
    snippet_id: str


@dataclass
class TimeSpan:
    """A closed interval on the event-time axis."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"TimeSpan end {self.end} precedes start {self.start}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, timestamp: float) -> bool:
        return self.start <= timestamp <= self.end

    def overlaps(self, other: "TimeSpan", slack: float = 0.0) -> bool:
        """Whether the spans intersect when each is widened by ``slack``."""
        return self.start - slack <= other.end and other.start - slack <= self.end

    def gap(self, other: "TimeSpan") -> float:
        """Temporal gap between the spans; 0 when they overlap."""
        if self.overlaps(other):
            return 0.0
        if self.end < other.start:
            return other.start - self.end
        return self.start - other.end

    @staticmethod
    def around(timestamps: "list[float]") -> "TimeSpan":
        if not timestamps:
            raise ValueError("cannot build a TimeSpan around no timestamps")
        return TimeSpan(min(timestamps), max(timestamps))
