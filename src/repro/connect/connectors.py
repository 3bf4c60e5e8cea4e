"""Built-in source connectors: JSONL replay, RSS/Atom, GDELT TSV, simulator.

Each connector is a thin adapter from one upstream format to
:class:`~repro.connect.base.RawItem` streams.  Connectors deliberately do
**no** validation beyond "could I read the container at all": a readable
file full of garbage yields garbage raw items, and the normalizer decides
their fate.  File-backed connectors remember their read offset, so a
repeated ``pull()`` tails newly appended data — the GDELT interval-release
pattern ("updates over fixed time intervals") and the shape a polling
crawl has.
"""

from __future__ import annotations

import json
import os
import re
import urllib.request
import xml.etree.ElementTree as ET
from typing import Dict, Iterator, List, Optional, Tuple

from repro.connect.base import RawItem, SourceConnector, register
from repro.core.streaming import BoundedSeenSet
from repro.errors import ConfigurationError
from repro.obs.propagate import inject_headers

#: Alias map: loosely standard RawItem key <- upstream spellings, tried in
#: order.  Lets one JSONL connector replay corpus exports, EventRegistry
#: dumps and ad-hoc scraper output without per-format subclasses.
FIELD_ALIASES: Dict[str, Tuple[str, ...]] = {
    "id": ("id", "snippet_id", "guid", "uri", "event_id"),
    "source": ("source", "source_id", "feed", "site", "outlet"),
    "title": ("title", "headline"),
    "description": ("description", "summary", "abstract"),
    "body": ("body", "text", "content", "article"),
    "published": ("published", "pubDate", "pub_date", "published_at",
                  "date", "updated"),
    "timestamp": ("timestamp", "occurred", "occurred_at", "event_time",
                  "eventTime", "sqldate"),
    "entities": ("entities", "actors", "concepts"),
    "keywords": ("keywords", "terms", "tags", "categories"),
    "event_type": ("event_type", "eventType", "cameo"),
    "url": ("url", "link", "source_url"),
    "story_label": ("story_label", "story", "label"),
}


def map_fields(record: Dict[str, object]) -> Dict[str, object]:
    """Project an upstream record onto the standard RawItem keys."""
    fields: Dict[str, object] = {}
    for key, aliases in FIELD_ALIASES.items():
        for alias in aliases:
            if alias in record and record[alias] is not None:
                fields[key] = record[alias]
                break
    return fields


def _require_file(path: str, scheme: str) -> None:
    """Fail construction on a locator that names nothing.

    A mid-run disappearance is transient upstream trouble the resilience
    stack retries, but a path that is already wrong when the connector
    is built is a typo: surface it as the CLIs' ``error: ...``/exit-2
    misuse contract instead of serving an eternally empty feed.
    """
    if not os.path.exists(path):
        raise ConfigurationError(
            f"{scheme} connector: no such file: {path}"
        )


def _read_new_text(path: str, offset: int) -> Tuple[str, int]:
    """Bytes appended past ``offset``, decoded leniently; new offset."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        blob = handle.read()
    return blob.decode("utf-8", errors="replace"), offset + len(blob)


def _is_http_locator(locator: str) -> bool:
    return locator.startswith(("http://", "https://"))


def _fetch_url_text(url: str, timeout: float = 10.0) -> str:
    """One HTTP pull of a remote feed document, decoded leniently.

    The request carries the ambient ``traceparent`` (when the pull runs
    under a ``connect.pull`` span), so a traced ingest cycle is
    attributable end to end — upstream log line to shard integration.
    """
    request = urllib.request.Request(url, headers=inject_headers())
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read().decode("utf-8", errors="replace")


@register("jsonl")
class JsonlReplayConnector(SourceConnector):
    """Replay a JSONL file: corpus exports, recorded fixtures, scraper dumps.

    One JSON object per line; lines that fail to parse are still yielded
    (as a body-only raw item) so the gauntlet can count the rejection —
    a recorded hostile fixture must reproduce its rejections, not skip
    them.  Corpus bookkeeping records (``kind`` of ``corpus``/``source``/
    ``document``) are skipped: the replay unit is the snippet-ish record.
    """

    scheme = "jsonl"

    def __init__(self, locator: str) -> None:
        super().__init__(locator)
        if not locator:
            raise ConfigurationError("jsonl connector needs a file path")
        _require_file(locator, "jsonl")
        self._offset = 0
        self._seq = 0

    def default_source(self) -> Optional[str]:
        base = os.path.basename(self.locator).rsplit(".", 1)[0]
        return base or "jsonl"

    def pull(self) -> Iterator[RawItem]:
        text, self._offset = _read_new_text(self.locator, self._offset)
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            self._seq += 1
            try:
                record = json.loads(line)
            except ValueError:
                yield RawItem(self.name, self._seq, {"body": line},
                              note="json_salvaged")
                continue
            if not isinstance(record, dict):
                yield RawItem(self.name, self._seq, {"body": line},
                              note="json_salvaged")
                continue
            if record.get("kind") in ("corpus", "source", "document"):
                continue
            yield RawItem(self.name, self._seq, map_fields(record))


def _local(tag: object) -> str:
    """Element tag without its XML namespace (Atom vs RSS agnostic)."""
    if not isinstance(tag, str):
        return ""
    return tag.rpartition("}")[2].lower()


def _slug(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return slug[:64]


_ENTRY_BLOCK = re.compile(
    r"<(item|entry)\b[^>]*>(.*?)(?:</\1\s*>|(?=<(?:item|entry)\b)|\Z)",
    re.IGNORECASE | re.DOTALL,
)
_ENTRY_FIELD = re.compile(
    r"<(title|description|summary|content|pubdate|published|updated|guid|id|link)\b[^>]*>"
    r"\s*(?:<!\[CDATA\[)?(.*?)(?:\]\]>)?\s*</\1\s*>",
    re.IGNORECASE | re.DOTALL,
)

_RSS_FIELD_FOR_TAG = {
    "title": "title",
    "description": "description",
    "summary": "description",
    "content": "body",
    "encoded": "body",          # content:encoded
    "pubdate": "published",
    "published": "published",
    "updated": "published",
    "date": "published",        # dc:date
    "guid": "id",
    "id": "id",
    "link": "url",
    "source": "source",
    "category": "keywords",
}


@register("rss")
class RssConnector(SourceConnector):
    """RSS 2.0 / Atom feed connector (stdlib ``xml.etree`` parse).

    A well-formed feed is walked namespace-agnostically, so RSS
    ``<item>`` and Atom ``<entry>`` both work.  A *malformed* feed —
    unclosed tags, stray ampersands, truncated downloads are everyday
    RSS reality — falls back to a regex entry scanner: whatever entries
    can be salvaged are yielded flagged ``markup_salvaged``, and their
    remaining damage is the normalizer's problem.  Only a feed with no
    recognizable entries at all raises (for the retry/breaker stack).
    """

    scheme = "rss"

    def __init__(self, locator: str) -> None:
        super().__init__(locator)
        if not locator:
            raise ConfigurationError(
                "rss connector needs a file path or http(s) URL"
            )
        # rss:http://host/feed.xml polls a live feed; anything else is
        # a local file checked at construction like the other schemes
        if not _is_http_locator(locator):
            _require_file(locator, "rss")
        self._seq = 0
        # bounded: a long-polled feed must not grow this without limit,
        # and the oldest ids are the ones the feed has already rotated out
        self._seen_ids = BoundedSeenSet(4096)
        self._feed_title = ""

    def default_source(self) -> Optional[str]:
        if self._feed_title:
            return _slug(self._feed_title)
        base = os.path.basename(self.locator).rsplit(".", 1)[0]
        return _slug(base) or "rss"

    def pull(self) -> Iterator[RawItem]:
        if _is_http_locator(self.locator):
            text = _fetch_url_text(self.locator)
        else:
            text, _ = _read_new_text(self.locator, 0)
        try:
            root = ET.fromstring(text)
        except ET.ParseError:
            entries = list(self._scavenge(text))
            if not entries:
                raise
            yield from self._emit(entries)
            return
        yield from self._emit(self._walk(root))

    # Re-pulling a feed re-reads the whole document (feeds are replaced,
    # not appended), so entry ids already yielded are skipped here — the
    # polling dedup every aggregator does before content-level dedup.
    def _emit(self, entries: List[Tuple[Dict[str, object], str]]
              ) -> Iterator[RawItem]:
        for fields, note in entries:
            marker = str(fields.get("id") or fields.get("url")
                         or fields.get("title") or "")
            if marker and not self._seen_ids.add(marker):
                continue
            self._seq += 1
            yield RawItem(self.name, self._seq, fields, note=note)

    def _walk(self, root) -> List[Tuple[Dict[str, object], str]]:
        entries = []
        for element in root.iter():
            tag = _local(element.tag)
            if tag in ("title",) and not self._feed_title:
                # first title in document order is the channel/feed title
                self._feed_title = (element.text or "").strip()
            if tag not in ("item", "entry"):
                continue
            fields: Dict[str, object] = {}
            keywords: List[str] = []
            for child in element:
                ctag = _local(child.tag)
                key = _RSS_FIELD_FOR_TAG.get(ctag)
                if key is None:
                    continue
                value = (child.text or "").strip()
                if ctag == "link" and not value:
                    value = (child.get("href") or "").strip()  # Atom link
                if not value:
                    continue
                if key == "keywords":
                    keywords.append(value)
                elif key not in fields:
                    fields[key] = value
            if keywords:
                fields["keywords"] = keywords
            entries.append((fields, ""))
        return entries

    @staticmethod
    def _scavenge(text: str) -> Iterator[Tuple[Dict[str, object], str]]:
        for match in _ENTRY_BLOCK.finditer(text):
            block = match.group(2)
            fields: Dict[str, object] = {}
            for field_match in _ENTRY_FIELD.finditer(block):
                key = _RSS_FIELD_FOR_TAG.get(field_match.group(1).lower())
                value = field_match.group(2).strip()
                if key and value and key not in fields:
                    fields[key] = value
            if fields:
                yield fields, "markup_salvaged"


@register("gdelt")
class GdeltTailConnector(SourceConnector):
    """Tail a GDELT-flavoured TSV export (the interval-release format).

    The header row (when present) is validated loosely and skipped; each
    data row is projected through the column schema of
    :data:`repro.eventdata.gdelt.GDELT_COLUMNS` into a raw item.  Short
    rows yield what columns they have (the gauntlet rejects them if the
    essentials are missing); long rows — embedded tabs — keep their
    leading columns.  Re-pulling resumes at the remembered byte offset.
    """

    scheme = "gdelt"

    def __init__(self, locator: str) -> None:
        super().__init__(locator)
        if not locator:
            raise ConfigurationError("gdelt connector needs a file path")
        _require_file(locator, "gdelt")
        self._offset = 0
        self._seq = 0
        self._header_skipped = False

    def default_source(self) -> Optional[str]:
        return "gdelt"

    def pull(self) -> Iterator[RawItem]:
        from repro.eventdata.gdelt import GDELT_COLUMNS, CAMEO_CODES

        reverse_cameo = {code: name for name, code in CAMEO_CODES.items()}
        text, self._offset = _read_new_text(self.locator, self._offset)
        for line in text.splitlines():
            if not line.strip():
                continue
            cells = line.split("\t")
            if not self._header_skipped:
                self._header_skipped = True
                if cells[0].strip() == GDELT_COLUMNS[0]:
                    continue
            self._seq += 1
            record = dict(zip(GDELT_COLUMNS, cells))
            note = "" if len(cells) == len(GDELT_COLUMNS) else "tsv_ragged"
            fields: Dict[str, object] = {
                "id": record.get("GLOBALEVENTID"),
                "source": record.get("SourceId"),
                "description": record.get("Description"),
                "entities": record.get("Actors"),
                "keywords": record.get("Keywords"),
                "url": record.get("SOURCEURL"),
                "story_label": record.get("StoryLabel"),
                "timestamp": record.get("TimestampUnix")
                or record.get("SQLDATE"),
                "published": record.get("PublishedUnix"),
                "event_type": reverse_cameo.get(
                    str(record.get("EventCode", "")).strip(), None
                ),
            }
            yield RawItem(
                self.name, self._seq,
                {k: v for k, v in fields.items() if v not in (None, "")},
                note=note,
            )


@register("sim")
class SimConnector(SourceConnector):
    """The in-process simulator as a connector: ``sim:N[:sources[:seed]]``.

    Keeps the synthetic workload reachable through the same ``--source``
    grammar as live feeds, and gives benchmarks a clean corpus whose raw
    and gauntlet-fed forms are byte-identical inputs.
    """

    scheme = "sim"

    def __init__(self, locator: str) -> None:
        super().__init__(locator)
        parts = [p for p in locator.split(":") if p] if locator else []
        try:
            self.total_events = int(parts[0]) if parts else 500
            self.num_sources = int(parts[1]) if len(parts) > 1 else 5
            self.seed = int(parts[2]) if len(parts) > 2 else 42
        except ValueError as exc:
            raise ConfigurationError(
                f"sim spec must be sim:N[:sources[:seed]], got sim:{locator!r}"
            ) from exc
        if self.total_events <= 0 or self.num_sources <= 0:
            raise ConfigurationError("sim events/sources must be positive")
        self._seq = 0

    def default_source(self) -> Optional[str]:
        return "sim"

    def pull(self) -> Iterator[RawItem]:
        from repro.eventdata.sourcegen import synthetic_corpus

        corpus = synthetic_corpus(
            total_events=self.total_events,
            num_sources=self.num_sources,
            seed=self.seed,
        )
        labels = corpus.truth.labels
        for snippet in corpus.snippets_by_publication():
            self._seq += 1
            fields: Dict[str, object] = {
                "id": snippet.snippet_id,
                "source": snippet.source_id,
                "description": snippet.description,
                "body": snippet.text,
                "timestamp": snippet.timestamp,
                "published": snippet.published,
                "entities": sorted(snippet.entities),
                "keywords": list(snippet.keywords),
                "event_type": snippet.event_type,
                "url": snippet.url,
            }
            label = labels.get(snippet.snippet_id)
            if label is not None:
                fields["story_label"] = label
            yield RawItem(self.name, self._seq, fields)
