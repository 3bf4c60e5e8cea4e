"""The hostile-input normalization gauntlet.

Everything a live feed can throw at a parser lands here, and exactly two
things may come out: a clean :class:`~repro.eventdata.models.Snippet`,
or a :class:`Rejection` with a reason — **never** an exception.  The
categories the gauntlet is built to survive (each exercised by a
recorded fixture in ``tests/fixtures/connect/``):

* messy/ambiguous timestamps — a dozen wire formats, missing
  timezones (assumed UTC, counted), epoch-in-milliseconds;
* encoding damage — invalid UTF-8, mojibake (UTF-8 read as cp1252),
  BOMs, control characters;
* oversized or truncated fields — clipped to budget, counted;
* malformed markup — tags and entities stripped;
* near-duplicate storms — content-fingerprint dedup over a bounded
  window;
* coverage gaps — publication silences beyond a threshold are counted
  (a gap is telemetry, not a defect in the item that ends it);
* clock skew — published-in-the-future beyond a configurable
  tolerance is clamped to the clock, counted.

Salvageable damage is *repaired* and counted per reason
(:data:`REPAIR_REASONS`); unsalvageable records are *rejected* per
reason (:data:`REJECT_REASONS`) for the caller to quarantine.  Repair
vs reject is the normalize-then-admit line DESIGN.md argues for:
downstream code never sees an unnormalized byte.
"""

from __future__ import annotations

import datetime as _dt
import email.utils
import html as _html
import re
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.connect.base import RawItem
from repro.core.streaming import BoundedSeenSet
from repro.errors import ConfigurationError
from repro.eventdata.models import DAY, HOUR, Snippet

#: repair reasons (salvaged items; counted, admitted)
REPAIR_REASONS = (
    "tz_assumed",          # naive timestamp, UTC assumed
    "epoch_ms",            # epoch given in milliseconds, rescaled
    "timestamp_assumed",   # occurrence time missing, published used
    "encoding_replaced",   # invalid UTF-8 bytes replaced
    "mojibake",            # cp1252-mangled UTF-8 re-decoded
    "bom_stripped",        # byte-order mark removed
    "control_chars",       # C0/C1 control characters removed
    "truncated",           # oversized field clipped to budget
    "markup_stripped",     # HTML/XML tags and entities removed
    "clock_skew_clamped",  # published beyond skew tolerance, clamped
    "published_repaired",  # published before occurrence, lifted
    "id_synthesized",      # record had no id; content hash minted
    "source_assumed",      # record had no source; connector default
    # connector-flagged salvage notes (RawItem.note) also land here:
    "markup_salvaged",     # rss: entry scavenged from broken XML
    "json_salvaged",       # jsonl: unparseable line kept as raw body
    "tsv_ragged",          # gdelt: row with the wrong column count
)

#: rejection reasons (unsalvageable records; counted, quarantined)
REJECT_REASONS = (
    "bad_timestamp",    # no parseable occurrence or publication time
    "missing_source",   # no source id and no connector default
    "empty_content",    # nothing textual survived cleaning
    "near_duplicate",   # content fingerprint already admitted
    "malformed_record", # record is not even a field mapping
    "internal",         # normalizer bug — counted, never raised
)

_BOMS = ("﻿", "￾")
# C0 and C1 control chars minus \t \n \r (which are whitespace-collapsed)
_CONTROL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")
_MOJIBAKE_MARKERS = re.compile(r"[ÃÂ]|â€")
_TAG = re.compile(r"<[^<>]{0,512}>")
_SCRIPTISH = re.compile(
    r"<(script|style)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_WS = re.compile(r"\s+")
_TOKEN = re.compile(r"[a-z0-9]+")


class _SeparatorTable(dict):
    """str.translate table: keep [a-z0-9], everything else becomes a
    space.  Self-extending, so the first sighting of any code point pays
    the lookup and every later one is a plain dict hit; tokenizing with
    ``text.translate(table).split()`` matches ``_TOKEN.findall(text)``
    on lowercased input but skips the regex engine."""

    def __missing__(self, point: int) -> int:
        keep = 48 <= point <= 57 or 97 <= point <= 122
        result = self[point] = point if keep else 32
        return result


_SEPARATORS = _SeparatorTable()
# one scan deciding whether a field needs any cleaning at all: control
# chars, BOMs, replacement chars, mojibake lead bytes (Â Ã â), markup,
# entities, tab/newline.  Kept a pure character class — adding the
# whitespace alternations (runs of spaces, leading/trailing space) here
# would knock the regex engine off its fast single-class scan, so those
# three checks ride alongside as C-speed string operations in _clean.
_NEEDS_WORK = re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f"
    "﻿￾�<&ÂÃâ\t\n\r]"
)

#: strptime formats tried, in order, after the structured parsers
#: (ISO 8601 via ``fromisoformat``, RFC 822/1123 via ``email.utils``,
#: raw epochs).  Together they cover the 12+ wire formats the golden
#: date suite pins.
TIMESTAMP_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
    "%m/%d/%Y %H:%M",
    "%m/%d/%Y",
    "%Y/%m/%d",
    "%Y%m%d%H%M%S",
    "%Y%m%d",
    "%d %b %Y %H:%M:%S",
    "%d %b %Y",
    "%b %d, %Y",
    "%d.%m.%Y",
)


class _Rejected(Exception):
    """Internal control flow: a record failed the gauntlet."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class Rejection:
    """The normalizer's verdict on an unsalvageable record."""

    raw: RawItem
    reason: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class NormalizedItem:
    """A record that survived the gauntlet (possibly repaired)."""

    snippet: Snippet
    story_label: Optional[str] = None
    repairs: Tuple[str, ...] = ()
    gap_seconds: float = 0.0  # publication silence this item ended


@dataclass(frozen=True)
class NormalizerConfig:
    """Budgets and tolerances of the gauntlet."""

    max_id_chars: int = 256
    max_title_chars: int = 512
    max_body_chars: int = 8192
    max_term_chars: int = 128
    max_terms: int = 64
    skew_tolerance: float = 1 * DAY       # future-published beyond this: clamp
    gap_threshold: float = 12 * HOUR      # per-source silence worth counting
    dedup_window: int = 4096              # content fingerprints remembered
    min_timestamp: float = 0.0            # epoch floor (pre-1970 rejected)
    max_timestamp: float = 4102444800.0   # 2100-01-01: beyond is garbage

    def __post_init__(self) -> None:
        if self.skew_tolerance < 0 or self.gap_threshold < 0:
            raise ConfigurationError("tolerances must be non-negative")
        if self.dedup_window < 0:
            raise ConfigurationError("dedup_window must be non-negative")
        if self.max_timestamp <= self.min_timestamp:
            raise ConfigurationError(
                "max_timestamp must exceed min_timestamp"
            )


class Normalizer:
    """Stateful gauntlet: one instance per connector stream.

    State is the dedup window, the per-source publication cursors (for
    gap detection) and the per-reason counters.  ``clock`` is injected
    so skew handling is deterministic under test; production uses the
    wall clock, which is correct here — admission control is serving
    code, not the deterministic identification core.
    """

    def __init__(
        self,
        config: Optional[NormalizerConfig] = None,
        clock=time.time,
        default_source: Optional[str] = None,
    ) -> None:
        self.config = config if config is not None else NormalizerConfig()
        self._clock = clock
        self.default_source = default_source
        self.repairs: Dict[str, int] = {}
        self.rejections: Dict[str, int] = {}
        self.gaps = 0
        self.admitted = 0
        self._seen = (
            BoundedSeenSet(self.config.dedup_window)
            if self.config.dedup_window
            else None
        )
        self._last_published: Dict[str, float] = {}
        self._synth_counter = 0
        # strings proven clean by a previous fast-path scan; wire feeds
        # repeat source ids, event types, entities and keywords endlessly,
        # so most _clean calls become one dict hit.  Only scan-clean,
        # unclipped strings land here, so a hit has no side effects.
        self._known_clean: Dict[str, None] = {}

    # -- public API --------------------------------------------------------

    # sp-taint: sanitizer -- the gauntlet: output is clean or a Rejection
    def normalize(
        self, raw: RawItem
    ) -> Union[NormalizedItem, Rejection]:
        """Run one raw item through the gauntlet.  Never raises."""
        try:
            return self._normalize(raw)
        except _Rejected as verdict:
            return self._reject(raw, verdict.reason, verdict.detail)
        except Exception as exc:  # noqa: BLE001 -- the gauntlet's contract
            # is "never a crash": an unforeseen input shape becomes an
            # audited rejection instead of a dead connector stream
            return self._reject(raw, "internal", repr(exc))

    def counts(self) -> Dict[str, Dict[str, int]]:
        return {
            "repaired": dict(self.repairs),
            "rejected": dict(self.rejections),
            "gaps": {"total": self.gaps},
        }

    # -- gauntlet ----------------------------------------------------------

    def _normalize(self, raw: RawItem) -> NormalizedItem:
        fields = raw.fields
        if not isinstance(fields, dict):
            raise _Rejected(
                "malformed_record", f"fields is {type(fields).__name__}"
            )
        get = fields.get
        clean = self._clean
        config = self.config
        repairs: List[str] = []
        if raw.note:
            repairs.append(raw.note)

        source_id = clean(get("source"), config.max_id_chars, repairs)
        if not source_id:
            source_id = self.default_source
            if not source_id:
                raise _Rejected("missing_source")
            repairs.append("source_assumed")

        title = clean(get("title"), config.max_title_chars, repairs)
        description = clean(get("description"), config.max_title_chars,
                            repairs)
        body = clean(get("body"), config.max_body_chars, repairs)
        if not description:
            description = title
        if not (title or description or body):
            raise _Rejected("empty_content")

        timestamp, published = self._when(raw, repairs)
        entities = self._terms(get("entities"), repairs)
        keywords = self._terms(get("keywords"), repairs)
        event_type = clean(get("event_type"), config.max_id_chars,
                           repairs) or "unknown"
        url = clean(get("url"), config.max_title_chars, repairs)
        label = clean(get("story_label"), config.max_id_chars,
                      repairs) or None

        self._check_duplicate(source_id, title, description, body, timestamp)

        snippet_id = clean(get("id"), config.max_id_chars, repairs)
        if not snippet_id:
            snippet_id = self._mint_id(source_id, description, body,
                                       published)
            repairs.append("id_synthesized")

        gap = self._note_gap(source_id, published)

        snippet = Snippet(
            snippet_id=snippet_id,
            source_id=source_id,
            timestamp=timestamp,
            published=published,
            description=description or title,
            entities=frozenset(entities),
            keywords=tuple(keywords),
            text=body or title,
            event_type=event_type,
            url=url,
        )
        self.admitted += 1
        if repairs:
            seen: Dict[str, None] = {}
            ordered = tuple(
                r for r in repairs if not (r in seen or seen.setdefault(r))
            )
            for reason in ordered:
                self.repairs[reason] = self.repairs.get(reason, 0) + 1
        else:
            ordered = ()
        return NormalizedItem(snippet, label, ordered, gap)

    # -- text cleaning -----------------------------------------------------

    def _clean(
        self, value: object, budget: int, repairs: List[str]
    ) -> str:
        """Decode, de-mangle, strip and clip one field value."""
        if value is None:
            return ""
        if type(value) is str:
            if value in self._known_clean and len(value) <= budget:
                return value
            text = value
        elif isinstance(value, bytes):
            text = value.decode("utf-8", errors="replace")
        elif isinstance(value, str):
            text = value
        else:
            text = str(value)
        if (
            _NEEDS_WORK.search(text) is None
            and "  " not in text
            and not text.startswith(" ")
            and not text.endswith(" ")
        ):
            if len(text) > budget:
                text = text[: budget - 1].rstrip() + "…"
                repairs.append("truncated")
                return text
            if len(text) <= 256:
                known = self._known_clean
                known[text] = None
                if len(known) > 8192:
                    known.pop(next(iter(known)))
            return text
        if isinstance(value, bytes) and "�" in text:
            repairs.append("encoding_replaced")
        for bom in _BOMS:
            if bom in text:
                text = text.replace(bom, "")
                repairs.append("bom_stripped")
        if "�" in text:
            stripped = text.replace("�", "")
            if stripped != text:
                text = stripped
                if "encoding_replaced" not in repairs:
                    repairs.append("encoding_replaced")
        if _MOJIBAKE_MARKERS.search(text):
            text = self._demojibake(text, repairs)
        if _CONTROL.search(text):
            text = _CONTROL.sub("", text)
            repairs.append("control_chars")
        if "<" in text and _TAG.search(text):
            text = _SCRIPTISH.sub(" ", text)
            text = _TAG.sub(" ", text)
            repairs.append("markup_stripped")
        if "&" in text:
            unescaped = _html.unescape(text)
            if unescaped != text:
                text = unescaped
                if "markup_stripped" not in repairs:
                    repairs.append("markup_stripped")
        text = _WS.sub(" ", text).strip()
        if len(text) > budget:
            text = text[: budget - 1].rstrip() + "…"
            repairs.append("truncated")
        return text

    @staticmethod
    def _demojibake(text: str, repairs: List[str]) -> str:
        """Undo the classic UTF-8-bytes-read-as-cp1252 mangling.

        Real mojibake contains code points in cp1252's undefined slots
        (0x81, 0x8d, 0x8f, 0x90, 0x9d — they pass through as themselves
        when mis-decoded), so a strict cp1252 encode refuses exactly the
        damaged strings we are after; fall back per-character to latin-1
        for those.
        """
        out = bytearray()
        for char in text:
            try:
                out += char.encode("cp1252")
            except UnicodeEncodeError:
                point = ord(char)
                if point > 0xFF:
                    return text  # genuine non-latin text, not mojibake
                out.append(point)
        try:
            repaired = out.decode("utf-8")
        except UnicodeDecodeError:
            return text
        # only keep the round-trip when it actually removed artifacts
        before = len(_MOJIBAKE_MARKERS.findall(text))
        after = len(_MOJIBAKE_MARKERS.findall(repaired))
        if after < before:
            repairs.append("mojibake")
            return repaired
        return text

    # -- timestamps --------------------------------------------------------

    def _when(
        self, raw: RawItem, repairs: List[str]
    ) -> Tuple[float, float]:
        """(occurrence, published) POSIX seconds, or reject."""
        config = self.config
        raw_published = raw.get("published")
        raw_timestamp = raw.get("timestamp")
        # clean wire feeds send in-range epoch floats: skip the parser
        if (
            type(raw_published) is float
            and config.min_timestamp <= raw_published <= config.max_timestamp
        ):
            published = raw_published
        else:
            published = self._parse_when(raw_published, repairs)
        if (
            type(raw_timestamp) is float
            and config.min_timestamp <= raw_timestamp <= config.max_timestamp
        ):
            timestamp = raw_timestamp
        else:
            timestamp = self._parse_when(raw_timestamp, repairs)
        if timestamp is None and published is None:
            raise _Rejected(
                "bad_timestamp",
                f"published={raw.get('published')!r} "
                f"timestamp={raw.get('timestamp')!r}",
            )
        if timestamp is None:
            timestamp = published
            repairs.append("timestamp_assumed")
        if published is None:
            published = timestamp
        now = self._clock()
        horizon = now + config.skew_tolerance
        if timestamp > horizon or published > horizon:
            # both clocks clamp, or the published<timestamp repair below
            # would lift publication right back into the future
            timestamp = min(timestamp, now)
            published = min(published, now)
            repairs.append("clock_skew_clamped")
        if timestamp > published:
            # an event cannot occur after its own report went out;
            # trust the occurrence time, lift publication up to it
            published = timestamp
            repairs.append("published_repaired")
        return timestamp, published

    def _parse_when(
        self, value: object, repairs: List[str]
    ) -> Optional[float]:
        """One hostile timestamp -> POSIX seconds UTC (None: unparseable)."""
        if value is None:
            return None
        if isinstance(value, bool):  # bool is an int; True is not a time
            return None
        if isinstance(value, (int, float)):
            return self._epoch(float(value), repairs)
        text = self._clean(value, 128, [])
        if not text:
            return None
        # compact yyyymmdd[hhmmss] looks like a number but is a date;
        # try the calendar reading first, fall through on nonsense months
        if re.fullmatch(r"\d{8}|\d{14}", text):
            fmt = "%Y%m%d" if len(text) == 8 else "%Y%m%d%H%M%S"
            try:
                moment = _dt.datetime.strptime(text, fmt)
            except ValueError:
                moment = None  # nonsense month/day: read it as an epoch
            if moment is not None:
                seconds = moment.replace(tzinfo=_dt.timezone.utc).timestamp()
                if self.config.min_timestamp <= seconds <= self.config.max_timestamp:
                    repairs.append("tz_assumed")
                    return seconds
        # raw epoch, possibly in milliseconds, possibly fractional
        try:
            return self._epoch(float(text), repairs)
        except (ValueError, OverflowError):
            pass
        # ISO 8601 (fromisoformat handles offsets; 'Z' needs help on 3.10)
        iso = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
        try:
            moment = _dt.datetime.fromisoformat(iso)
        except ValueError:
            moment = None
        if moment is None:
            # RFC 822/1123 (the RSS pubDate family)
            try:
                moment = email.utils.parsedate_to_datetime(text)
            except (TypeError, ValueError, IndexError):
                moment = None
        if moment is None:
            for fmt in TIMESTAMP_FORMATS:
                try:
                    moment = _dt.datetime.strptime(text, fmt)
                    break
                except ValueError:
                    continue
        if moment is None:
            return None
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=_dt.timezone.utc)
            repairs.append("tz_assumed")
        try:
            seconds = moment.timestamp()
        except (OverflowError, OSError, ValueError):
            return None
        if not self.config.min_timestamp <= seconds <= self.config.max_timestamp:
            return None
        return seconds

    def _epoch(self, value: float, repairs: List[str]) -> Optional[float]:
        if value != value or value in (float("inf"), float("-inf")):
            return None
        rescaled = abs(value) >= 1e12  # epoch given in milliseconds
        if rescaled:
            value /= 1000.0
        if not self.config.min_timestamp <= value <= self.config.max_timestamp:
            return None  # no repair note for a value that didn't parse
        if rescaled:
            repairs.append("epoch_ms")
        return value

    # -- lists -------------------------------------------------------------

    def _terms(self, value: object, repairs: List[str]) -> List[str]:
        """Coerce an entity/keyword field into a clean, bounded list."""
        if value is None:
            return []
        config = self.config
        if type(value) is list and value:
            # fast path: a short, duplicate-free list of strings this
            # stream has already proven clean needs no per-part work
            try:
                distinct = frozenset(value)
            except TypeError:
                distinct = None  # unhashable parts: take the slow path
            if (
                distinct is not None
                and len(distinct) == len(value)
                and len(value) <= config.max_terms
                and "" not in distinct
                and self._known_clean.keys() >= distinct
                and max(map(len, value)) <= config.max_term_chars
            ):
                return list(value)
        if isinstance(value, (str, bytes)):
            text = self._clean(value, self.config.max_body_chars, repairs)
            parts: List[object] = re.split(r"[;,]", text)
        elif isinstance(value, (list, tuple, set, frozenset)):
            parts = sorted(value, key=str) if isinstance(
                value, (set, frozenset)
            ) else list(value)
        else:
            parts = [value]
        terms: List[str] = []
        budget = self.config.max_term_chars
        max_terms = self.config.max_terms
        known = self._known_clean
        for part in parts:
            if type(part) is str and part in known and len(part) <= budget:
                term = part  # proven clean by an earlier scan
            else:
                term = self._clean(part, budget, repairs)
            if term and term not in terms:
                terms.append(term)
            if len(terms) >= max_terms:
                repairs.append("truncated")
                break
        return terms

    # -- dedup / gaps / ids ------------------------------------------------

    def _check_duplicate(
        self,
        source_id: str,
        title: str,
        description: str,
        body: str,
        timestamp: float,
    ) -> None:
        """Near-duplicate storm defence: token-set fingerprint window.

        Case, punctuation, whitespace, markup and encoding noise have
        already been normalized away, so two "near" duplicates collapse
        to the same token set; the day bucket keeps a genuinely
        recurring daily item from being eaten forever.
        """
        if self._seen is None:
            return
        text = f"{title} {description} {body}" if title else (
            f"{description} {body}"
        )
        tokens = frozenset(text.lower().translate(_SEPARATORS).split())
        key = hash((source_id, int(timestamp // DAY), tokens))
        if not self._seen.add(key):
            raise _Rejected("near_duplicate", f"{source_id}: {title[:40]!r}")

    def _note_gap(self, source_id: str, published: float) -> float:
        cursors = self._last_published
        last = cursors.get(source_id)
        if last is None:
            cursors[source_id] = published
            return 0.0
        if published <= last:
            return 0.0  # out-of-order arrival: cursor holds the high water
        cursors[source_id] = published
        silence = published - last
        if silence >= self.config.gap_threshold:
            self.gaps += 1
            return silence
        return 0.0

    def _mint_id(
        self, source_id: str, description: str, body: str, published: float
    ) -> str:
        digest = zlib.crc32(
            f"{source_id}|{description}|{body}|{published}".encode("utf-8")
        )
        self._synth_counter += 1
        return f"{source_id}:gen{digest:08x}-{self._synth_counter:04d}"

    # -- rejection ---------------------------------------------------------

    def _reject(self, raw: RawItem, reason: str, detail: str) -> Rejection:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        return Rejection(raw, reason, detail)
