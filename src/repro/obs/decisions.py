"""The structured decision log: why each story looks the way it does.

The paper's demo UI exists so an operator can *see* why snippets were
identified into a story and why stories aligned across sources.  This
module is the programmatic equivalent: every lifecycle decision the
pipeline makes — ``created``, ``extended``, ``merged``, ``split``,
``refined``, ``restored``, ``aligned`` — is recorded with the
responsible snippet, the similarity score that justified it, and the
trace id of the request that caused it (captured from the ambient
span, free when tracing is off).

The log is a bounded ring with a per-story index and explicit lineage
maps (which story absorbed which, which split from which), so
``history(story_id)`` can replay a story's full ancestry including
events recorded against stories it later absorbed.  When a path is
configured every event is also appended as one JSON line next to the
WAL, so ``storypivot explain`` works offline against a state dir.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import current_trace_id
from repro.recordlog import RecordLog

#: Events that legitimately start a story's history.  ``refined`` counts
#: only when flagged ``founded`` (refinement moved snippets into a story
#: it created itself).
FOUNDING_EVENTS = ("created", "restored", "split")

LIFECYCLE_EVENTS = FOUNDING_EVENTS + ("extended", "merged", "refined", "aligned")


class DecisionLog:
    """Thread-safe bounded ring of story lifecycle events."""

    def __init__(
        self,
        capacity: int = 20000,
        path: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.capacity = capacity
        self.path = path
        self._clock = clock  # injected so replayed histories stamp identically
        self._lock = threading.Lock()
        self._events: deque = deque()
        self._by_story: Dict[str, List[dict]] = {}
        self._absorbed_into: Dict[str, str] = {}  # absorbed id -> keeper id
        self._split_from: Dict[str, str] = {}  # child id -> parent id
        self._aligned_map: Dict[str, object] = {}  # story id -> last membership
        # a resumed run appends to its predecessor's file and numbers
        # after it, or history() would dedup the two runs' events by seq
        self._log = RecordLog(path, floor=1, sort_keys=True)
        self.recorded = 0
        #: canonical story id -> live id (set post-canonicalization so
        #: history queries by canonical id reach creation-time events)
        self._aliases: Dict[str, str] = {}
        # tuple swapped atomically so record() can snapshot without the
        # lock ordering constraints a guarded list would add
        self._listeners: tuple = ()

    # -- listeners ----------------------------------------------------------

    def add_listener(self, listener: Callable[[dict], None]) -> None:
        """Subscribe to every recorded entry (fired outside the lock).

        The push EventBus takes each call as a wake-up and reads the
        entries themselves through :meth:`since`.  Listeners run in the
        recording thread *after* the log's lock is released, so they may
        take their own locks without creating a decisions→anything
        ordering edge.
        """
        with self._lock:
            if listener not in self._listeners:
                self._listeners = self._listeners + (listener,)

    def remove_listener(self, listener: Callable[[dict], None]) -> None:
        # equality, not identity: each ``obj.method`` access builds a new
        # bound-method object, so ``is`` would never match the one stored
        with self._lock:
            self._listeners = tuple(
                l for l in self._listeners if l != listener
            )

    # -- recording ---------------------------------------------------------

    def record(
        self,
        event: str,
        story_id: str,
        source_id: Optional[str] = None,
        snippet_id: Optional[str] = None,
        score: Optional[float] = None,
        **details,
    ) -> dict:
        if source_id is None and "/" in story_id:
            source_id = story_id.split("/", 1)[0]
        entry = {
            "seq": 0,  # assigned under the lock
            "ts": round(self._clock(), 6),
            "event": event,
            "story_id": story_id,
            "source_id": source_id,
            "snippet_id": snippet_id,
            "score": round(score, 6) if score is not None else None,
        }
        if details:
            entry["details"] = details
        trace_id = current_trace_id()
        if trace_id:
            entry["trace_id"] = trace_id
        with self._lock:
            # sp-lint: disable=SP201 -- this lock is what serializes appends to the log
            self._log.append(entry)  # numbers the entry
            self.recorded += 1
            self._append_locked(entry)
            if event == "merged" and "absorbed" in details:
                self._absorbed_into[details["absorbed"]] = story_id
            elif event == "split" and "from_story" in details:
                self._split_from[story_id] = details["from_story"]
        for listener in self._listeners:
            listener(entry)
        return entry

    def _append_locked(self, entry: dict) -> None:
        if len(self._events) >= self.capacity:
            evicted = self._events.popleft()
            bucket = self._by_story.get(evicted["story_id"])
            # The evicted event is the globally oldest, hence also the
            # oldest of its story — always the head of its bucket.
            if bucket and bucket[0] is evicted:
                bucket.pop(0)
                if not bucket:
                    del self._by_story[evicted["story_id"]]
        self._events.append(entry)
        self._by_story.setdefault(entry["story_id"], []).append(entry)

    def note_alignment(self, alignment) -> int:
        """Diff ``alignment`` against the last one; record what changed.

        Alignment runs repeatedly (every view refresh); recording every
        mapping every time would bury the signal, so only stories whose
        integrated story changed its *members* get an ``aligned`` event:
        its id is minted anew by every alignment, and is only the payload.
        """
        mapping = alignment.story_to_aligned
        membership = dict(mapping)  # a bare mapping has only ids to compare
        for integrated in getattr(alignment, "aligned", {}).values():
            members = tuple(integrated.story_ids)
            membership.update(dict.fromkeys(members, members))
        changed = 0
        for story_id, members in sorted(membership.items()):
            if self._aligned_map.get(story_id) != members:
                self.record("aligned", story_id, aligned_id=mapping[story_id])
                changed += 1
        self._aligned_map = membership
        return changed

    def close(self) -> None:
        with self._lock:
            self._log.close()

    # -- queries -----------------------------------------------------------

    def events(self) -> List[dict]:
        with self._lock:
            return list(self._events)

    def since(self, seq: float) -> Tuple[List[dict], int]:
        """Retained entries numbered after ``seq``, oldest first, and the
        newest number given (0 before the first).

        The push stream's cursor is ``seq``: it reads its live tail and
        any gap the ring still holds here, and an older gap from the file.
        """
        with self._lock:
            newer = []
            for entry in reversed(self._events):
                if entry["seq"] <= seq:
                    break
                newer.append(entry)
            newer.reverse()
            return newer, self._log.position - 1

    def story_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._by_story)

    def set_aliases(self, aliases: Dict[str, str]) -> None:
        """Map canonical story ids to the live ids events were logged under.

        View canonicalization renames result ids post-finish (content-
        derived names shared with replicas), but decisions were recorded
        against the live ids.  With the alias map installed, a history
        query for either name replays the same lineage — including the
        creation-time events a follower otherwise never sees.
        """
        with self._lock:
            self._aliases = dict(aliases)

    def history(self, story_id: str) -> List[dict]:
        """The story's events plus those of every story it absorbed."""
        with self._lock:
            seeds = {story_id}
            alias = self._aliases.get(story_id)
            if alias:
                seeds.add(alias)
            members: List[str] = []
            for seed in sorted(seeds):
                for member in self._closure(seed):
                    if member not in members:
                        members.append(member)
            events: List[dict] = []
            seen = set()
            for member in members:
                for event in self._by_story.get(member, ()):
                    if event["seq"] not in seen:
                        seen.add(event["seq"])
                        events.append(event)
        return sorted(events, key=lambda e: e["seq"])

    def _closure(self, story_id: str) -> List[str]:
        members = [story_id]
        frontier = [story_id]
        while frontier:
            target = frontier.pop()
            for absorbed, keeper in self._absorbed_into.items():
                if keeper == target and absorbed not in members:
                    members.append(absorbed)
                    frontier.append(absorbed)
        return members

    def orphans(self) -> List[str]:
        """Story ids whose recorded history starts mid-life.

        Every story the pipeline touches must enter the log through a
        founding event (``created``/``restored``/``split``, or a
        ``refined`` flagged ``founded``) before anything else happens to
        it — an orphan means an instrumentation gap.  Stories whose
        founding event aged out of the ring are exempt (``seq`` of their
        first retained event is above the ring's floor).
        """
        with self._lock:
            floor = self._events[0]["seq"] if self._events else 0
            bad = []
            for story_id, events in self._by_story.items():
                first = events[0]
                if first["seq"] > floor and not self._founding(first):
                    bad.append(story_id)
        return sorted(bad)

    @staticmethod
    def _founding(event: dict) -> bool:
        if event["event"] in FOUNDING_EVENTS:
            return True
        return event["event"] == "refined" and bool(
            event.get("details", {}).get("founded")
        )

    # -- persistence -------------------------------------------------------

    @classmethod
    def load(cls, path: str, capacity: int = 20000) -> "DecisionLog":
        """Rebuild a log from its JSONL file (skips torn lines)."""
        log = cls(capacity=capacity, path=None)
        top = 0
        for entry in RecordLog(path).read():
            with log._lock:
                top = max(top, entry.get("seq", 0))
                log.recorded += 1
                log._append_locked(entry)
                details = entry.get("details", {})
                if entry["event"] == "merged" and "absorbed" in details:
                    log._absorbed_into[details["absorbed"]] = entry["story_id"]
                elif entry["event"] == "split" and "from_story" in details:
                    log._split_from[entry["story_id"]] = details["from_story"]
        log._log = RecordLog(None, floor=top + 1)
        return log

    # -- presentation ------------------------------------------------------

    def format_history(self, story_id: str) -> str:
        """Human-readable replay for ``storypivot explain``."""
        events = self.history(story_id)
        if not events:
            return f"no decision history for story {story_id!r}"
        lines = [f"story {story_id}: {len(events)} decision(s)"]
        for event in events:
            lines.append("  " + format_event(event))
        return "\n".join(lines)


def format_event(event: dict) -> str:
    when = time.strftime("%H:%M:%S", time.localtime(event["ts"]))
    parts = [f"#{event['seq']:<6} {when} {event['event']:<9} {event['story_id']}"]
    if event.get("snippet_id"):
        parts.append(f"snippet={event['snippet_id']}")
    if event.get("score") is not None:
        parts.append(f"score={event['score']:.4f}")
    for key, value in event.get("details", {}).items():
        parts.append(f"{key}={value}")
    if event.get("trace_id"):
        parts.append(f"trace={event['trace_id']}")
    return " ".join(parts)


def merge_histories(logs_events: Iterable[List[dict]]) -> List[dict]:
    """Interleave per-story histories (used for aligned-story queries)."""
    merged: List[dict] = []
    for events in logs_events:
        merged.extend(events)
    return sorted(merged, key=lambda e: e["seq"])
