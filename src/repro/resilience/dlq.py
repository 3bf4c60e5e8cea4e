"""Per-shard dead-letter queue: quarantine for poison snippets.

A snippet that keeps failing identification must not take its shard down
(supervisor restarts just replay the crash) nor be dropped silently (the
operator can never audit what was lost).  The DLQ is the third path:
after the retry policy is exhausted the worker appends the snippet —
with the error that condemned it and the attempt count — to an
append-only JSONL file next to the shard's WAL, and moves on.

``storypivot-serve --replay-dlq`` drains the files back through normal
ingestion once the underlying bug/outage is fixed; records that fail
again simply land back in quarantine, so replay is safe to run
repeatedly.  A DLQ constructed without a path is memory-only (used by
runtimes that also run without a WAL).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.persistence import snippet_from_record, snippet_record
from repro.eventdata.models import Snippet
from repro.obs.store import read_jsonl

RECORD_KIND = "dead-letter"


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined snippet plus the evidence against it."""

    snippet: Snippet
    error: str
    attempts: int
    shard_id: int
    quarantined_at: float

    def to_record(self) -> dict:
        record = snippet_record(self.snippet)
        record["kind"] = RECORD_KIND
        record["error"] = self.error
        record["attempts"] = self.attempts
        record["shard_id"] = self.shard_id
        record["quarantined_at"] = self.quarantined_at
        return record

    @classmethod
    def from_record(cls, record: dict) -> "DeadLetter":
        return cls(
            snippet=snippet_from_record(record),
            error=str(record.get("error", "")),
            attempts=int(record.get("attempts", 1)),
            shard_id=int(record.get("shard_id", -1)),
            quarantined_at=float(record.get("quarantined_at", 0.0)),
        )


class DeadLetterQueue:
    """Append-only quarantine, optionally persisted as JSONL.

    Existing records are loaded on construction so a resumed runtime
    keeps its quarantine; an undecodable line (a kill mid-append, and
    the record a resumed queue then appended onto it) is skipped and
    every record after it loads, mirroring the WAL's tolerance.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = path
        self._clock = clock  # injected so tests can pin quarantine stamps
        self._lock = threading.Lock()
        self._records: List[DeadLetter] = []
        self._handle = None
        if path is not None and os.path.exists(path):
            self._records = self._load(path)

    @staticmethod
    def _load(path: str) -> List[DeadLetter]:
        records: List[DeadLetter] = []
        for record in read_jsonl(path):
            if record.get("kind") != RECORD_KIND:
                continue
            try:
                records.append(DeadLetter.from_record(record))
            except (ValueError, KeyError, TypeError):
                continue  # decodable, but not a whole record
        return records

    # -- writing -----------------------------------------------------------

    def append(
        self,
        snippet: Snippet,
        error: str,
        attempts: int,
        shard_id: int = -1,
    ) -> DeadLetter:
        letter = DeadLetter(
            snippet=snippet,
            error=error,
            attempts=attempts,
            shard_id=shard_id,
            quarantined_at=self._clock(),
        )
        with self._lock:
            self._records.append(letter)
            if self.path is not None:
                if self._handle is None:
                    # sp-lint: disable=SP201 -- lazy one-time JSONL open; this lock is what serializes appends
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write(json.dumps(letter.to_record()) + "\n")
                self._handle.flush()
        return letter

    # -- reading / draining ------------------------------------------------

    def records(self) -> List[DeadLetter]:
        with self._lock:
            return list(self._records)

    def snippets(self) -> List[Snippet]:
        return [letter.snippet for letter in self.records()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def take_all(self) -> List[DeadLetter]:
        """Atomically drain for replay: empties memory and the file.

        Replay re-offers the snippets through ordinary ingestion; any
        that fail again are re-appended by the worker, so nothing is
        lost if replay itself hits the same poison.
        """
        with self._lock:
            drained = self._records
            self._records = []
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            if self.path is not None and os.path.exists(self.path):
                # sp-lint: disable=SP201 -- truncation must be atomic with the drain or a crash replays twice
                with open(self.path, "w", encoding="utf-8"):
                    pass
        return drained

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
