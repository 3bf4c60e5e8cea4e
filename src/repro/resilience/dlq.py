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

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.persistence import snippet_from_record, snippet_record
from repro.eventdata.models import Snippet
from repro.recordlog import RecordLog

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
    keeps its quarantine.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = path
        self._clock = clock  # injected so tests can pin quarantine stamps
        self._lock = threading.Lock()
        self._log = RecordLog(path)
        self._records = self._load()

    def _load(self) -> List[DeadLetter]:
        records: List[DeadLetter] = []
        for record in self._log.read():
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
            # sp-lint: disable=SP201 -- this lock is what serializes appends to the log
            self._log.append(letter.to_record())
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

    def take_all(
        self, keep: Callable[[DeadLetter], bool] = lambda letter: False
    ) -> List[DeadLetter]:
        """Drain memory for replay, but for the letters ``keep`` holds.

        The file keeps every letter until :meth:`rewrite`, which replay
        calls only once the drained snippets reached the WAL or, failing
        again, came back here: no crash point loses a letter.
        """
        with self._lock:
            drained = [letter for letter in self._records if not keep(letter)]
            self._records = [letter for letter in self._records if keep(letter)]
        return drained

    def rewrite(self) -> None:
        """Replace the file with the letters in memory, atomically."""
        with self._lock:
            # sp-lint: disable=SP201 -- the rewrite must not interleave with an append
            self._log.rewrite([letter.to_record() for letter in self._records])

    def close(self) -> None:
        with self._lock:
            self._log.close()
