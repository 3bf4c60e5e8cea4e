"""Incremental durability: per-shard write-ahead logs and checkpoints.

Layered on :mod:`repro.core.persistence`.  Each shard owns one append-only
JSON-lines WAL: every *accepted* snippet is logged after identification
integrates it.  Periodically the shard compacts — its full
:class:`~repro.core.pipeline.StoryPivot` state is written as a checkpoint
(atomic temp-file + rename) and the WAL is sealed.  Recovery loads the
last checkpoint and replays the WAL tail through ordinary identification,
so a killed runtime resumes *exactly*: replay is idempotent (records
already present in the checkpoint are skipped), and a torn final line —
the expected artifact of a kill mid-append — is tolerated.

Shard files are named by shard index; a ``manifest.json`` pins the shard
count and pipeline config, because source→shard routing depends on the
shard count: resuming with a different count would replay snippets into
the wrong shards.

Replication additions (see :mod:`repro.replication`): every record
carries a **cumulative sequence number**, so a follower can say "give
me everything from seq N", and a **CRC32 frame** over its canonical
payload, so a record corrupted on disk *or in transit* is detected
(counted under ``wal.torn_records``; unframed seed-era records stay
readable).  A checkpoint records the **position** it covers (numbering
resumes there even when no segment survives) and seals the active WAL
into the segments the leader ships; they are covered by the checkpoint,
so pruning them only sends a very-behind follower back to a snapshot.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import StoryPivotConfig
from repro.core.persistence import (
    config_record,
    dump_state,
    load_state,
    snippet_from_record,
    snippet_record,
)
from repro.core.pipeline import StoryPivot
from repro.errors import DataFormatError
from repro.obs.trace import add_event, current_span
from repro.eventdata.models import Snippet
from repro.recordlog import LENIENT, STRICT, TAIL, RecordLog, atomic_write

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

logger = logging.getLogger("repro.runtime.wal")


def record_crc(record: Dict[str, object]) -> int:
    """CRC32 of the record's canonical payload (the ``crc`` field excluded).

    Canonical means ``sort_keys`` JSON, so the checksum is independent of
    field ordering and of how the line was formatted on disk or on the
    wire — the same record always frames to the same CRC.
    """
    payload = {k: v for k, v in record.items() if k != "crc"}
    return zlib.crc32(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )


def frame_record(record: Dict[str, object]) -> Dict[str, object]:
    """Stamp the CRC32 frame onto ``record`` (in place) and return it."""
    record["crc"] = record_crc(record)
    return record


def verify_record(record: Dict[str, object]) -> bool:
    """True when the record's frame checks out.

    Unframed records (no ``crc`` field — written by seed-era WALs) are
    accepted: framing is backward-compatible, corruption detection only
    applies to records that claim a checksum.
    """
    crc = record.get("crc")
    if crc is None:
        return True
    return crc == record_crc(record)


def _check_entry(record: Dict[str, object]) -> None:
    if record.get("kind") != "wal-entry":
        raise DataFormatError("not a wal entry")
    if not verify_record(record):
        raise DataFormatError("CRC32 frame mismatch")


class ShardWal:
    """Append-only snippet log for one shard: a codec on a RecordLog.

    The :class:`~repro.recordlog.RecordLog` owns the file, its segments
    and the cumulative sequence numbers, which never start below
    ``start`` (the position the shard's checkpoint covers); this class
    adds the ``wal-entry`` record and its CRC32 frame.
    ``keep_segments`` bounds the sealed segments :meth:`rotate` keeps.
    """

    def __init__(
        self, path: str, fsync: bool = False, keep_segments: int = 6,
        start: int = 0,
    ) -> None:
        self.path = path
        self.keep_segments = keep_segments
        self.log = RecordLog(
            path, floor=start, fsync=fsync, frame=frame_record,
            check=_check_entry,
        )
        #: serializes rotation against readers.  The worker thread
        #: rotates (rename active → segment, prune old segments) while
        #: the replication ship thread iterates records; without mutual
        #: exclusion a reader can list segments, lose the race, and then
        #: read the *fresh empty* active file — the renamed-away records
        #: appear as a sequence gap, which a follower is entitled to
        #: interpret as "pruned on the leader" and silently skip.
        self._rotate_lock = threading.RLock()
        #: torn/corrupt records skipped by the last :meth:`replay`
        self.torn_records = 0

    @property
    def position(self) -> int:
        """The next sequence number (= records ever appended, fresh WAL)."""
        with self._rotate_lock:
            return self.log.position

    def append(self, snippet: Snippet, seq: Optional[int] = None) -> int:
        """Log one accepted snippet; returns bytes written.

        ``seq`` numbers it past a gap (a follower mirroring the leader's
        numbering); numbering never goes back.
        """
        record = snippet_record(snippet)
        record["kind"] = "wal-entry"
        record["seq"] = seq  # stamped by the log
        # ingest provenance: the sampled trace this snippet was accepted
        # under rides along, so a shipped record can be stitched back to
        # the leader-side ingest trace from any follower (the field is
        # covered by the CRC frame and ignored by replay)
        span = current_span()
        if span is not None and span.sampled:
            record["trace"] = span.trace_id
        with self._rotate_lock:
            size = self.log.size
            # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
            self.log.append(record, seq)
            return self.log.size - size

    def _torn(self, path: str, line_no: int, exc: Exception) -> None:
        # sp-lint: disable=SP202 -- called by replay's read, under the rotate lock
        self.torn_records += 1
        add_event("wal.torn_record", path=path, line=line_no, error=str(exc))
        logger.warning(
            "%s:%d: skipping torn/corrupt WAL record (%s)", path, line_no, exc
        )

    def replay(self, strict: bool = False) -> List[Snippet]:
        """Active-file snippets in append order; torn records are skipped.

        A record can be torn by a kill mid-append (the classic truncated
        final line, which the next append leaves on a line of its own),
        by a torn write mid-file (injected chaos) that merges two
        records into one garbage line, or corrupted in place (caught by
        the CRC32 frame).  Either way the damage is *local*: the bad line
        is skipped with a warning and counted in :attr:`torn_records`,
        and every decodable record before and after it is recovered.
        Raising here would poison restart forever — a corrupt byte must
        cost one record, not the shard.  ``strict`` raises
        :class:`DataFormatError` instead, for a node that can fetch its
        state again.

        Sealed segments are *not* replayed: they are rotated out only
        after a checkpoint durably captured their records, so the active
        file is exactly the tail the last checkpoint does not cover.
        """
        with self._rotate_lock:
            self.torn_records = 0
            # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
            records = self.log.read(
                STRICT if strict else LENIENT, on_bad=self._torn
            )
            return [snippet_from_record(r) for r in records]

    # -- segments (replication shipping units) -----------------------------

    def segments(self) -> List[Tuple[int, int, str]]:
        """Sealed segments as ``(first_seq, last_seq, path)``, in order."""
        return self.log.segments()

    def rotate(self) -> Optional[str]:
        """Seal the active file into a segment (:meth:`RecordLog.seal`).

        Called right after a checkpoint captured every record in the
        active file, so the :attr:`keep_segments` retained only bound
        how far back a follower can tail.  Returns the segment path, or
        None when the active file has no records.
        """
        with self._rotate_lock:
            # sp-lint: disable=SP201 -- the rename/reopen must be atomic vs readers; this lock is what makes it so
            return self.log.seal(self.keep_segments)

    def earliest_available_seq(self) -> int:
        """The oldest sequence still on disk (segments included)."""
        with self._rotate_lock:
            retained = self.log.segments()
            return retained[0][0] if retained else self.log.base

    def iter_records(
        self, from_seq: int = 0, max_records: Optional[int] = None
    ) -> Iterator[Dict[str, object]]:
        """Framed records with ``seq >= from_seq``, oldest first.

        Reads sealed segments first, then the active file in tail mode:
        the active file may be receiving concurrent appends, so iteration
        stops at an unterminated last line (an append racing the read)
        and skips a bad line that ends in a newline, as replay does.
        Callers below :meth:`earliest_available_seq` should bootstrap
        from a snapshot instead — pruned records are gone.

        The whole iteration holds the rotation lock: a checkpoint that
        rotated (or pruned) files between the segment listing and the
        reads would make the renamed-away records look like a sequence
        gap — and a replication follower treats a gap as "pruned on the
        leader" and skips it, silently losing the records.
        """
        with self._rotate_lock:
            files = [
                (path, LENIENT) for _, end, path in self.log.segments()
                if end >= from_seq
            ]
            files.append((self.path, TAIL))
            yielded = 0
            for path, mode in files:
                # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
                for record in self.log.read(mode, path):
                    seq = record.get("seq")
                    if isinstance(seq, int) and seq < from_seq:
                        continue
                    yield record
                    yielded += 1
                    if max_records is not None and yielded >= max_records:
                        return

    def reset(self, position: int = 0) -> None:
        """Discard the log entirely and number on from ``position``.

        A follower's re-bootstrap: its snapshot, checkpointed at
        ``position``, replaces everything the log held.  The checkpoint
        cycle uses :meth:`rotate`, which keeps sealed segments.
        """
        with self._rotate_lock:
            # sp-lint: disable=SP201 -- truncation must be atomic vs readers; this lock is what makes it so
            self.log.rewrite(floor=position)

    @property
    def unsealed(self) -> int:
        """Sequences appended (or skipped) since the last rotation."""
        with self._rotate_lock:
            return self.log.position - self.log.base

    def size_bytes(self) -> int:
        return self.log.size

    def close(self) -> None:
        with self._rotate_lock:
            self.log.close()


class CheckpointStore:
    """Directory layout + atomic save/load for per-shard state."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def checkpoint_path(self, shard_id: int) -> str:
        return os.path.join(self.directory, f"shard-{shard_id:03d}.ckpt.jsonl")

    def wal_path(self, shard_id: int) -> str:
        return os.path.join(self.directory, f"shard-{shard_id:03d}.wal.jsonl")

    def wal(
        self, shard_id: int, fsync: bool = False, keep_segments: int = 6
    ) -> ShardWal:
        """The shard's WAL, numbering on from its checkpoint's position."""
        return ShardWal(
            self.wal_path(shard_id), fsync=fsync,
            keep_segments=keep_segments, start=self.position(shard_id),
        )

    def dlq_path(self, shard_id: int) -> str:
        return os.path.join(self.directory, f"shard-{shard_id:03d}.dlq.jsonl")

    def dlq(self, shard_id: int):
        from repro.resilience.dlq import DeadLetterQueue

        return DeadLetterQueue(self.dlq_path(shard_id))

    # -- manifest ----------------------------------------------------------

    def write_manifest(self, num_shards: int, config: StoryPivotConfig) -> None:
        manifest = {
            "kind": "storypivot-runtime-manifest",
            "version": MANIFEST_VERSION,
            "num_shards": num_shards,
            "config": config_record(config),
        }
        atomic_write(
            os.path.join(self.directory, MANIFEST_NAME),
            lambda handle: json.dump(manifest, handle, indent=2),
        )

    def read_manifest(self) -> Optional[Dict[str, object]]:
        path = os.path.join(self.directory, MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("kind") != "storypivot-runtime-manifest":
            raise DataFormatError(f"{path}: not a runtime manifest")
        if manifest.get("version") != MANIFEST_VERSION:
            raise DataFormatError(
                f"{path}: unsupported manifest version "
                f"{manifest.get('version')!r}"
            )
        return manifest

    # -- checkpoints -------------------------------------------------------

    def save(
        self, shard_id: int, pivot: StoryPivot, position: int = 0
    ) -> int:
        """Atomically write one shard's checkpoint covering WAL sequences
        below ``position``; returns bytes written."""
        return atomic_write(
            self.checkpoint_path(shard_id),
            lambda handle: dump_state(pivot, handle, position=position),
        )

    def load(self, shard_id: int) -> Optional[StoryPivot]:
        path = self.checkpoint_path(shard_id)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return load_state(handle)

    def position(self, shard_id: int) -> int:
        """The WAL position the shard's checkpoint covers (0: none)."""
        try:
            with open(
                self.checkpoint_path(shard_id), "r", encoding="utf-8"
            ) as handle:
                return int(json.loads(next(handle))["position"])
        except (OSError, ValueError, TypeError, LookupError, StopIteration):
            return 0

    def recover_shard(
        self, shard_id: int, config: StoryPivotConfig, metrics=None,
        strict: bool = False,
    ) -> Tuple[StoryPivot, int]:
        """(restored pivot, WAL records replayed) for one shard.

        Loads the last checkpoint (or a fresh pivot) and replays the WAL
        tail through normal identification.  Records the checkpoint
        already holds are skipped, which makes a crash between
        checkpoint-write and WAL-truncate harmless.  Torn WAL records
        are skipped (see :meth:`ShardWal.replay`) and counted into the
        ``wal.torn_records`` metric when a registry is supplied.

        ``strict`` is for a node that can fetch its state again (a
        follower): a missing checkpoint or a torn WAL record raises
        :class:`DataFormatError` rather than lose records silently.
        """
        pivot = self.load(shard_id)
        if pivot is None:
            if strict:
                raise DataFormatError(f"shard {shard_id}: no checkpoint")
            pivot = StoryPivot(config)
        replayed = 0
        wal = self.wal(shard_id)
        for snippet in wal.replay(strict):
            if pivot.has_snippet(snippet.snippet_id):
                continue
            pivot.add_snippet(snippet)
            replayed += 1
        if wal.torn_records and metrics is not None:
            metrics.counter("wal.torn_records").inc(wal.torn_records)
        return pivot, replayed
