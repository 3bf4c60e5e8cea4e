"""Incremental durability: per-shard write-ahead logs and checkpoints.

Layered on :mod:`repro.core.persistence`.  Each shard owns one append-only
JSON-lines WAL: every *accepted* snippet is logged after identification
integrates it.  Periodically the shard compacts — its full
:class:`~repro.core.pipeline.StoryPivot` state is written as a checkpoint
(atomic temp-file + rename) and the WAL is truncated.  Recovery loads the
last checkpoint and replays the WAL tail through ordinary identification,
so a killed runtime resumes *exactly*: replay is idempotent (records
already present in the checkpoint are skipped), and a torn final line —
the expected artifact of a kill mid-append — is tolerated.

Shard files are named by shard index; a ``manifest.json`` pins the shard
count and pipeline config, because source→shard routing depends on the
shard count: resuming with a different count would replay snippets into
the wrong shards.

Replication additions (see :mod:`repro.replication`):

* every record carries a **cumulative sequence number** that survives
  checkpoints, so a follower can say "give me everything from seq N";
* every record carries a **CRC32 frame** over its canonical payload, so
  a record corrupted on disk *or in transit* is detected (counted under
  the existing ``wal.torn_records`` accounting) — unframed seed-era
  records stay readable;
* a checkpoint records the sequence **position** it covers (numbering
  resumes there even when no segment survives) and **rotates** the
  active WAL into a sealed, immutable segment instead of truncating
  it.  Sealed segments are what the leader
  ships; a bounded number are retained (they are fully covered by the
  checkpoint, so pruning never endangers recovery — only a very-behind
  follower, which then re-bootstraps from the snapshot).
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import zlib
from typing import IO, Callable, Dict, Iterator, List, Optional, Tuple

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

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: sealed-segment name: ``<active>.<first>-<last>.seg`` (seqs inclusive)
_SEGMENT_RE = re.compile(r"\.(\d{8})-(\d{8})\.seg$")

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


def atomic_write(path: str, write: Callable[[IO[str]], object]) -> int:
    """Replace ``path`` with what ``write(handle)`` writes; returns bytes.

    The bytes go to ``path.tmp``, are flushed and fsynced, and only then
    renamed over ``path``: a crash, or ``write`` raising, mid-write leaves
    the previous file intact — never an empty or half-written one.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())
    size = os.path.getsize(tmp)
    os.replace(tmp, path)
    return size


class ShardWal:
    """Append-only snippet log for one shard.

    Sequence numbers are **cumulative**: they keep increasing across
    checkpoint rotations (and across reopen — the counter is recovered
    by scanning sealed segments and the active file, never below
    ``start``: the position the shard's checkpoint covers, which is all
    that is left once every segment was pruned), so a replication
    cursor is meaningful for the lifetime of the shard, not just one
    active file.  ``keep_segments`` bounds how many sealed segments
    :meth:`rotate` retains for followers to tail.
    """

    def __init__(
        self, path: str, fsync: bool = False, keep_segments: int = 6,
        start: int = 0,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.keep_segments = keep_segments
        self._start = start
        self._handle = None
        self._next_seq = 0
        self._active_base_seq = 0
        self._bootstrapped = False
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

    # -- sequence bootstrap ------------------------------------------------

    def _bootstrap(self) -> None:
        """Recover the cumulative sequence counter from disk (once)."""
        with self._rotate_lock:
            if not self._bootstrapped:
                # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
                self._scan()

    def _scan(self, count_bad: bool = False) -> List[Dict[str, object]]:
        """The active file's decodable records; recovers the counter.

        The active file continues after the last sealed segment (and
        never below ``start``); within it the highest *decodable*
        record's ``seq`` wins.  Torn lines are skipped, not stopped at:
        the file is at rest while scanned (first append, reopen or
        replay), so a mid-file torn write must not hide the valid
        records after it — reusing their sequence numbers would make two
        different records share a seq.  A torn *tail* record's seq is
        reused by the next append, which is fine: the torn record is
        invisible to every reader.
        """
        with self._rotate_lock:
            # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
            records = list(self._decode_lines(self.path, count_bad=count_bad))
            base = self._start
            for _, end, _ in self.segments():
                base = max(base, end + 1)
            seqs = [r["seq"] for r in records if isinstance(r.get("seq"), int)]
            # unsequenced (seed-era) records count from the base
            after = max(seqs) + 1 if seqs else len(records)
            self._active_base_seq = base
            self._next_seq = max(base, after)
            self._bootstrapped = True
            return records

    @property
    def position(self) -> int:
        """The next sequence number (= records ever appended, fresh WAL)."""
        self._bootstrap()
        return self._next_seq

    def _ensure_open(self) -> None:
        self._bootstrap()
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, snippet: Snippet, seq: Optional[int] = None) -> int:
        """Log one accepted snippet; returns bytes written.

        ``seq`` numbers it past a gap (a follower mirroring the leader's
        numbering); numbering never goes back.
        """
        with self._rotate_lock:
            # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
            self._ensure_open()
            if seq is not None:
                self._next_seq = max(self._next_seq, seq)
            record = snippet_record(snippet)
            record["kind"] = "wal-entry"
            record["seq"] = self._next_seq
            # ingest provenance: the sampled trace this snippet was
            # accepted under rides along, so a shipped record can be
            # stitched back to the leader-side ingest trace from any
            # follower (the field is covered by the CRC frame and
            # ignored by replay)
            span = current_span()
            if span is not None and span.sampled:
                record["trace"] = span.trace_id
            frame_record(record)
            self._next_seq += 1
            line = json.dumps(record) + "\n"
            self._handle.write(line)
            self._handle.flush()
            if self.fsync:
                # sp-lint: disable=SP201 -- the durability barrier is part of the append critical section: a rotate must not rename bytes that are not yet on disk
                os.fsync(self._handle.fileno())
            return len(line.encode("utf-8"))

    def _decode_lines(
        self, path: str, stop_on_error: bool = False, count_bad: bool = False
    ) -> Iterator[Dict[str, object]]:
        """Decoded, CRC-verified records of one file, in order.

        Bad lines (torn writes, CRC mismatches, non-entries) are skipped
        — or, with ``stop_on_error``, end the iteration: that is the live
        tailing mode, where an undecodable final line usually means an
        append is racing us and the bytes simply are not all there yet.
        ``count_bad`` accumulates skips into :attr:`torn_records`.
        """
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if record.get("kind") != "wal-entry":
                        raise DataFormatError("not a wal entry")
                    if not verify_record(record):
                        raise DataFormatError("CRC32 frame mismatch")
                except (ValueError, KeyError, TypeError, AttributeError,
                        DataFormatError) as exc:
                    if stop_on_error:
                        return
                    if count_bad:
                        # sp-lint: disable=SP202 -- count_bad callers (replay, reset's bootstrap) hold the rotate lock
                        self.torn_records += 1
                        add_event(
                            "wal.torn_record", path=path, line=line_no,
                            error=str(exc),
                        )
                        logger.warning(
                            "%s:%d: skipping torn/corrupt WAL record (%s)",
                            path, line_no, exc,
                        )
                    continue
                yield record

    def replay(self) -> List[Snippet]:
        """Active-file snippets in append order; torn records are skipped.

        A record can be torn by a kill mid-append (the classic truncated
        final line), by a torn write mid-file (crash between ``write``
        and ``fsync``, or injected chaos) that merges two records into
        one garbage line, or corrupted in place (caught by the CRC32
        frame).  Either way the damage is *local*: the bad line is
        skipped with a warning and counted in :attr:`torn_records`, and
        every decodable record before and after it is recovered.
        Raising here would poison restart forever — a corrupt byte must
        cost one record, not the shard.

        Sealed segments are *not* replayed: they are rotated out only
        after a checkpoint durably captured their records, so the active
        file is exactly the tail the last checkpoint does not cover.
        """
        with self._rotate_lock:
            self.torn_records = 0
            # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
            return [snippet_from_record(r) for r in self._scan(True)]

    # -- segments (replication shipping units) -----------------------------

    def segments(self) -> List[Tuple[int, int, str]]:
        """Sealed segments as ``(first_seq, last_seq, path)``, in order."""
        directory = os.path.dirname(self.path) or "."
        prefix = os.path.basename(self.path) + "."
        found: List[Tuple[int, int, str]] = []
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        for name in names:
            if not name.startswith(prefix):
                continue
            match = _SEGMENT_RE.search(name)
            if match is None:
                continue
            found.append((
                int(match.group(1)), int(match.group(2)),
                os.path.join(directory, name),
            ))
        found.sort()
        return found

    def rotate(self) -> Optional[str]:
        """Seal the active file into an immutable segment.

        Called right after a checkpoint captured every record in the
        active file.  The file is renamed to
        ``<active>.<first>-<last>.seg`` (sequence range inclusive) and a
        fresh empty active file takes its place; sequence numbering
        continues.  At most :attr:`keep_segments` sealed segments are
        retained — older ones are fully covered by the checkpoint, so
        pruning only affects how far back a follower can tail before it
        must re-bootstrap from a snapshot.  Returns the segment path,
        or None when the active file has no records.
        """
        with self._rotate_lock:
            # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
            self._bootstrap()
            if self._next_seq == self._active_base_seq:
                return None  # nothing appended since the last rotation
            self.close()
            first, last = self._active_base_seq, self._next_seq - 1
            segment = f"{self.path}.{first:08d}-{last:08d}.seg"
            os.replace(self.path, segment)
            self._start = self._active_base_seq = self._next_seq
            # sp-lint: disable=SP201 -- the rename/reopen must be atomic vs readers; this lock is what makes it so
            with open(self.path, "w", encoding="utf-8"):
                pass
            if self.keep_segments >= 0:
                retained = self.segments()
                for _, _, stale in retained[:max(
                    0, len(retained) - self.keep_segments
                )]:
                    try:
                        os.unlink(stale)
                    except OSError:
                        pass
            return segment

    def earliest_available_seq(self) -> int:
        """The oldest sequence still on disk (segments included)."""
        with self._rotate_lock:
            # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
            self._bootstrap()
            retained = self.segments()
            if retained:
                return retained[0][0]
            return self._active_base_seq

    def iter_records(
        self, from_seq: int = 0, max_records: Optional[int] = None
    ) -> Iterator[Dict[str, object]]:
        """Framed records with ``seq >= from_seq``, oldest first.

        Reads sealed segments first, then the active file.  The active
        file may be receiving concurrent appends; iteration stops at the
        first undecodable active line (an append racing the read) rather
        than mis-counting it as corruption.  Callers below
        :meth:`earliest_available_seq` should bootstrap from a snapshot
        instead — pruned records are gone.

        The whole iteration holds the rotation lock: a checkpoint that
        rotated (or pruned) files between the segment listing and the
        reads would make the renamed-away records look like a sequence
        gap — and a replication follower treats a gap as "pruned on the
        leader" and skips it, silently losing the records.
        """
        with self._rotate_lock:
            # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
            self._bootstrap()
            if self._handle is not None:
                self._handle.flush()
            yielded = 0
            for _, end, path in self.segments():
                if end < from_seq:
                    continue
                # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
                for record in self._decode_lines(path):
                    seq = record.get("seq")
                    if isinstance(seq, int) and seq < from_seq:
                        continue
                    yield record
                    yielded += 1
                    if max_records is not None and yielded >= max_records:
                        return
            # sp-lint: disable=SP201 -- WAL file I/O is serialized by this lock; that is its purpose
            for record in self._decode_lines(self.path, stop_on_error=True):
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
            self.close()
            # sp-lint: disable=SP201 -- truncation must be atomic vs readers; this lock is what makes it so
            with open(self.path, "w", encoding="utf-8"):
                pass
            for _, _, path in self.segments():
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._start = self._next_seq = self._active_base_seq = position
            self._bootstrapped = True

    @property
    def unsealed(self) -> int:
        """Sequences appended (or skipped) since the last rotation."""
        return self.position - self._active_base_seq

    def size_bytes(self) -> int:
        if self._handle is not None:
            self._handle.flush()
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


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
        for snippet in wal.replay():
            if pivot.has_snippet(snippet.snippet_id):
                continue
            pivot.add_snippet(snippet)
            replayed += 1
        if wal.torn_records and metrics is not None:
            metrics.counter("wal.torn_records").inc(wal.torn_records)
        if wal.torn_records and strict:
            raise DataFormatError(f"shard {shard_id}: torn WAL records")
        return pivot, replayed
