"""One append-only record log under every JSON-lines file the system keeps.

The shard WALs, the decision log, the dead-letter queues and the trace
export each keep one JSON object per line.  :class:`RecordLog` is the
one place that writes, numbers, reads back and rotates such a file; the
rules (numbering, the torn-tail rule on reopen, the three read modes,
segments and retention) are DESIGN.md's "One record log".  A log does
no locking: its owner serializes every call under its own lock.  A log
without a path only numbers.
"""

from __future__ import annotations

import json
import os
import re
from typing import IO, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DataFormatError

#: read modes: skip and report a bad line; raise on it; skip a bad line
#: that ends in a newline but stop at an unterminated last line (an
#: append racing the reader)
LENIENT, STRICT, TAIL = "lenient", "strict", "tail"

_SEGMENT_RE = re.compile(r"\.(\d{8})-(\d{8})\.seg$")


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


def _seq_of(line: bytes) -> Optional[int]:
    """The integer ``seq`` of one JSON-object line, else None."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    seq = record.get("seq") if isinstance(record, dict) else None
    return seq if isinstance(seq, int) else None


class RecordLog:
    """An append-only JSON-lines file with sequence numbers and segments.

    ``frame`` runs on each record after it is numbered (the WAL stamps
    its CRC there); ``check`` raises on a decoded record the owner does
    not accept, which the readers then treat as a bad line.
    """

    def __init__(
        self,
        path: Optional[str],
        floor: int = 0,
        fsync: bool = False,
        sort_keys: bool = False,
        frame: Optional[Callable[[dict], object]] = None,
        check: Optional[Callable[[dict], object]] = None,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self._floor = floor
        self._sort_keys = sort_keys
        self._frame = frame
        self._check = check
        self._handle = None
        self._size = 0  # bytes in the active file while it is open
        self._base: Optional[int] = None  # first seq of the active file
        self._next: Optional[int] = None  # both recovered lazily by _scan

    # -- numbering ---------------------------------------------------------

    def _scan(self) -> None:
        """Number on from the highest ``seq`` in the file, or from its
        line count when no record carries one, never below the floor."""
        base = self._floor
        for _, last, _ in self.segments():
            base = max(base, last + 1)
        top, count = None, 0
        for record in self.read():
            count += 1
            seq = record.get("seq")
            if isinstance(seq, int) and (top is None or seq > top):
                top = seq
        self._base = base
        self._next = max(base, base + count if top is None else top + 1)

    @property
    def position(self) -> int:
        """The sequence number the next numbered record gets."""
        if self._next is None:
            self._scan()
        return self._next

    @property
    def base(self) -> int:
        """The sequence number the active file starts at."""
        if self._next is None:
            self._scan()
        return self._base

    # -- writing -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Bytes in the active file."""
        if self._handle is not None:
            return self._size
        try:
            return os.path.getsize(self.path)
        except (OSError, TypeError):  # no file yet, or no path
            return 0

    def _open(self) -> None:
        """Open for appends; a torn last line first gets its newline, so
        the next record starts a line of its own (nothing is truncated)."""
        handle = open(self.path, "a", encoding="utf-8")
        self._size = os.path.getsize(self.path)
        if self._size:
            with open(self.path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    handle.write("\n")
                    self._size += 1
        self._handle = handle

    def append(self, record: dict, seq: Optional[int] = None) -> Optional[int]:
        """Write one record as a line; returns its sequence number.

        A record with a ``seq`` field is numbered, and ``seq`` asks for a
        number past a gap (numbering never goes back); an unnumbered
        record returns None.
        """
        assigned = None
        if "seq" in record:
            assigned = record["seq"] = max(self.position, seq or 0)
            self._next = assigned + 1
        elif self._next is not None:
            self._next += 1
        if self.path is not None:
            if self._frame is not None:
                self._frame(record)
            if self._handle is None:
                self._open()
            line = json.dumps(record, sort_keys=self._sort_keys) + "\n"
            self._handle.write(line)
            self._size += len(line)
            self.flush()
        return assigned

    def flush(self) -> None:
        """Push appended lines to the OS, and to disk when ``fsync``."""
        if self._handle is not None:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -----------------------------------------------------------

    def read(
        self,
        mode: str = LENIENT,
        path: Optional[str] = None,
        on_bad: Optional[Callable[[str, int, Exception], object]] = None,
        start: int = 0,
    ) -> Iterator[dict]:
        """The records of the active file (or of ``path``), in order.

        A bad line is one that does not decode to a JSON object or that
        ``check`` rejects; blank lines are not records.  ``LENIENT``
        passes each bad line to ``on_bad(path, line_no, error)`` and
        reads on.  ``start`` is a line's byte offset (see
        :meth:`offset_after`) to read from; line numbers count from it.
        """
        path = path or self.path
        try:
            handle = open(path, "r", encoding="utf-8")
        except (FileNotFoundError, TypeError):  # no file yet, or no path
            return
        with handle:
            handle.seek(start)
            for line_no, line in enumerate(handle, start=1):
                if mode == TAIL and not line.endswith("\n"):
                    return
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise DataFormatError("not a JSON object")
                    if self._check is not None:
                        self._check(record)
                except (ValueError, KeyError, TypeError, AttributeError,
                        DataFormatError) as exc:
                    if mode == STRICT:
                        raise DataFormatError(f"{path}:{line_no}: {exc}") from exc
                    if on_bad is not None:
                        on_bad(path, line_no, exc)
                    continue
                yield record

    def offset_after(self, seq: int) -> int:
        """The byte offset of a line of the active file at or before its
        first record numbered above ``seq``; every record before it is
        numbered ``seq`` or below.

        Records are appended in ``seq`` order, so this bisects byte
        offsets: seek, skip to the next line, parse it.  A line that does
        not parse (or has no ``seq``) moves the probe on to the next one;
        an unterminated last line counts as past the end.
        """
        try:
            handle = open(self.path, "rb")
        except (FileNotFoundError, TypeError):  # no file yet, or no path
            return 0
        with handle:
            lo, hi = 0, os.fstat(handle.fileno()).st_size
            while lo < hi:
                mid = (lo + hi) // 2
                handle.seek(max(mid - 1, 0))
                if mid:
                    handle.readline()  # on to the first line at or after mid
                found = None
                for line in iter(handle.readline, b""):
                    if not line.endswith(b"\n"):
                        break
                    found = _seq_of(line)
                    if found is not None:
                        break
                if found is not None and found <= seq:
                    lo = handle.tell()
                else:
                    hi = mid
        return lo

    # -- rotation ----------------------------------------------------------

    def segments(self) -> List[Tuple[int, int, str]]:
        """Sealed segments as ``(first_seq, last_seq, path)``, oldest first."""
        if self.path is None:
            return []
        directory, prefix = os.path.split(self.path)
        try:
            names = os.listdir(directory or ".")
        except OSError:
            return []
        found = []
        for name in names:
            match = _SEGMENT_RE.search(name)
            if name.startswith(prefix + ".") and match is not None:
                found.append((int(match.group(1)), int(match.group(2)),
                              os.path.join(directory, name)))
        return sorted(found)

    def _prune(self, keep: int) -> None:
        retained = self.segments()
        for _, _, stale in retained[:max(0, len(retained) - keep)]:
            try:
                os.unlink(stale)
            except OSError:
                pass

    def seal(self, keep: int) -> Optional[str]:
        """Rename the active file to a segment; returns its path.

        A fresh empty active file takes its place and numbering goes
        on.  Only the newest ``keep`` segments are retained (all of them
        when ``keep`` is negative).  Returns None, sealing nothing, when
        nothing was appended since the last seal.
        """
        if self.position == self.base:
            return None
        self.close()
        segment = f"{self.path}.{self._base:08d}-{self._next - 1:08d}.seg"
        os.replace(self.path, segment)
        self._floor = self._base = self._next
        self._open()
        if keep >= 0:
            self._prune(keep)
        return segment

    def rewrite(
        self, records: Iterable[dict] = (), floor: Optional[int] = None
    ) -> None:
        """Replace the active file with ``records`` by one atomic_write.

        With ``floor``, every sealed segment goes too and numbering
        restarts at ``floor``.
        """
        self.close()
        if self.path is not None:
            atomic_write(self.path, lambda handle: handle.writelines(
                json.dumps(record, sort_keys=self._sort_keys) + "\n"
                for record in records
            ))
        if floor is not None:
            self._prune(0)
            self._floor = floor
        self._base = self._next = None
