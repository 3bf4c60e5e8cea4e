"""Bounded in-memory span store with JSONL export.

Ended spans are buffered per trace until the root span arrives, at
which point the trace is *finalized*: appended to a bounded ring of
recent traces, offered to the slow-trace leaderboard, counted into the
per-event tallies (used to reconcile trace events against the chaos
accounting invariant), and — when an export path is configured —
written as one JSON line next to the WAL.

Everything is bounded: the ring holds ``max_traces``, the leaderboard
``slow_traces``, the per-stage duration reservoirs 512 samples each,
and at most ``max_open_spans`` spans may sit in the pending buffer —
beyond that the oldest pending trace is force-finalized as ``partial``
so a producer that never ends its root cannot leak memory.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter, OrderedDict, deque
from typing import Dict, Iterator, List, Optional

_STAGE_RESERVOIR = 512


def read_jsonl(path: str) -> Iterator[Dict[str, object]]:
    """The JSON objects of a JSON-lines file, in order.

    A blank or undecodable line — a torn write from a kill mid-append,
    or a record later appended onto one — is skipped and reading goes
    on, as the WAL does: a bad line costs itself, never what follows.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield record


def _percentile(ordered: List[float], q: float) -> Optional[float]:
    if not ordered:
        return None
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class SpanStore:
    """Collects ended spans into finalized traces; thread-safe."""

    def __init__(
        self,
        max_traces: int = 256,
        max_open_spans: int = 4096,
        slow_traces: int = 10,
        export_path: Optional[str] = None,
        export_max_bytes: Optional[int] = 64 * 1024 * 1024,
        export_keep_files: int = 3,
        metrics=None,
    ) -> None:
        self.max_traces = max_traces
        self.max_open_spans = max_open_spans
        self.slow_traces = slow_traces
        self.export_path = export_path
        #: size-based rotation of the JSONL export: past this many bytes
        #: the active file is sealed as ``<path>.1`` (older generations
        #: shift up) and at most ``export_keep_files`` sealed files are
        #: retained — the exporter lives next to the WAL and must share
        #: its discipline of never growing without bound
        self.export_max_bytes = export_max_bytes
        self.export_keep_files = max(0, export_keep_files)
        self.metrics = metrics
        self._lock = threading.Lock()
        # trace_id -> list of span records, insertion-ordered across traces
        self._open: "OrderedDict[str, List[dict]]" = OrderedDict()
        self._open_spans = 0
        self._traces: deque = deque(maxlen=max_traces)
        self._slow: List[dict] = []
        self._events: Counter = Counter()
        self._stages: Dict[str, deque] = {}
        self._export_file = None
        self._export_bytes = 0
        self.rotations = 0
        self.finalized = 0
        self.dropped_partial = 0
        if metrics is not None and export_path is not None:
            metrics.gauge("obs.trace_files").set(
                len(self.export_files())
            )

    def bind_metrics(self, metrics) -> "SpanStore":
        """Late-attach a registry (CLIs build the store before the
        registry exists); initializes the ``obs.trace_files`` gauge."""
        self.metrics = metrics
        if metrics is not None and self.export_path is not None:
            metrics.gauge("obs.trace_files").set(len(self.export_files()))
        return self

    # -- ingest ------------------------------------------------------------

    def record(self, span: dict) -> None:
        """Accept one ended span record (dict form, see Span.to_record)."""
        with self._lock:
            trace_id = span["trace_id"]
            bucket = self._open.setdefault(trace_id, [])
            bucket.append(span)
            self._open_spans += 1
            name = span["name"]
            if span.get("duration") is not None:
                reservoir = self._stages.get(name)
                if reservoir is None:
                    reservoir = self._stages[name] = deque(maxlen=_STAGE_RESERVOIR)
                reservoir.append(span["duration"])
            for event in span.get("events", ()):
                self._events[event["name"]] += 1
            if span.get("parent_id") is None or span.get("remote"):
                # a remote-parented span is this process's root: the real
                # root lives (and finalizes) on the originating node
                # sp-lint: disable=SP201 -- export is a buffered line append; sharing the store lock keeps trace order and is the accepted cost
                self._finalize_locked(trace_id, partial=False)
            while self._open_spans > self.max_open_spans and self._open:
                oldest = next(iter(self._open))
                # sp-lint: disable=SP201 -- export is a buffered line append; sharing the store lock keeps trace order and is the accepted cost
                self._finalize_locked(oldest, partial=True)
                self.dropped_partial += 1

    def _finalize_locked(self, trace_id: str, partial: bool) -> None:
        spans = self._open.pop(trace_id, None)
        if not spans:
            return
        self._open_spans -= len(spans)
        root = next(
            (s for s in spans if s.get("parent_id") is None),
            next((s for s in spans if s.get("remote")), spans[0]),
        )
        trace = {
            "trace_id": trace_id,
            "name": root["name"],
            "started_at": root["started_at"],
            "duration": root.get("duration"),
            "error": next((s["error"] for s in spans if s.get("error")), None),
            "partial": partial,
            "spans": sorted(spans, key=lambda s: (s["started_at"], s["span_id"])),
        }
        nodes = sorted({s["node"] for s in spans if s.get("node")})
        if nodes:
            trace["nodes"] = nodes
        self._traces.append(trace)
        self.finalized += 1
        duration = trace["duration"]
        if duration is not None:
            self._slow.append(
                {
                    "trace_id": trace_id,
                    "name": trace["name"],
                    "duration": duration,
                    "spans": len(spans),
                    "error": trace["error"],
                }
            )
            self._slow.sort(key=lambda t: -t["duration"])
            del self._slow[self.slow_traces:]
        if self.export_path is not None:
            self._export_locked(trace)

    def _export_locked(self, trace: dict) -> None:
        if self._export_file is None:
            self._export_file = open(self.export_path, "a", encoding="utf-8")
            try:
                self._export_bytes = os.path.getsize(self.export_path)
            except OSError:
                self._export_bytes = 0
        line = json.dumps(trace, sort_keys=True) + "\n"
        self._export_file.write(line)
        self._export_file.flush()
        self._export_bytes += len(line.encode("utf-8"))
        if (
            self.export_max_bytes is not None
            and self._export_bytes >= self.export_max_bytes
        ):
            self._rotate_export_locked()

    def _rotate_export_locked(self) -> None:
        """Seal the active export as ``.1``, shifting older seals up.

        Mirrors :meth:`repro.runtime.wal.ShardWal.rotate`'s retention
        contract: a bounded number of sealed files, oldest pruned first,
        and a crash between any two steps leaves only files a reader
        already knows how to handle (whole JSONL lines, maybe one
        missing generation number).
        """
        self._export_file.close()
        self._export_file = None
        # shift sealed generations up; the one past retention is dropped
        for index in range(self.export_keep_files, 0, -1):
            sealed = f"{self.export_path}.{index}"
            if not os.path.exists(sealed):
                continue
            if index >= self.export_keep_files:
                try:
                    os.remove(sealed)
                except OSError:
                    pass
            else:
                os.replace(sealed, f"{self.export_path}.{index + 1}")
        if self.export_keep_files > 0:
            os.replace(self.export_path, f"{self.export_path}.1")
        else:
            try:
                os.remove(self.export_path)
            except OSError:
                pass
        self._export_bytes = 0
        self.rotations += 1
        if self.metrics is not None:
            self.metrics.gauge("obs.trace_files").set(
                len(self.export_files())
            )

    def export_files(self) -> List[str]:
        """Every trace-export file on disk, newest first."""
        if self.export_path is None:
            return []
        paths = []
        if os.path.exists(self.export_path):
            paths.append(self.export_path)
        index = 1
        while True:
            sealed = f"{self.export_path}.{index}"
            if not os.path.exists(sealed):
                break
            paths.append(sealed)
            index += 1
        return paths

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Force-finalize everything still open (shutdown, --trace-dump)."""
        with self._lock:
            while self._open:
                oldest = next(iter(self._open))
                # sp-lint: disable=SP201 -- export is a buffered line append; sharing the store lock keeps trace order and is the accepted cost
                self._finalize_locked(oldest, partial=True)

    def close(self) -> None:
        self.flush()
        with self._lock:
            if self._export_file is not None:
                self._export_file.close()
                self._export_file = None

    # -- query -------------------------------------------------------------

    def traces(self, limit: int = 50) -> List[dict]:
        with self._lock:
            recent = list(self._traces)[-limit:]
        return list(reversed(recent))

    def slow(self) -> List[dict]:
        with self._lock:
            return [dict(t) for t in self._slow]

    def event_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._events)

    def stage_breakdown(self) -> Dict[str, dict]:
        """Per-stage p50/p95 over the most recent sampled spans."""
        with self._lock:
            stages = {name: sorted(res) for name, res in self._stages.items()}
        return {
            name: {
                "count": len(ordered),
                "p50": _percentile(ordered, 0.50),
                "p95": _percentile(ordered, 0.95),
                "max": ordered[-1] if ordered else None,
            }
            for name, ordered in sorted(stages.items())
        }

    def tracez_payload(self, limit: int = 20, slow_board=None) -> dict:
        """The `/tracez` response body (also used by --trace-dump)."""
        payload = {
            "finalized": self.finalized,
            "dropped_partial": self.dropped_partial,
            "recent": self.traces(limit=limit),
            "slow_traces": self.slow(),
            "stages": self.stage_breakdown(),
            "events": self.event_counts(),
        }
        if self.export_path is not None:
            payload["export"] = {
                "path": self.export_path,
                "files": len(self.export_files()),
                "rotations": self.rotations,
            }
        if slow_board is not None:
            payload["slow_spans"] = slow_board.top()
        return payload
