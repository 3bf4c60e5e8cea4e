"""Bounded in-memory span store with JSONL export.

Ended spans are buffered per trace until the root span arrives, at
which point the trace is *finalized*: appended to a bounded ring of
recent traces, offered to the slow-trace leaderboard, counted into the
per-event tallies (used to reconcile trace events against the chaos
accounting invariant), and — when an export path is configured —
appended to a :class:`~repro.recordlog.RecordLog` next to the WAL.

Everything is bounded: the ring holds ``max_traces``, the leaderboard
``slow_traces``, the per-stage duration reservoirs 512 samples each,
and at most ``max_open_spans`` spans may sit in the pending buffer —
beyond that the oldest pending trace is force-finalized as ``partial``
so a producer that never ends its root cannot leak memory.
"""

from __future__ import annotations

import os
import threading
from collections import Counter, OrderedDict, deque
from typing import Dict, List, Optional

from repro.recordlog import RecordLog

_STAGE_RESERVOIR = 512


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
        #: the active file is sealed into a segment and at most
        #: ``export_keep_files`` segments are retained — the exporter
        #: lives next to the WAL and must never grow without bound
        self.export_max_bytes = export_max_bytes
        self.export_keep_files = max(0, export_keep_files)
        self._lock = threading.Lock()
        # trace_id -> list of span records, insertion-ordered across traces
        self._open: "OrderedDict[str, List[dict]]" = OrderedDict()
        self._open_spans = 0
        self._traces: deque = deque(maxlen=max_traces)
        self._slow: List[dict] = []
        self._events: Counter = Counter()
        self._stages: Dict[str, deque] = {}
        self._export = RecordLog(export_path, sort_keys=True)
        self.rotations = 0
        self.finalized = 0
        self.dropped_partial = 0
        self.bind_metrics(metrics)

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
        self._export.append(trace)
        if (
            self.export_max_bytes is not None
            and self._export.size >= self.export_max_bytes
        ):
            self._export.seal(self.export_keep_files)
            self.rotations += 1
            self.bind_metrics(self.metrics)  # recounts the files

    def export_files(self) -> List[str]:
        """Every trace-export file on disk, newest first."""
        paths = [path for _, _, path in reversed(self._export.segments())]
        if self.export_path is not None and os.path.exists(self.export_path):
            paths.insert(0, self.export_path)
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
            self._export.close()

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
