"""In-memory spans around calls into each layer's public functions.

The ledger measures every layer from outside: the harness wraps each
call into a layer in ``recorder.span(name, layer)``, spans stay in
memory for the whole run, and ``run.py`` dumps them when the benchmark
ends.  A span records ``name, layer, start, end, parent,
repetition`` (plus the thread that ran it and ``count``, the number of
items one batched call covered, so a per-item cost is ``duration /
count``).  ``parent`` is the index of the span that was open on the same
thread when this one started; *self time* is a span's duration minus the
part of it its direct children cover.

End-to-end metrics never come from a traced run: workloads take a
recorder argument and the untraced run passes :data:`NULL`, whose spans
cost one attribute load and an empty ``with``.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class NullRecorder:
    """Recorder of the untraced run: every span is the same no-op."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str, layer: str, count: int = 1) -> _NullSpan:
        return self._span


NULL = NullRecorder()


class _OpenSpan:
    __slots__ = ("_recorder", "_record")

    def __init__(self, recorder: "Recorder", record: dict) -> None:
        self._recorder = recorder
        self._record = record

    def __enter__(self):
        recorder = self._recorder
        stack = recorder._stack()
        record = self._record
        record["parent"] = stack[-1] if stack else None
        with recorder._lock:
            index = len(recorder.spans)
            recorder.spans.append(record)
        stack.append(index)
        record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self._record["end"] = time.perf_counter()
        self._recorder._stack().pop()
        return False


class Recorder:
    """Collects spans from any number of threads."""

    enabled = True

    #: the traced run records one repetition per workload section
    repetition = 0

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, count: int = 1) -> _OpenSpan:
        return _OpenSpan(self, {
            "name": name,
            "layer": layer,
            "start": 0.0,
            "end": 0.0,
            "parent": None,
            "repetition": self.repetition,
            "thread": threading.current_thread().name,
            "count": count,
        })

    # -- derived numbers ---------------------------------------------------

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.named(name))

    def per_item_us(self, name: str) -> float:
        """Microseconds per item over every span called ``name``."""
        spans = self.named(name)
        items = sum(s["count"] for s in spans)
        if not items:
            raise KeyError(f"no span named {name!r} was recorded")
        return sum(s["end"] - s["start"] for s in spans) / items * 1e6


def self_times(spans: List[dict]) -> List[float]:
    """Self time of each span: duration minus its direct children's."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= span["end"] - span["start"]
    return own


def unexplained_ratio(spans: List[dict]) -> float:
    """Share of the harness's own root spans no child span accounts for.

    Every thread the harness drives runs under one root span of layer
    ``bench``; whatever part of it is not inside a child span (a call
    into a layer, or a named wait) is time the ledger cannot attribute.
    """
    own = self_times(spans)
    duration = unexplained = 0.0
    for span, self_time in zip(spans, own):
        if span["layer"] == "bench" and span["parent"] is None:
            duration += span["end"] - span["start"]
            unexplained += self_time
    if duration <= 0.0:
        raise ValueError("no root span of layer 'bench' was recorded")
    return max(0.0, unexplained) / duration


def layer_table(spans: Iterable[dict]) -> List[Dict[str, object]]:
    """Rows of (layer, name, calls, items, total s, self s), by self time."""
    spans = list(spans)
    own = self_times(spans)
    rows: Dict[tuple, Dict[str, object]] = defaultdict(
        lambda: {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, self_time in zip(spans, own):
        row = rows[(span["layer"], span["name"])]
        row["calls"] += 1
        row["items"] += span["count"]
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += self_time
    table = [
        {"layer": layer, "name": name, **row}
        for (layer, name), row in rows.items()
    ]
    table.sort(key=lambda r: -r["self_s"])
    return table


def render_table(spans: Iterable[dict]) -> str:
    lines = [f"{'layer':<10}{'span':<28}{'calls':>7}{'items':>9}"
             f"{'total s':>10}{'self s':>10}"]
    for row in layer_table(spans):
        lines.append(
            f"{row['layer']:<10}{row['name']:<28}{row['calls']:>7}"
            f"{row['items']:>9}{row['total_s']:>10.4f}{row['self_s']:>10.4f}"
        )
    return "\n".join(lines)
