"""Lightweight profiling: the slow-span leaderboard.

It does not use ``sys.setprofile`` — that hook taxes *every* Python call
in the process, which is exactly what an always-on diagnostics layer
must not do.  :class:`SlowSpanBoard` keeps the top-N slowest spans ever
ended by a tracer (sampled or not — duration is known either way), so
the one pathological realignment that happened an hour ago is still
visible.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import List, Tuple


class SlowSpanBoard:
    """Top-N slowest spans, cheapest-possible maintenance.

    ``offer`` is called for every ended span from every worker thread,
    so both the off-board case (one comparison against a cached floor,
    no lock) and the on-board case must stay cheap.  The board is a
    bounded min-heap — replace-root is O(log N) with a tiny lock hold.
    A sorted list looks equivalent but is pathological here: ingest
    span durations include queue wait, which trends upward under load,
    so *every* span beats the floor and the sort convoyed the shard
    workers behind one lock.
    """

    __slots__ = ("_n", "_lock", "_heap", "_floor", "_seq")

    def __init__(self, n: int = 16) -> None:
        self._n = n
        self._lock = threading.Lock()
        # min-heap of (duration, seq, name, trace_id); seq breaks ties
        self._heap: List[Tuple[float, int, str, str]] = []
        self._floor = -1.0
        self._seq = itertools.count()

    def offer(self, name: str, trace_id: str, duration: float) -> None:
        if duration <= self._floor:
            return
        with self._lock:
            if len(self._heap) < self._n:
                heapq.heappush(
                    self._heap, (duration, next(self._seq), name, trace_id)
                )
                if len(self._heap) == self._n:
                    self._floor = self._heap[0][0]
            elif duration > self._heap[0][0]:
                heapq.heapreplace(
                    self._heap, (duration, next(self._seq), name, trace_id)
                )
                self._floor = self._heap[0][0]

    def top(self) -> List[dict]:
        with self._lock:
            ordered = sorted(self._heap, reverse=True)
        return [
            {"name": name, "trace_id": trace_id, "duration": duration}
            for duration, _, name, trace_id in ordered
        ]
