"""Temporal index: ordered (timestamp, id) pairs with range queries.

A thin wrapper over ``bisect`` on a sorted list.  Insertion is O(n) due to
list shifting but n here is a per-source partition, and removal/lookup stay
O(log n) to find positions — adequate for the corpus sizes of the paper's
demo and far simpler than a tree; the interface would let a B-tree drop in.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterator, List, Optional, Tuple


class TemporalIndex:
    """Sorted index of ``(timestamp, item_id)`` supporting window queries."""

    def __init__(self) -> None:
        self._entries: List[Tuple[float, str]] = []
        self._positions = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._positions

    def insert(self, item_id: str, timestamp: float) -> None:
        """Insert an item (ValueError on duplicate id)."""
        if item_id in self._positions:
            raise ValueError(f"item {item_id!r} already indexed")
        entry = (timestamp, item_id)
        bisect.insort(self._entries, entry)
        self._positions[item_id] = timestamp

    def remove(self, item_id: str) -> None:
        """Remove an item (KeyError if absent)."""
        timestamp = self._positions.pop(item_id)
        index = bisect.bisect_left(self._entries, (timestamp, item_id))
        # bisect_left lands exactly on the entry because entries are unique.
        del self._entries[index]

    def timestamp_of(self, item_id: str) -> float:
        return self._positions[item_id]

    def window(self, start: float, end: float) -> List[str]:
        """Item ids with ``start <= timestamp <= end``, in time order."""
        if end < start:
            return []
        # one-element bounds sort before every entry of their timestamp,
        # whatever its id's characters
        lo = bisect.bisect_left(self._entries, (start,))
        hi = bisect.bisect_left(self._entries, (math.nextafter(end, math.inf),))
        return [item_id for _, item_id in self._entries[lo:hi]]

    def around(self, timestamp: float, radius: float) -> List[str]:
        """Ids within ``radius`` of ``timestamp`` — the ω-window of Fig. 2b."""
        return self.window(timestamp - radius, timestamp + radius)

    def before(self, timestamp: float, limit: Optional[int] = None) -> List[str]:
        """Ids strictly before ``timestamp``, most recent first."""
        hi = bisect.bisect_left(self._entries, (timestamp, ""))
        selected = self._entries[:hi][::-1]
        if limit is not None:
            selected = selected[:limit]
        return [item_id for _, item_id in selected]

    def items(self) -> Iterator[Tuple[float, str]]:
        """All (timestamp, id) pairs in time order."""
        return iter(list(self._entries))

    def span(self) -> Tuple[float, float]:
        """(min, max) timestamp (ValueError when empty)."""
        if not self._entries:
            raise ValueError("temporal index is empty")
        return self._entries[0][0], self._entries[-1][0]
