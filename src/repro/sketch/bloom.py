"""Bloom filter for approximate membership.

Stream deduplication does not use it: a filter without false negatives
in front of an exact seen-set that admits ids at the same moment
(:class:`~repro.core.streaming.BoundedSeenSet`) never changes an answer.
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable


class BloomFilter:
    """A classic Bloom filter sized for ``capacity`` items at ``error_rate``."""

    def __init__(self, capacity: int = 10_000, error_rate: float = 0.01) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        self.capacity = capacity
        self.error_rate = error_rate
        # Optimal sizing: m = -n ln p / (ln 2)^2, k = (m/n) ln 2.
        self.num_bits = max(8, int(-capacity * math.log(error_rate) / math.log(2) ** 2))
        self.num_hashes = max(1, round(self.num_bits / capacity * math.log(2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0

    def __len__(self) -> int:
        """Number of ``add`` calls (including re-adds)."""
        return self._count

    def _positions(self, item: Hashable):
        data = repr(item).encode("utf-8")
        digest = hashlib.blake2b(data, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, item: Hashable) -> None:
        for position in self._positions(item):
            self._bits[position // 8] |= 1 << (position % 8)
        self._count += 1

    def __contains__(self, item: Hashable) -> bool:
        return all(
            self._bits[position // 8] & (1 << (position % 8))
            for position in self._positions(item)
        )

    def estimated_error_rate(self) -> float:
        """Expected false-positive rate at the current fill level."""
        fill = 1.0 - math.exp(-self.num_hashes * self._count / self.num_bits)
        return fill**self.num_hashes
