"""Inverted index: feature -> posting set of item ids.

Used per source partition to retrieve candidate snippets sharing at least
one entity or term with a query snippet, so that the matcher scores a small
candidate pool instead of everything in the temporal window.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Iterable, Set, Tuple


class InvertedIndex:
    """Mapping from features to the item ids containing them."""

    def __init__(self) -> None:
        self._postings: Dict[Hashable, Set[str]] = defaultdict(set)
        self._features_of: Dict[str, Tuple[Hashable, ...]] = {}

    def __len__(self) -> int:
        """Number of indexed items (not features)."""
        return len(self._features_of)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._features_of

    def insert(self, item_id: str, features: Iterable[Hashable]) -> None:
        """Index ``item_id`` under each feature (ValueError on duplicate)."""
        if item_id in self._features_of:
            raise ValueError(f"item {item_id!r} already indexed")
        feature_tuple = tuple(set(features))
        self._features_of[item_id] = feature_tuple
        for feature in feature_tuple:
            self._postings[feature].add(item_id)

    def remove(self, item_id: str) -> None:
        """Remove an item and prune empty postings (KeyError if absent)."""
        for feature in self._features_of.pop(item_id):
            posting = self._postings.get(feature)
            if posting is not None:
                posting.discard(item_id)
                if not posting:
                    del self._postings[feature]

    def candidates(self, features: Iterable[Hashable]) -> Set[str]:
        """Union of postings — ids sharing >= 1 feature with the query."""
        found: Set[str] = set()
        for feature in set(features):
            found |= self._postings.get(feature, set())
        return found
