"""StorySketch: the unified snippet/story summary of Section 2.4.

A sketch summarizes a story (or a single snippet — a story of size one) by

* its time span and per-snippet timestamps,
* entity and term frequency profiles, optionally *time-decayed* toward a
  reference time so that an evolving story is represented by what it is
  about *now* rather than what it started as,
* a composable MinHash signature over content shingles for fast Jaccard
  estimation and LSH candidate retrieval.

Sketches support exact removal (refinement moves snippets between stories),
which is why the per-snippet contributions are retained: counters subtract
exactly and the merged MinHash signature is rebuilt from the survivors.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import AbstractSet, Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.eventdata.models import DAY
from repro.sketch.minhash import MinHash, MinHashSignature

#: a member's contribution: (timestamp, entities, terms)
Member = Tuple[float, Collection[str], Tuple[str, ...]]


class StorySketch:
    """Incremental, removable summary of a set of snippets.

    A member is one entry of one map, ``(timestamp, entities, terms)``,
    holding the containers :meth:`add` was given: a story passes its
    snippet's own ``entities`` frozenset and ``match_terms`` tuple, so each
    feature is held once however many sketches and copies hold the member.
    """

    def __init__(
        self,
        minhash: Optional[MinHash] = None,
        decay_half_life: float = 14 * DAY,
    ) -> None:
        if decay_half_life <= 0:
            raise ValueError("decay_half_life must be positive")
        self.minhash = minhash
        self.decay_half_life = decay_half_life
        self.entity_counts: Counter = Counter()
        self.term_counts: Counter = Counter()
        #: sum(entity_counts.values()) / sum(term_counts.values())
        self.entity_mass = 0
        self.term_mass = 0
        self._span: Optional[Tuple[float, float]] = None  # None = recompute
        #: id -> (timestamp, entities, terms), in insertion order
        self._members: Dict[str, Member] = {}
        self._signatures: Dict[str, MinHashSignature] = {}
        self._merged_signature: Optional[MinHashSignature] = None

    # -- membership -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, snippet_id: str) -> bool:
        return snippet_id in self._members

    @property
    def snippet_ids(self) -> List[str]:
        """Member ids ordered by (timestamp, id)."""
        return sorted(self._members, key=lambda sid: (self._members[sid][0], sid))

    def add(
        self,
        snippet_id: str,
        timestamp: float,
        entities: Iterable[str],
        terms: Iterable[str],
        shingles: Optional[Set] = None,
    ) -> None:
        """Add one snippet's contribution (ValueError on duplicates).

        A frozenset of ``entities`` and a tuple of ``terms`` are held as
        they are (a frozenset iterates in the order a tuple of it would, so
        every count and sum is the same); other iterables as tuples.
        """
        if snippet_id in self._members:
            raise ValueError(f"snippet {snippet_id!r} already in sketch")
        entity_keys = entities if isinstance(entities, frozenset) else tuple(entities)
        term_tuple = tuple(terms)
        if not self._members:
            self._span = (timestamp, timestamp)
        elif self._span is not None:
            start, end = self._span
            self._span = (min(start, timestamp), max(end, timestamp))
        self._members[snippet_id] = (timestamp, entity_keys, term_tuple)
        self.entity_counts.update(entity_keys)
        self.term_counts.update(term_tuple)
        self.entity_mass += len(entity_keys)
        self.term_mass += len(term_tuple)
        if self.minhash is not None:
            elements = shingles if shingles is not None else set(term_tuple)
            signature = self.minhash.signature(elements)
            self._signatures[snippet_id] = signature
            if self._merged_signature is None:
                self._merged_signature = signature
            else:
                self._merged_signature = self.minhash.merge(
                    self._merged_signature, signature
                )

    def copy(self) -> "StorySketch":
        """The sketch :meth:`add` builds from these members in
        ``(timestamp, id)`` order, hashing nothing: every member-order
        sum reads the same floats, and the merged signature (a
        coordinate-wise minimum) is this one's."""
        clone = StorySketch(self.minhash, self.decay_half_life)
        clone._members = members = dict(sorted(
            self._members.items(), key=lambda item: (item[1][0], item[0])))
        held = self._signatures
        clone._signatures = {sid: held[sid] for sid in members} if held else {}
        # keys in first-seen order, as add() puts them
        clone.entity_counts.update(chain.from_iterable(m[1] for m in members.values()))
        clone.term_counts.update(chain.from_iterable(m[2] for m in members.values()))
        clone.entity_mass, clone.term_mass = self.entity_mass, self.term_mass
        clone._span = self.span if members else None
        clone._merged_signature = self._merged_signature
        return clone

    def remove(self, snippet_id: str) -> None:
        """Exactly undo one snippet's contribution (KeyError if absent)."""
        _, entity_keys, term_tuple = self._members.pop(snippet_id)
        self._span = None
        self.entity_mass -= len(entity_keys)
        self.term_mass -= len(term_tuple)
        # only the removed snippet's own keys can have dropped to zero
        for counter, removed in (
            (self.entity_counts, entity_keys), (self.term_counts, term_tuple)
        ):
            counter.subtract(removed)
            for key in set(removed):
                if counter[key] <= 0:
                    del counter[key]
        if self.minhash is not None:
            self._signatures.pop(snippet_id, None)
            self._merged_signature = None
            for signature in self._signatures.values():
                if self._merged_signature is None:
                    self._merged_signature = signature
                else:
                    self._merged_signature = self.minhash.merge(
                        self._merged_signature, signature
                    )

    # -- temporal view ----------------------------------------------------------

    @property
    def span(self) -> Tuple[float, float]:
        """(start, end): kept current by add, recomputed after a remove."""
        if self._span is None:
            if not self._members:
                raise ValueError("empty sketch has no start or end")
            timestamps = [member[0] for member in self._members.values()]
            self._span = (min(timestamps), max(timestamps))
        return self._span

    @property
    def start(self) -> float:
        return self.span[0]

    @property
    def end(self) -> float:
        return self.span[1]

    def timestamp_of(self, snippet_id: str) -> float:
        return self._members[snippet_id][0]

    def timestamps(self) -> List[float]:
        return sorted(member[0] for member in self._members.values())

    def nearest(self, timestamp: float) -> float:
        """Distance from ``timestamp`` to the closest member's."""
        return min(abs(timestamp - member[0]) for member in self._members.values())

    # -- profiles -----------------------------------------------------------------

    def _decay_weight(self, timestamp: float, at_time: float) -> float:
        age = abs(at_time - timestamp)
        return math.pow(0.5, age / self.decay_half_life)

    def entity_profile(self, at_time: Optional[float] = None) -> Dict[str, float]:
        """Entity weights; decayed toward ``at_time`` when given."""
        if at_time is None:
            return dict(self.entity_counts)
        profile: Dict[str, float] = {}
        for member_time, entity_keys, _ in self._members.values():
            weight = self._decay_weight(member_time, at_time)
            for entity in entity_keys:
                profile[entity] = profile.get(entity, 0.0) + weight
        return profile

    def term_profile(self, at_time: Optional[float] = None) -> Dict[str, float]:
        """Term weights; decayed toward ``at_time`` when given."""
        if at_time is None:
            return dict(self.term_counts)
        profile: Dict[str, float] = {}
        for member_time, _, term_tuple in self._members.values():
            weight = self._decay_weight(member_time, at_time)
            for term in term_tuple:
                profile[term] = profile.get(term, 0.0) + weight
        return profile

    def decayed_shares(
        self, entities: AbstractSet[str], terms: AbstractSet[str],
        at_time: float, near: float,
    ) -> Tuple[Dict[str, float], float, Dict[str, float], float, float]:
        """(entity weights, entity mass, term weights, term mass, nearest):
        what scoring a snippet reads of the decayed profiles, in one pass.

        The weights are :meth:`entity_profile`/:meth:`term_profile` at
        ``at_time`` on ``entities``/``terms`` only, accumulated in member
        insertion order as the profiles are: the same floats, bit for bit.
        A mass is Σ weight·|features| over members — the sum of the whole
        profile's values, up to rounding.  ``nearest`` is that of ``near``.
        """
        half_life = self.decay_half_life
        entity_shared: Dict[str, float] = {}
        term_shared: Dict[str, float] = {}
        entity_mass = term_mass = 0.0
        nearest = math.inf
        for timestamp, entity_keys, term_tuple in self._members.values():
            distance = abs(near - timestamp)
            if distance < nearest:
                nearest = distance
            # _decay_weight, inlined: the same expression, the same float
            weight = math.pow(0.5, abs(at_time - timestamp) / half_life)
            entity_mass += weight * len(entity_keys)
            for entity in entity_keys:
                if entity in entities:
                    entity_shared[entity] = entity_shared.get(entity, 0.0) + weight
            term_mass += weight * len(term_tuple)
            for term in term_tuple:
                if term in terms:
                    term_shared[term] = term_shared.get(term, 0.0) + weight
        return entity_shared, entity_mass, term_shared, term_mass, nearest

    def entity_set(self) -> Set[str]:
        return set(self.entity_counts)

    @property
    def signature(self) -> Optional[MinHashSignature]:
        """Merged MinHash signature of all member contents (or ``None``)."""
        return self._merged_signature

    def top_entities(self, k: int = 5) -> List[Tuple[str, int]]:
        """Most frequent entities, as the story-overview module lists them."""
        return sorted(self.entity_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def top_terms(self, k: int = 9) -> List[Tuple[str, int]]:
        return sorted(self.term_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
