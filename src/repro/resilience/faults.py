"""Deterministic fault injection: chaos you can replay byte for byte.

Robustness that is only claimed rots; robustness that is *exercised* on
every test run and CI ingest stays true.  The :class:`FaultInjector`
wraps the seams of the system — feed pulls, shard processing, WAL file
I/O, arbitrary callables (KB lookups) — and injects configurable faults:

* feed: exceptions (raised *before* an item is consumed, so a retried
  pull loses nothing), latency spikes, duplicated items, adjacent-pair
  reorders;
* shard: transient errors (fail once, succeed on retry) and sticky
  poison (fail every attempt → dead-letter queue);
* WAL: torn writes — the tail of a just-appended record is truncated,
  exactly the artifact of a crash mid-``write(2)``;
* callables: plain injected exceptions at a given rate.

Determinism: every injection site draws from its **own** RNG seeded by
``(seed, profile, site)``, and per-snippet decisions are memoized, so
the fault sequence at each site is a pure function of the seed, the
profile and that site's traffic — independent of thread interleaving,
retries and wall clocks.  Same seed + profile ⇒ same faults.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError


class InjectedFaultError(RuntimeError):
    """A deliberately injected failure (transient unless poison)."""

    def __init__(self, site: str, kind: str, detail: str = "") -> None:
        super().__init__(
            f"injected {kind} fault at {site}" + (f": {detail}" if detail else "")
        )
        self.site = site
        self.kind = kind


class InjectedPoisonError(InjectedFaultError):
    """An injected failure that recurs on every attempt (true poison)."""


@dataclass(frozen=True)
class FaultProfile:
    """Per-site fault rates (all probabilities in [0, 1])."""

    name: str = "default"
    feed_error_rate: float = 0.05
    feed_latency_rate: float = 0.02
    duplicate_rate: float = 0.03
    reorder_rate: float = 0.03
    shard_transient_rate: float = 0.03
    shard_poison_rate: float = 0.01
    torn_write_rate: float = 0.0
    kb_error_rate: float = 0.05
    latency_seconds: float = 0.001

    def __post_init__(self) -> None:
        for field_name in (
            "feed_error_rate", "feed_latency_rate", "duplicate_rate",
            "reorder_rate", "shard_transient_rate", "shard_poison_rate",
            "torn_write_rate", "kb_error_rate",
        ):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{field_name} must be in [0, 1]")
        if self.latency_seconds < 0:
            raise ConfigurationError("latency_seconds must be non-negative")


PROFILES: Dict[str, FaultProfile] = {
    "off": FaultProfile(
        name="off", feed_error_rate=0.0, feed_latency_rate=0.0,
        duplicate_rate=0.0, reorder_rate=0.0, shard_transient_rate=0.0,
        shard_poison_rate=0.0, torn_write_rate=0.0, kb_error_rate=0.0,
    ),
    "default": FaultProfile(name="default"),
    "feed-flap": FaultProfile(
        name="feed-flap", feed_error_rate=0.35, feed_latency_rate=0.05,
        duplicate_rate=0.05, reorder_rate=0.05,
        shard_transient_rate=0.0, shard_poison_rate=0.0,
    ),
    "poison": FaultProfile(
        name="poison", feed_error_rate=0.02,
        shard_transient_rate=0.08, shard_poison_rate=0.05,
    ),
    "torn-wal": FaultProfile(
        name="torn-wal", feed_error_rate=0.02, torn_write_rate=0.08,
        shard_transient_rate=0.02, shard_poison_rate=0.0,
    ),
}


def resolve_profile(profile) -> FaultProfile:
    """Accept a profile name or a :class:`FaultProfile` instance."""
    if isinstance(profile, FaultProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos profile {profile!r}; "
            f"choose from {sorted(PROFILES)}"
        )


@dataclass(frozen=True)
class InjectedFault:
    """One injected fault, for determinism assertions and audits."""

    seq: int
    site: str
    kind: str
    detail: str = ""


class FaultInjector:
    """Seeded, deterministic fault source for every seam of the system."""

    def __init__(
        self,
        seed: int = 0,
        profile="default",
        metrics=None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.seed = seed
        self.profile = resolve_profile(profile)
        self.metrics = metrics
        self._sleep = sleep
        self._lock = threading.Lock()
        self._rngs: Dict[str, random.Random] = {}
        self._snippet_fates: Dict[str, str] = {}
        self._transient_fired: set = set()
        self.log: List[InjectedFault] = []
        if metrics is not None:
            metrics.counter("faults.injected")

    # -- bookkeeping -------------------------------------------------------

    def _rng(self, site: str) -> random.Random:
        with self._lock:
            rng = self._rngs.get(site)
            if rng is None:
                # string seeding hashes the bytes: stable across processes
                rng = random.Random(
                    f"{self.seed}:{self.profile.name}:{site}"
                )
                self._rngs[site] = rng
            return rng

    def _record(self, site: str, kind: str, detail: str = "") -> None:
        with self._lock:
            fault = InjectedFault(len(self.log), site, kind, detail)
            self.log.append(fault)
        if self.metrics is not None:
            self.metrics.counter("faults.injected").inc()
            self.metrics.counter(f"faults.injected.{kind}").inc()

    def faults(self, site: Optional[str] = None) -> List[InjectedFault]:
        with self._lock:
            log = list(self.log)
        if site is None:
            return log
        return [fault for fault in log if fault.site == site]

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for fault in self.faults():
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts

    # -- feed wrapper ------------------------------------------------------

    def wrap_feed(self, items: Iterable, site: str = "feed") -> "FaultyFeed":
        return FaultyFeed(self, items, site)

    # -- shard processing hook ---------------------------------------------

    def shard_fault_hook(self, shard_id: int) -> Callable:
        """A per-snippet hook for :attr:`Shard.fault_hook`.

        Each snippet's fate is decided once (memoized): poison raises on
        every attempt and must end up quarantined; transient raises only
        the first time, so the worker's retry succeeds.
        """
        site = f"shard{shard_id:03d}"
        profile = self.profile

        def hook(snippet) -> None:
            key = f"{site}:{snippet.snippet_id}"
            with self._lock:
                fate = self._snippet_fates.get(key)
            if fate is None:
                roll = self._rng(site).random()
                if roll < profile.shard_poison_rate:
                    fate = "poison"
                elif roll < profile.shard_poison_rate + profile.shard_transient_rate:
                    fate = "transient"
                else:
                    fate = "ok"
                with self._lock:
                    self._snippet_fates[key] = fate
            if fate == "poison":
                if key not in self._transient_fired:
                    self._transient_fired.add(key)
                    self._record(site, "poison", snippet.snippet_id)
                raise InjectedPoisonError(site, "poison", snippet.snippet_id)
            if fate == "transient" and key not in self._transient_fired:
                self._transient_fired.add(key)
                self._record(site, "transient", snippet.snippet_id)
                raise InjectedFaultError(site, "transient", snippet.snippet_id)

        return hook

    # -- WAL wrapper -------------------------------------------------------

    def wrap_wal(self, wal, shard_id: int = 0) -> "ChaosWal":
        return ChaosWal(self, wal, f"wal{shard_id:03d}")

    def tear_tail(self, path: str, site: str = "wal") -> int:
        """Truncate the final bytes of a file (simulated mid-write crash).

        Returns the number of bytes removed (0 if the file is too small
        to tear meaningfully).
        """
        try:
            size = os.path.getsize(path)
        except OSError:
            return 0
        if size < 4:
            return 0
        chop = self._rng(site).randint(1, min(24, size - 2))
        os.truncate(path, size - chop)
        self._record(site, "torn-write", f"-{chop}B")
        return chop

    # -- generic callable wrapper ------------------------------------------

    def wrap_callable(
        self, site: str, fn: Callable, rate: Optional[float] = None
    ) -> Callable:
        """Wrap ``fn`` to raise an injected error at ``rate`` per call."""
        if rate is None:
            rate = self.profile.kb_error_rate

        def wrapped(*args, **kwargs):
            if rate and self._rng(site).random() < rate:
                self._record(site, "error")
                raise InjectedFaultError(site, "error")
            return fn(*args, **kwargs)

        return wrapped


class FaultyFeed:
    """Pull-based faulty iterator: errors never consume an item.

    An injected exception is raised *before* the underlying iterator
    advances, so a caller that retries the pull sees every real item
    exactly once (plus injected duplicates).  Reorders swap adjacent
    pairs; duplicates replay the previous item once.
    """

    def __init__(self, injector: FaultInjector, items: Iterable, site: str) -> None:
        self._injector = injector
        self._inner = iter(items)
        self._site = site
        self._pending: Deque = deque()

    def __iter__(self) -> Iterator:
        return self

    def __next__(self):
        injector, profile = self._injector, self._injector.profile
        rng = injector._rng(self._site)
        if profile.feed_error_rate and rng.random() < profile.feed_error_rate:
            injector._record(self._site, "error")
            raise InjectedFaultError(self._site, "error")
        if self._pending:
            item = self._pending.popleft()
        else:
            item = next(self._inner)  # StopIteration ends the feed cleanly
            if profile.duplicate_rate and rng.random() < profile.duplicate_rate:
                injector._record(self._site, "duplicate")
                self._pending.append(item)
            elif profile.reorder_rate and rng.random() < profile.reorder_rate:
                try:
                    swapped = next(self._inner)
                except StopIteration:
                    swapped = None
                if swapped is not None:
                    injector._record(self._site, "reorder")
                    self._pending.append(item)
                    item = swapped
        if (
            profile.feed_latency_rate
            and rng.random() < profile.feed_latency_rate
        ):
            injector._record(self._site, "latency")
            injector._sleep(profile.latency_seconds)
        return item


class ChaosWal:
    """Proxy over a ``ShardWal`` that occasionally tears its writes.

    After a fraction of appends the just-written record's tail is
    truncated — the next append then concatenates onto the torn prefix,
    producing exactly the garbage line a crash between ``write`` and
    ``fsync`` leaves behind.  Recovery must skip it and keep going.
    """

    def __init__(self, injector: FaultInjector, wal, site: str) -> None:
        self._injector = injector
        self._wal = wal
        self._site = site
        self.torn_writes = 0

    def append(self, snippet, seq=None) -> int:
        written = self._wal.append(snippet, seq)
        profile = self._injector.profile
        if profile.torn_write_rate:
            rng = self._injector._rng(self._site)
            if rng.random() < profile.torn_write_rate:
                self._wal.log.flush()
                chopped = self._injector.tear_tail(
                    self._wal.path, site=self._site
                )
                self.torn_writes += 1 if chopped else 0
        return written

    def __getattr__(self, name):
        return getattr(self._wal, name)
