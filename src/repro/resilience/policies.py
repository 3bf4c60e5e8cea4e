"""Retry policies: capped exponential backoff with deterministic jitter.

A :class:`RetryPolicy` is a frozen value object describing *how* to retry
— it owns no clock and no sleep, so the same policy drives shard workers
(real sleeps), feed pulls (breaker-gated sleeps) and tests (collected
delays, no sleeping at all).  Jitter is **deterministic**: it is derived
from a CRC of ``(key, attempt)`` rather than a shared RNG, so two
processes retrying the same snippet spread out identically and a chaos
run replays the exact same schedule every time.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.obs.trace import add_event
from repro.resilience.breaker import CircuitOpenError
from repro.resilience.deadline import Deadline


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait between attempts.

    ``max_attempts`` counts *total* tries (first call included), so
    ``max_attempts=3`` means at most two retries.  The delay before retry
    ``n`` (1-based) is ``base_delay * factor**(n-1)`` capped at
    ``max_delay``, then spread by ``jitter`` (a ± fraction) using a hash
    of ``(key, n)`` — no randomness, no coordination between callers.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be non-negative")
        if self.factor < 1.0:
            raise ConfigurationError("factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    def delay(self, retry_number: int, key: str = "") -> float:
        """Delay in seconds before retry ``retry_number`` (1-based)."""
        if retry_number < 1:
            raise ValueError("retry_number is 1-based")
        raw = min(
            self.base_delay * (self.factor ** (retry_number - 1)),
            self.max_delay,
        )
        if not self.jitter or raw == 0.0:
            return raw
        # unit interval from a stable hash: same (key, attempt) -> same spread
        digest = zlib.crc32(f"{key}#{retry_number}".encode("utf-8"))
        unit = digest / 0xFFFFFFFF
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def delays(self, key: str = "") -> Iterator[float]:
        """The full retry schedule: ``max_attempts - 1`` delays."""
        for retry_number in range(1, self.max_attempts):
            yield self.delay(retry_number, key=key)

    def call(
        self,
        fn: Callable,
        *args,
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        key: str = "",
        sleep: Callable[[float], None] = time.sleep,
        deadline: Optional[Deadline] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        **kwargs,
    ):
        """Invoke ``fn`` under this policy; re-raises the final failure.

        Retrying stops early when ``deadline`` expires — the last caught
        exception is re-raised rather than burning time the caller no
        longer has.  An open circuit
        (:class:`~repro.resilience.breaker.CircuitOpenError`) is never
        retried: the breaker already knows further attempts are pointless.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn(*args, **kwargs)
            except retry_on as exc:
                if attempt >= self.max_attempts or isinstance(
                    exc, CircuitOpenError
                ):
                    raise
                pause = self.delay(attempt, key=key)
                if deadline is not None and deadline.remaining() < pause:
                    raise
                add_event(
                    "retry", attempt=attempt, key=key, error=repr(exc),
                )
                if on_retry is not None:
                    on_retry(attempt, exc)
                if pause:
                    sleep(pause)


#: sentinel converting StopIteration into a value (retry loops must never
#: mistake normal exhaustion for a failure)
_DONE = object()


def resilient_iter(
    items,
    retry: Optional[RetryPolicy] = None,
    breaker=None,
    sleep: Callable[[float], None] = time.sleep,
    key: str = "feed",
    max_failures_per_item: Optional[int] = None,
    deadline: Optional[Deadline] = None,
):
    """Iterate ``items``, retrying failed pulls through an optional breaker.

    The source's ``__next__`` may raise (a flaky feed); each pull is
    retried on the policy's schedule, and routed through ``breaker`` so a
    hard-down feed trips open instead of being hammered.  While the
    breaker is open the iterator sleeps out the cool-down and probes
    again — it degrades to *slow*, not to *crashed*.  A single pull that
    keeps failing past ``max_failures_per_item`` (default: 50 full retry
    schedules) re-raises, so a 100%-failure feed cannot livelock.

    Requires a pull-safe source: a failed ``__next__`` must not have
    consumed an item (see :class:`~repro.resilience.faults.FaultyFeed`).
    """
    iterator = iter(items)
    retry = retry if retry is not None else RetryPolicy()
    limit = (
        max_failures_per_item
        if max_failures_per_item is not None
        else retry.max_attempts * 50
    )

    def pull():
        try:
            return next(iterator)
        except StopIteration:
            return _DONE

    failures = 0
    while True:
        if deadline is not None:
            deadline.check("feed pull")
        try:
            item = breaker.call(pull) if breaker is not None else pull()
        except CircuitOpenError as exc:
            sleep(min(max(exc.retry_after, 0.001), 1.0))
            continue
        except Exception:
            failures += 1
            if failures >= limit:
                raise
            pause = retry.delay(
                min(failures, max(1, retry.max_attempts - 1)), key=key
            )
            if pause:
                sleep(pause)
            continue
        failures = 0
        if item is _DONE:
            return
        yield item
