"""Circuit breaker: stop hammering a dependency that is already down.

Retries handle *blips*; a breaker handles *outages*.  It watches a
sliding window of recent call outcomes and, when the failure rate
crosses a threshold, moves

``closed`` → ``open``
    every call is refused immediately (``CircuitOpenError`` carries a
    retry hint) so a dead feed or KB endpoint costs microseconds, not a
    full retry schedule per lookup;
``open`` → ``half-open``
    after ``reset_timeout`` on the (injectable) clock, a bounded number
    of probe calls are let through;
``half-open`` → ``closed`` / back to ``open``
    enough probe successes close it and clear the window; any probe
    failure reopens it and restarts the timeout.

State transitions and refusals are visible in the metrics registry as
``breaker.<name>.state`` (0 closed / 1 half-open / 2 open),
``breaker.<name>.opened`` and ``breaker.<name>.rejected``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import ConfigurationError, StoryPivotError
from repro.obs.trace import add_event

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_STATE_VALUE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitOpenError(StoryPivotError):
    """The breaker refused the call without attempting it."""

    def __init__(self, name: str, retry_after: float) -> None:
        super().__init__(
            f"circuit {name!r} is open; retry in {retry_after:.2f}s"
        )
        self.name = name
        self.retry_after = retry_after


class CircuitBreaker:
    """Failure-rate windowed breaker with half-open probing."""

    def __init__(
        self,
        name: str = "default",
        failure_threshold: float = 0.5,
        window: int = 20,
        min_calls: int = 5,
        reset_timeout: float = 30.0,
        half_open_probes: int = 2,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigurationError("failure_threshold must be in (0, 1]")
        if window < 1 or min_calls < 1 or half_open_probes < 1:
            raise ConfigurationError(
                "window, min_calls and half_open_probes must be positive"
            )
        if reset_timeout < 0:
            raise ConfigurationError("reset_timeout must be non-negative")
        self.name = name
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._window: Deque[bool] = deque(maxlen=window)  # True = failure
        self._state = CLOSED
        self._opened_at = 0.0
        self._probes_inflight = 0
        self._probe_successes = 0
        self._on_transition = on_transition
        self._metrics = metrics
        if metrics is not None:
            metrics.gauge(f"breaker.{name}.state").set(0)
            metrics.counter(f"breaker.{name}.opened")
            metrics.counter(f"breaker.{name}.rejected")

    # -- state machine (callers hold no lock) ------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def failure_rate(self) -> float:
        with self._lock:
            if not self._window:
                return 0.0
            return sum(self._window) / len(self._window)

    def _transition_locked(self, new_state: str) -> None:
        old, self._state = self._state, new_state
        if old == new_state:
            return
        add_event(
            "breaker.transition", breaker=self.name,
            from_state=old, to_state=new_state,
        )
        if self._metrics is not None:
            self._metrics.gauge(f"breaker.{self.name}.state").set(
                _STATE_VALUE[new_state]
            )
            if new_state == OPEN:
                self._metrics.counter(f"breaker.{self.name}.opened").inc()
        if self._on_transition is not None:
            self._on_transition(old, new_state)

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._probes_inflight = 0
            self._probe_successes = 0
            self._transition_locked(HALF_OPEN)

    def allow(self) -> bool:
        """May a call proceed right now?  Half-open admits bounded probes."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if self._probes_inflight < self.half_open_probes:
                    self._probes_inflight += 1
                    return True
                return False
            return False

    def retry_after(self) -> float:
        """Seconds until the breaker will next admit a probe."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(
                0.0, self._opened_at + self.reset_timeout - self._clock()
            )

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._window.clear()
                    self._transition_locked(CLOSED)
                return
            self._window.append(False)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._opened_at = self._clock()
                self._transition_locked(OPEN)
                return
            self._window.append(True)
            if (
                self._state == CLOSED
                and len(self._window) >= self.min_calls
                and sum(self._window) / len(self._window)
                >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition_locked(OPEN)

    # -- convenience -------------------------------------------------------

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` through the breaker, recording the outcome."""
        if not self.allow():
            if self._metrics is not None:
                self._metrics.counter(f"breaker.{self.name}.rejected").inc()
            add_event("breaker.rejected", breaker=self.name)
            raise CircuitOpenError(self.name, self.retry_after())
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def call_with_retry(
        self,
        fn: Callable,
        *args,
        retry,
        key: str = "",
        sleep: Callable[[float], None] = time.sleep,
        deadline=None,
        **kwargs,
    ):
        """Run ``fn`` on ``retry``'s schedule, each attempt through the
        breaker (:meth:`RetryPolicy.call` over :meth:`call`).  An open
        circuit is *not* retried against — the
        :class:`CircuitOpenError` propagates immediately, since the
        breaker already knows further attempts are pointless."""
        return retry.call(
            self.call, fn, *args, key=key, sleep=sleep, deadline=deadline,
            **kwargs,
        )
