"""One background loop: a ``step()`` body and the daemon thread driving it.

Every long-lived background activity of a node — each shard worker, the
view refresher, a follower's WAL tail, the SLO ticker — is a
:class:`Loop`.  A step does one unit of work and returns the seconds to
wait before the next (``0``: at once), or ``None`` to end the loop.
Waits go through :attr:`Loop.clock`, the one seam a test replaces: with
a clock whose ``wait`` moves the time, :meth:`Loop.run` on the test
thread turns a timed schedule into an exact sequence of steps.

This module imports nothing from ``repro``, so every package can use it.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Optional

logger = logging.getLogger("repro.loop")


class MonotonicClock:
    """Real time: what a loop schedules by unless a test swaps it."""

    now = staticmethod(time.monotonic)
    wait = staticmethod(threading.Event.wait)  # wait(event, timeout)


class Loop:
    """Runs ``step`` on one daemon thread until it returns None or stops."""

    def __init__(
        self,
        name: str,
        step: Callable[[], Optional[float]],
        first_delay: float = 0.0,
    ) -> None:
        self.name = name
        self.first_delay = first_delay
        self.clock = MonotonicClock()
        self._step = step
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "Loop":
        """Run on a fresh daemon thread; a no-op while one is running."""
        if not self.alive:
            self._stop.clear()
            self._wake.clear()
            self._thread = threading.Thread(
                target=self.run, name=self.name, daemon=True
            )
            self._thread.start()
        return self

    def run(self) -> None:
        """Wait, step, repeat on the calling thread until the step returns
        None or raises (logged), or :meth:`stop` is called."""
        delay = self.first_delay
        try:
            while delay is not None:
                if delay > 0:
                    self.clock.wait(self._wake, delay)
                    # cleared after the wait, never before it: a poke that
                    # lands during a step must cut the next wait short
                    self._wake.clear()
                if self._stop.is_set():
                    return
                delay = self._step()
        except Exception:
            logger.exception("%s: step raised; the loop ends", self.name)

    def poke(self) -> None:
        """Cut the current (or next) wait short."""
        self._wake.set()

    def sleep(self, seconds: float) -> bool:
        """Wait inside a step, cut short only by :meth:`stop`; True when
        the loop is stopping."""
        return self.clock.wait(self._stop, seconds)

    def stop(self, timeout: float = 5.0) -> None:
        """End the loop after its current step and join its thread — but
        never from that thread itself.  A thread still running after
        ``timeout`` is logged and abandoned."""
        self._stop.set()
        self._wake.set()
        if self._thread is None or self._thread is threading.current_thread():
            return
        self._thread.join(timeout)
        if self._thread.is_alive():
            logger.warning(
                "%s: still running %.1fs after stop; abandoning the join",
                self.name, timeout,
            )

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()
