"""Worker supervision: restart crashed shard loops with capped backoff.

A long-running ingest must survive a worker dying on unexpected input.
Each shard has a supervisor, run inline on the shard's own thread: when
a step raises, :meth:`Supervisor.crashed` answers with the backoff
(``base * factor^n``, capped at ``max_delay``) before the shard's
:class:`~repro.loop.Loop` steps again — that next step *is* the restart,
since the loop keeps no state.  Two terminal outcomes, kept distinct
because they mean different things to an operator:

* **crash-looping** — the *same* exception ``crash_loop_threshold``
  times in a row.  Restarting cannot help (the input or code is
  deterministically broken), so the shard is parked as ``failed``
  immediately instead of grinding through the rest of the restart
  budget at max backoff.  Counted in ``supervisor.crash_loops`` and the
  ``shards.failed`` gauge.
* **dead** — more than ``max_restarts`` consecutive crashes of varying
  shape (flaky infrastructure, not one poison cause).

Either way the shard's queue is purged (items counted as dropped) and
closed so producers and the drain barrier never hang on it.  Any item
processed without raising resets the crash streak
(:meth:`Supervisor.note_progress`), so only *consecutive* crashes count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.runtime.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.runtime.shard import Shard

logger = logging.getLogger("repro.runtime.supervisor")


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff between restarts of one shard."""

    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    max_restarts: int = 5
    #: identical consecutive exceptions before parking the shard as failed
    crash_loop_threshold: int = 3

    def delay(self, restarts: int) -> float:
        return min(self.base_delay * (self.factor ** restarts), self.max_delay)


def _crash_signature(exc: BaseException) -> str:
    """A stable identity for 'the same crash': its type and message."""
    return f"{type(exc).__name__}: {exc}"


class Supervisor:
    """Restart-or-retire decisions for one shard, made on its own thread."""

    def __init__(
        self, metrics: MetricsRegistry, policy: Optional[BackoffPolicy] = None
    ) -> None:
        self._policy = policy if policy is not None else BackoffPolicy()
        self._restart_counter = metrics.counter("supervisor.restarts")
        self._crash_loop_counter = metrics.counter("supervisor.crash_loops")
        self._dead_gauge = metrics.gauge("shards.dead")
        self._failed_gauge = metrics.gauge("shards.failed")
        self.crashes = 0  # consecutive: healthy processing resets them
        self._signature: Optional[str] = None
        self._streak = 0  # consecutive crashes with this signature

    def crashed(self, shard: Shard, exc: BaseException) -> Optional[float]:
        """Count one crash of ``shard``: the backoff before its restart,
        or None once it is parked or declared dead (retired)."""
        signature = _crash_signature(exc)
        self.crashes += 1
        self._streak = self._streak + 1 if signature == self._signature else 1
        self._signature = signature
        if self._streak >= self._policy.crash_loop_threshold:
            # same exception every restart: parking cannot lose more than
            # restarting forever would, and it frees the operator signal
            # from the noise of doomed retries
            logger.error(
                "shard %d: crash-looping (%d consecutive identical crashes: "
                "%s); parking as failed", shard.shard_id, self._streak,
                signature,
            )
            shard.failed = True
            self._crash_loop_counter.inc()
            self._failed_gauge.add(1)
        elif self.crashes > self._policy.max_restarts:
            logger.error(
                "shard %d: exceeded %d restarts; declaring dead",
                shard.shard_id, self._policy.max_restarts,
            )
            self._dead_gauge.add(1)
        else:
            self._restart_counter.inc()
            return self._policy.delay(self.crashes - 1)
        shard.dead = True
        shard.queue.purge()
        shard.queue.close()
        return None

    def note_progress(self) -> None:
        """Reset the crash streak after healthy processing."""
        self.crashes = self._streak = 0
        self._signature = None
