"""One shard: a queue, a pivot, a WAL, and the loop step that ties them.

Sharding is by *source*: story identification is strictly per-source
(Section 2.2 connects snippets within one source's partition), so a shard
can own a disjoint set of sources and run identification with no
cross-shard coordination at all.  Only alignment needs a global view,
and it runs when a view is built, over a merged pivot.

Each shard runs on its own :class:`~repro.loop.Loop`, whose step is
:meth:`Shard.step`: one dequeue, then the consume.  A snippet that fails
is retried on the shard's
:class:`~repro.resilience.policies.RetryPolicy` schedule and, when the
schedule is exhausted, routed to the shard's dead-letter queue while the
worker keeps consuming: one bad record costs one quarantine entry, never
the shard.  A crash that escapes the consume (a dead-letter append that
raises, say) goes to the shard's supervisor, on the shard's own thread,
which answers with the backoff before the restart or retires the shard.
The in-flight item is acknowledged either way, so a poison snippet
cannot wedge the drain barrier.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Optional, Set

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.core.streaming import BoundedSeenSet
from repro.errors import DuplicateSnippetError
from repro.eventdata.models import Snippet
from repro.loop import Loop
from repro.obs.trace import NULL_TRACER, Envelope, add_event
from repro.resilience.dlq import DeadLetterQueue
from repro.resilience.policies import RetryPolicy
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.queues import BoundedQueue, Empty, QueueClosed
from repro.runtime.supervisor import BackoffPolicy, Supervisor
from repro.runtime.wal import CheckpointStore, ShardWal

#: snippet-level retry schedule: quick, bounded, deterministic jitter
DEFAULT_SHARD_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.01, factor=2.0, max_delay=0.2, jitter=0.1
)

logger = logging.getLogger("repro.runtime.shard")


class Shard:
    """State and processing logic for one shard worker."""

    def __init__(
        self,
        shard_id: int,
        config: StoryPivotConfig,
        queue: BoundedQueue,
        metrics: MetricsRegistry,
        wal: Optional[ShardWal] = None,
        dedup_capacity: int = 100_000,
        checkpoint_every: int = 0,
        checkpoint_fn: Optional[Callable[["Shard"], None]] = None,
        retry: Optional[RetryPolicy] = None,
        dlq: Optional[DeadLetterQueue] = None,
        tracer=None,
        decisions=None,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.shard_id = shard_id
        self.queue = queue
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._decisions = decisions
        self.pivot = StoryPivot(config, decision_log=decisions)
        self.wal = wal
        self.lock = threading.RLock()
        self.sources: Set[str] = set()
        self.accepted = 0
        self.duplicates = 0
        self.failures = 0
        self.quarantined = 0
        self.dead = False
        self.failed = False  # parked by the supervisor as crash-looping
        self.supervisor = Supervisor(metrics, backoff)
        self.loop = Loop(f"storypivot-shard-{shard_id}", step=self.step)
        self.retry = retry if retry is not None else DEFAULT_SHARD_RETRY
        self.dlq = dlq
        self._seen = BoundedSeenSet(dedup_capacity)
        self._checkpoint_every = checkpoint_every
        self._checkpoint_fn = checkpoint_fn
        self._accepted_since_checkpoint = 0
        self._metrics = metrics
        self._offer_latency = metrics.histogram("ingest.offer_latency_seconds")
        self._accepted_counter = metrics.counter("ingest.accepted")
        self._duplicate_counter = metrics.counter("ingest.duplicates")
        self._failure_counter = metrics.counter("shard.failures")
        self._wal_records = metrics.counter("wal.records")
        self._wal_bytes = metrics.counter("wal.bytes")
        self._retry_counter = metrics.counter("shard.retries")
        self._retry_success_counter = metrics.counter("shard.retry_successes")
        self._dlq_counter = metrics.counter("dlq.records")
        self._depth_gauge = metrics.gauge("queue.depth", shard=shard_id)
        #: test/fault-injection hook, called with each snippet before
        #: processing; raising simulates a worker crash
        self.fault_hook: Optional[Callable[[Snippet], None]] = None

    # -- state restoration (resume path) -----------------------------------

    def restore(self, pivot: StoryPivot) -> None:
        """Adopt a recovered pivot and reseed the dedup structures."""
        with self.lock:
            self.pivot = pivot
            if self._decisions is not None:
                pivot.set_decision_log(self._decisions)
            for source_id, story_set in pivot.story_sets().items():
                self.sources.add(source_id)
                for story in story_set:
                    if self._decisions is not None:
                        self._decisions.record(
                            "restored", story.story_id, source_id,
                            num_snippets=len(story),
                        )
                    for snippet_id in story.snippet_ids():
                        self._seen.add(snippet_id)

    def checkpoint(self, store: CheckpointStore) -> int:
        """Save the pivot at the WAL position it covers, then seal the WAL
        (rotate, not truncate: sealed segments are what replication
        ships).  Returns the checkpoint's bytes."""
        with self.lock:
            # sp-lint: disable=SP201 -- checkpoint must capture the shard frozen; holding its lock across the save is the consistency contract
            size = store.save(self.shard_id, self.pivot, self.wal.position)
            # sp-lint: disable=SP201 -- sealed with the shard frozen, so the segment ends where the checkpoint does
            self.wal.rotate()
        return size

    # -- processing --------------------------------------------------------

    def process(self, snippet: Snippet, seq: Optional[int] = None) -> bool:
        """Dedup, identify, and WAL one snippet; True if accepted.

        A follower passes the leader's ``seq``, so its WAL numbers the
        record as the leader did, gaps included.
        """
        with self._tracer.span("shard.integrate", shard=self.shard_id) as span:
            return self._integrate(snippet, span, seq)

    def _integrate(self, snippet: Snippet, span, seq: Optional[int]) -> bool:
        if self.fault_hook is not None:
            self.fault_hook(snippet)
        started = time.perf_counter()
        with self.lock:
            snippet_id = snippet.snippet_id
            # the seen-set answers recent re-deliveries; older ones are
            # caught by the identifier's own exact check
            duplicate = snippet_id in self._seen
            if not duplicate:
                try:
                    self.pivot.add_snippet(snippet)
                except DuplicateSnippetError:
                    duplicate = True
            if duplicate:
                self.duplicates += 1
                self._duplicate_counter.inc()
                span.add_event("dedup.hit", snippet=snippet_id)
                span.set(outcome="duplicate")
                return False
            # the seen-set admits the id only after integration succeeds,
            # so a retried poison snippet is not misread as a duplicate
            # of its own failed attempt
            self._seen.add(snippet_id)
            self.sources.add(snippet.source_id)
            if self.wal is not None:
                with self._tracer.span("wal.append", shard=self.shard_id):
                    # sp-lint: disable=SP201 -- the append is integration's durability step, ordered by the shard lock
                    self._wal_bytes.inc(self.wal.append(snippet, seq))
                self._wal_records.inc()
            self.accepted += 1
            self._accepted_since_checkpoint += 1
            self._accepted_counter.inc()
            if (
                self._checkpoint_every
                and self._checkpoint_fn is not None
                and self._accepted_since_checkpoint >= self._checkpoint_every
            ):
                self._accepted_since_checkpoint = 0
                self._checkpoint_fn(self)
        self._offer_latency.observe(time.perf_counter() - started)
        span.set(outcome="accepted")
        return True

    # -- poison handling ---------------------------------------------------

    def _retry_or_quarantine(
        self, snippet: Snippet, first_exc: BaseException
    ) -> bool:
        """Re-attempt a failed snippet, then dead-letter it.

        Sleeps are taken on the shard's loop so shutdown interrupts the
        schedule; a snippet still failing at shutdown is quarantined
        immediately rather than holding the drain barrier hostage.
        Returns True when a retry eventually succeeded.
        """
        last_exc = first_exc
        attempts = 1
        for delay in self.retry.delays(key=snippet.snippet_id):
            if delay and self.loop.sleep(delay):
                break
            attempts += 1
            self._retry_counter.inc()
            add_event(
                "retry", snippet=snippet.snippet_id, attempt=attempts,
                error=repr(last_exc),
            )
            try:
                self.process(snippet)
            except Exception as exc:
                last_exc = exc
                continue
            self._retry_success_counter.inc()
            return True
        self.quarantined += 1
        self._dlq_counter.inc()
        add_event(
            "dlq.quarantine", snippet=snippet.snippet_id,
            attempts=attempts, error=repr(last_exc),
        )
        logger.warning(
            "shard %d: quarantining snippet %r after %d attempt(s): %r",
            self.shard_id, snippet.snippet_id, attempts, last_exc,
        )
        if self.dlq is not None:
            self.dlq.append(
                snippet,
                error=repr(last_exc),
                attempts=attempts,
                shard_id=self.shard_id,
            )
        return False

    # -- worker loop -------------------------------------------------------

    def step(self) -> Optional[float]:
        """One dequeue, then consume: the body of :attr:`loop`.

        A failing snippet is retried, then quarantined; a crash returns
        :attr:`supervisor`'s answer (the backoff before the restart, or
        None once the shard is retired), and an item processed without
        raising ends a crash streak.
        """
        try:
            item = self.queue.get(timeout=0.1)
        except Empty:
            return 0.0
        except QueueClosed:
            return None
        try:
            self._consume(item)
        except Exception as exc:
            return self.supervisor.crashed(self, exc)
        finally:
            self.queue.task_done()
            self._depth_gauge.set(len(self.queue))
        if self.supervisor.crashes:
            self.supervisor.note_progress()
        return 0.0

    def _consume(self, envelope: Envelope) -> None:
        """Process one queued snippet with poison handling under its root.

        The producer's root span crossed the queue on the envelope (the
        shared no-op span when tracing is off) and is re-bound here;
        ``queue.wait`` is measured from the producer's enqueue instant to
        now, and the root is ended here — processing completes on this
        thread.
        """
        root = envelope.span
        snippet = envelope.item
        with self._tracer.attach(root):
            # sp-lint: disable=SP301 -- retro-dated span: starts at the producer's enqueue instant, ends now
            self._tracer.span(
                "queue.wait", start=envelope.enqueued_at, shard=self.shard_id
            ).end()
            try:
                try:
                    accepted = self.process(snippet)
                    outcome = "accepted" if accepted else "duplicate"
                except Exception as exc:
                    self.failures += 1
                    self._failure_counter.inc()
                    recovered = self._retry_or_quarantine(snippet, exc)
                    outcome = "accepted" if recovered else "quarantined"
                root.set(outcome=outcome)
            except BaseException as exc:
                root.record_error(exc)
                raise
            finally:
                root.end()
