"""The sharded streaming ingestion runtime.

Turns the StoryPivot library into a long-running service.  Snippets are
routed by a stable hash of their *source id* to shard workers; because
story identification is strictly per-source, shards run identification
with zero coordination.  Cross-source alignment needs a global view, so
it runs only when a view is built — at :meth:`ShardedRuntime.flush` and
in the server's :class:`~repro.server.views.ViewRefresher` — over a
merged pivot.  :meth:`ShardedRuntime.realign` aligns the live shard
state on demand and publishes nothing.

Each shard runs on its own :class:`~repro.loop.Loop` thread, with a
bounded queue and backpressure, inline supervision with capped-backoff
restarts, and WAL + checkpoint durability.  Under CPython's GIL this
prioritizes isolation and liveness over parallel speed-up.

Determinism: each source's snippets flow through exactly one shard in
offer order, so the per-source story sets are a pure function of the
per-source input sequences — identical to a single-threaded
:class:`~repro.core.streaming.StreamProcessor` run, whatever the shard
count.
"""

from __future__ import annotations

import os
import zlib
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.alignment import Alignment, StoryAligner
from repro.core.config import StoryPivotConfig
from repro.core.persistence import dumps_state
from repro.core.pipeline import PivotResult, StoryPivot
from repro.errors import ConfigurationError
from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Snippet
from repro.obs.decisions import DecisionLog
from repro.obs.trace import NULL_TRACER, Envelope, current_span
from repro.resilience.dlq import DeadLetterQueue
from repro.resilience.policies import RetryPolicy
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.queues import BACKPRESSURE_POLICIES, BoundedQueue, QueueClosed
from repro.runtime.shard import DEFAULT_SHARD_RETRY, Shard
from repro.runtime.supervisor import BackoffPolicy
from repro.runtime.wal import CheckpointStore

EXECUTORS = ("thread",)

#: DLQ error prefix marking records turned away at admission (never
#: integrated), as opposed to snippets quarantined by a failing shard.
#: Their stored snippet is an audit shell of the raw payload, so health
#: reporting and DLQ replay must not treat them as poisoned-but-valid.
REJECTED_PREFIX = "rejected: "


@dataclass(frozen=True)
class RuntimeOptions:
    """Knobs of the ingestion runtime (pipeline knobs live in
    :class:`~repro.core.config.StoryPivotConfig`)."""

    num_shards: int = 4
    executor: str = "thread"  # the only executor; still accepted by name
    queue_capacity: int = 2048
    policy: str = "block"
    sample_every: int = 10
    put_timeout: Optional[float] = None
    dedup_capacity: int = 100_000
    wal_dir: Optional[str] = None
    checkpoint_every: int = 0  # accepted snippets per shard; 0 = manual only
    wal_keep_segments: int = 6  # sealed WAL segments retained per shard
    fsync: bool = False
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    retry: RetryPolicy = DEFAULT_SHARD_RETRY  # per-snippet retry schedule

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if self.executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; choose from {EXECUTORS}"
            )
        if self.policy not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; "
                f"choose from {BACKPRESSURE_POLICIES}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be non-negative")


def shard_of(source_id: str, num_shards: int) -> int:
    """Stable source→shard routing (crc32 — not the salted ``hash()``).

    Stability across processes matters: WAL and checkpoint files are per
    shard, so a resumed runtime must route every source exactly as the
    killed one did.
    """
    return zlib.crc32(source_id.encode("utf-8")) % num_shards


def merge_shards(
    shards: Sequence[Shard], config: StoryPivotConfig, tracer=NULL_TRACER
) -> StoryPivot:
    """A standalone pivot holding a copy of every shard's stories.

    Shard locks are taken in ascending shard order, one global order on
    every node.  Each story is copied (:meth:`StoryPivot.copy_of`) under
    its id, sharing only the immutable snippets, so downstream refinement
    cannot mutate shard state; the copy is what restoring it would build,
    but it re-derives no feature, signature or index and mints no id.
    """
    with tracer.span("shards.merge"):
        with ExitStack() as stack:
            for shard in shards:
                stack.enter_context(shard.lock)
            story_sets = {}
            for shard in shards:
                story_sets.update(shard.pivot.story_sets())
            return StoryPivot.copy_of(story_sets, config)


class ShardedRuntime:
    """Long-running sharded ingestion over StoryPivot."""

    #: replication role reported in /healthz; followers (which duck-type
    #: this runtime's read surface) report "follower"
    role = "leader"

    def __init__(
        self,
        config: Optional[StoryPivotConfig] = None,
        options: Optional[RuntimeOptions] = None,
        tracer=None,
        decisions=None,
        **overrides,
    ) -> None:
        self.config = config if config is not None else StoryPivotConfig()
        options = options if options is not None else RuntimeOptions()
        if overrides:
            options = replace(options, **overrides)
        self.options = options
        self.metrics = MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled and self.tracer.metrics is None:
            self.tracer.metrics = self.metrics
        # the decision log is always on: it is how `storypivot explain`
        # answers "why does this story look like this", tracing or not
        if decisions is None:
            decisions_path = (
                os.path.join(options.wal_dir, "decisions.jsonl")
                if options.wal_dir is not None
                else None
            )
            decisions = DecisionLog(path=decisions_path)
        self.decisions = decisions
        self._recent_traces: Deque[str] = deque(maxlen=32)
        self._aligner = StoryAligner(self.config)
        self._started = False
        self._stopped = False
        self._result: Optional[PivotResult] = None
        self._flushed_at = -1
        # pre-register the metrics operators expect in every export
        self._arrived = self.metrics.counter("ingest.arrived")
        self._dropped = self.metrics.counter("ingest.dropped")
        self.metrics.counter("ingest.accepted")
        self.metrics.counter("ingest.duplicates")
        self.metrics.counter("ingest.rejected")
        self.metrics.histogram("ingest.offer_latency_seconds")
        self.metrics.histogram("realign.duration_seconds")
        self.metrics.histogram("flush.duration_seconds")
        self.metrics.histogram("checkpoint.duration_seconds")
        self.metrics.counter("realign.count")
        self.metrics.counter("checkpoint.count")
        self.metrics.counter("checkpoint.bytes")
        self.metrics.counter("shard.retries")
        self.metrics.counter("shard.retry_successes")
        self.metrics.counter("dlq.records")
        self.metrics.counter("wal.torn_records")
        self.metrics.counter("supervisor.crash_loops")
        self.metrics.gauge("shards.dead")
        self.metrics.gauge("shards.failed")
        for shard_id in range(options.num_shards):
            self.metrics.gauge("queue.depth", shard=shard_id)
        # populated by start()
        self._shards: List[Shard] = []
        self._store: Optional[CheckpointStore] = None
        self._restored: List[Optional[StoryPivot]] = [None] * options.num_shards

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def resume(
        cls,
        wal_dir: str,
        config: Optional[StoryPivotConfig] = None,
        options: Optional[RuntimeOptions] = None,
        tracer=None,
        decisions=None,
        **overrides,
    ) -> "ShardedRuntime":
        """Recover a runtime from its WAL directory.

        The manifest pins shard count and pipeline config (routing and
        identification must match the killed run); each shard loads its
        last checkpoint and replays its WAL tail through ordinary
        identification, so the recovered state is exactly the accepted
        prefix of the killed run.
        """
        store = CheckpointStore(wal_dir)
        manifest = store.read_manifest()
        if manifest is None:
            raise ConfigurationError(f"no runtime manifest in {wal_dir!r}")
        num_shards = int(manifest["num_shards"])
        if config is None:
            config = StoryPivotConfig(**manifest["config"])
        options = options if options is not None else RuntimeOptions()
        overrides.setdefault("wal_dir", wal_dir)
        overrides["num_shards"] = num_shards
        runtime = cls(
            config, options, tracer=tracer, decisions=decisions, **overrides
        )
        for shard_id in range(num_shards):
            pivot, _ = store.recover_shard(
                shard_id, config, metrics=runtime.metrics
            )
            runtime._restored[shard_id] = pivot
        return runtime.start()

    def start(self) -> "ShardedRuntime":
        """Start the shard workers.  A ``wal_dir`` that already holds a
        runtime is only opened by :meth:`resume`: started empty, the
        shards would append every re-fed snippet to its WAL again."""
        if self._started:
            return self
        options = self.options
        if options.wal_dir is not None:
            store = CheckpointStore(options.wal_dir)
            resumed = any(pivot is not None for pivot in self._restored)
            if not resumed and store.read_manifest() is not None:
                raise ConfigurationError(
                    f"{options.wal_dir!r} already holds a runtime: resume "
                    "it or give an empty directory"
                )
            self._store = store
            store.write_manifest(options.num_shards, self.config)
        self._started = True
        for shard_id in range(options.num_shards):
            queue = BoundedQueue(
                capacity=options.queue_capacity,
                policy=options.policy,
                sample_every=options.sample_every,
                put_timeout=options.put_timeout,
            )
            wal = (
                self._store.wal(
                    shard_id, fsync=options.fsync,
                    keep_segments=options.wal_keep_segments,
                )
                if self._store is not None
                else None
            )
            # quarantine persists next to the WAL when one is configured;
            # otherwise it is memory-only but still audited via metrics
            dlq = (
                self._store.dlq(shard_id)
                if self._store is not None
                else DeadLetterQueue()
            )
            shard = Shard(
                shard_id,
                self.config,
                queue,
                self.metrics,
                wal=wal,
                dedup_capacity=options.dedup_capacity,
                checkpoint_every=options.checkpoint_every,
                checkpoint_fn=self._checkpoint_shard,
                retry=options.retry,
                dlq=dlq,
                tracer=self.tracer,
                decisions=self.decisions,
                backoff=options.backoff,
            )
            restored = self._restored[shard_id]
            if restored is not None:
                shard.restore(restored)
            self._shards.append(shard)
            shard.loop.start()
        return self

    def __enter__(self) -> "ShardedRuntime":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- ingestion ---------------------------------------------------------

    def offer(self, snippet: Snippet) -> bool:
        """Route one snippet to its shard; True if it was enqueued.

        False means the backpressure policy shed it (or its shard is
        dead).  Acceptance vs duplicate is decided asynchronously by the
        shard worker and visible in the metrics/stats.

        The snippet travels wrapped in an
        :class:`~repro.obs.trace.Envelope` carrying its root span (the
        shared no-op span when tracing is off); the shard worker ends
        the root when processing completes.  An ambient ``ingest`` root
        (from :meth:`consume`) is reused, otherwise a fresh one is
        started here.
        """
        if not self._started:
            self.start()
        self._arrived.inc()
        shard_id = shard_of(snippet.source_id, self.options.num_shards)
        shard = self._shards[shard_id]
        root = current_span()
        if root is None or root.tracer is not self.tracer:
            root = self.tracer.start_trace("ingest")
        if root.sampled:  # identity attrs are export-only; skip off-sample
            root.set(snippet=snippet.snippet_id, source=snippet.source_id)
        root.set(shard=shard_id)

        def drop(reason: str) -> bool:
            self._dropped.inc()
            root.add_event("dropped", reason=reason)
            root.set(outcome="dropped")
            root.end()
            return False

        if shard.dead:
            return drop("shard_dead")
        try:
            enqueued = shard.queue.put(Envelope(snippet, root))
        except QueueClosed:
            return drop("queue_closed")
        if not enqueued:
            return drop("backpressure")
        if root.sampled:
            self._recent_traces.append(root.trace_id)
        return True

    def reject(self, snippet: Snippet, reason: str, detail: str = "") -> None:
        """Quarantine an inadmissible input without offering it to a shard.

        The admission layer (:mod:`repro.connect`) calls this for raw
        records that failed normalization: they never count as arrived —
        they were turned away at the door — but they must not vanish
        either, so each lands in its routed shard's dead-letter queue
        with the rejection reason, and ``ingest.rejected`` carries the
        extra term of the accounting invariant
        (``arrived = accepted + dup + dropped + quarantined + rejected``).
        """
        if not self._started:
            self.start()
        self.metrics.counter("ingest.rejected").inc()
        shard_id = shard_of(snippet.source_id, self.options.num_shards)
        shard = self._shards[shard_id]
        if shard.dlq is not None:
            error = REJECTED_PREFIX + reason + (f" ({detail})" if detail else "")
            shard.dlq.append(
                snippet, error=error, attempts=0, shard_id=shard_id
            )

    def consume(self, snippets: Iterable[Snippet]) -> "ShardedRuntime":
        # each pulled snippet gets its own ingest root so a sampled trace
        # shows feed.pull -> queue.wait -> shard.integrate
        iterator = iter(snippets)
        while True:
            root = self.tracer.start_trace("ingest")
            with self.tracer.attach(root):
                # sp-lint: disable=SP301 -- pull ends on every branch below; `with` cannot express the discard path
                pull = self.tracer.span("feed.pull")
                try:
                    snippet = next(iterator)
                except StopIteration:
                    pull.discard()
                    root.discard()
                    break
                except BaseException as exc:
                    pull.record_error(exc)
                    pull.end()
                    root.record_error(exc)
                    root.end()
                    raise
                pull.end()
                self.offer(snippet)
        return self

    def consume_corpus(self, corpus: Corpus) -> "ShardedRuntime":
        """Replay a corpus in publication order (the live delivery order)."""
        return self.consume(corpus.snippets_by_publication())

    def drain(self, timeout: Optional[float] = None) -> None:
        """Wait until every enqueued snippet has been processed."""
        if not self._started:
            return
        for shard in self._shards:
            if shard.dead:
                shard.queue.purge()
                continue
            shard.queue.join(timeout)

    # -- cross-shard alignment ---------------------------------------------

    def realign(self) -> Alignment:
        """On-demand cross-shard alignment over the live story sets.

        A probe, not a view: pauses every shard (lock acquisition in
        shard order), aligns the union of their story sets and returns
        the result without publishing it anywhere — views align when
        they are built (:meth:`flush`, the server's view refresher).
        Identification state is *not* mutated, keeping per-source stories
        a pure function of the input sequences (which is what makes
        kill/resume recovery exact).
        """
        self.start()
        with self.tracer.span("realign", shards=len(self._shards)) as span:
            with ExitStack() as stack:
                for shard in self._shards:
                    stack.enter_context(shard.lock)
                with self.metrics.timer("realign.duration_seconds"):
                    story_sets = {}
                    for shard in self._shards:
                        story_sets.update(shard.pivot.story_sets())
                    alignment = self._aligner.align(story_sets)
            span.set(stories=sum(len(s) for s in story_sets.values()),
                     integrated=len(alignment))
        self.metrics.counter("realign.count").inc()
        return alignment

    # -- views -------------------------------------------------------------

    def merged_pivot(self) -> StoryPivot:
        """A standalone pivot holding every shard's stories."""
        self.start()
        return merge_shards(self._shards, self.config, self.tracer)

    def flush(self) -> PivotResult:
        """Drain, merge all shards, and run alignment (+refinement)."""
        self.drain()
        with self.tracer.span("flush"), \
                self.metrics.timer("flush.duration_seconds"):
            merged = self.merged_pivot()
            # refinement decisions on the merged view belong to the same
            # lineage as the shard-side identification decisions
            merged.refiner.decisions = self.decisions
            result = merged.finish()
            self.decisions.note_alignment(result.alignment)
        self._result = result
        self._flushed_at = self.accepted
        self.metrics.counter("realign.count").inc()
        self.metrics.histogram("realign.duration_seconds").observe(
            result.timings.get("alignment", 0.0)
        )
        return result

    def result(self) -> PivotResult:
        """Last flushed view, refreshed if arrivals happened since."""
        if self._result is None or self._flushed_at != self.accepted:
            return self.flush()
        return self._result

    def dumps_state(self) -> str:
        """Canonical checkpoint text of the merged identification state.

        Uses canonical (content-derived) story ids, so two equivalent
        runtimes — e.g. a killed-and-resumed run and an uninterrupted one
        — serialize byte-identically.
        """
        return dumps_state(self.merged_pivot(), canonical_ids=True)

    # -- durability --------------------------------------------------------

    def _checkpoint_shard(self, shard: Shard) -> int:
        if self._store is None:
            raise ConfigurationError("runtime has no wal_dir configured")
        with self.tracer.span("checkpoint", shard=shard.shard_id) as span:
            with self.metrics.timer("checkpoint.duration_seconds"):
                size = shard.checkpoint(self._store)
            span.set(bytes=size)
        self.metrics.counter("checkpoint.count").inc()
        self.metrics.counter("checkpoint.bytes").inc(size)
        self.metrics.gauge("checkpoint.last_bytes").set(size)
        return size

    def checkpoint(self) -> int:
        """Compact every shard's WAL into a full checkpoint; total bytes."""
        self.start()
        return sum(self._checkpoint_shard(shard) for shard in self._shards)

    # -- shutdown ----------------------------------------------------------

    def stop(
        self, drain: bool = True, checkpoint: Optional[bool] = None
    ) -> None:
        """Stop workers and release resources.

        ``drain=False`` abandons queued (not yet processed) snippets —
        the kill path; accepted work is still recoverable from the WAL.
        ``checkpoint`` defaults to True when a WAL directory is
        configured and the runtime drained cleanly.
        """
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stopped = True
        if drain:
            self.drain()
        if checkpoint is None:
            checkpoint = drain and self._store is not None
        if checkpoint and self._store is not None:
            for shard in self._shards:
                self._checkpoint_shard(shard)
        for shard in self._shards:
            shard.queue.close()
        for shard in self._shards:
            shard.loop.stop()
        for shard in self._shards:
            if shard.wal is not None:
                shard.wal.close()
            if shard.dlq is not None:
                shard.dlq.close()
        self.decisions.close()

    def kill(self) -> None:
        """Abrupt shutdown: no drain, no checkpoint (crash simulation)."""
        self.stop(drain=False, checkpoint=False)

    # -- dead-letter replay ------------------------------------------------

    def replay_dlq(self) -> Dict[str, int]:
        """Re-offer every quarantined snippet through normal ingestion.

        The DLQs are drained first; snippets that fail again are
        re-quarantined by their shard workers, so replay converges and
        is safe to repeat.  Each DLQ file is rewritten only once the
        drained snippets reached the WAL, so a crash mid-replay loses no
        letter.  Records rejected at admission stay behind: their stored
        snippet is an audit shell of raw input that never passed
        normalization, so re-offering it would inject garbage.
        Returns counts: ``{"replayed": offered, "requeued": still
        quarantined after, "held": rejected records left in place}``.
        """
        self.start()
        dlqs = [shard.dlq for shard in self._shards if shard.dlq is not None]
        letters = []
        for dlq in dlqs:
            letters.extend(dlq.take_all(
                keep=lambda letter: letter.error.startswith(REJECTED_PREFIX)
            ))
        held = sum(len(dlq) for dlq in dlqs)
        for letter in letters:
            self.offer(letter.snippet)
        self.drain()
        for shard in self._shards:
            if shard.dlq is not None and not shard.dead:
                shard.dlq.rewrite()
        requeued = sum(len(dlq) for dlq in dlqs) - held
        return {"replayed": len(letters), "requeued": requeued, "held": held}

    # -- health ------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Component health: ``ok`` / ``degraded`` / ``unhealthy``.

        Degraded means the runtime is still making progress with reduced
        capacity (some shards parked/dead, or snippets in quarantine);
        unhealthy means no shard is processing at all.
        """
        alive = [s for s in self._shards if not s.dead]
        failed = [s.shard_id for s in self._shards if s.failed]
        dead = [s.shard_id for s in self._shards if s.dead and not s.failed]
        # the DLQ holds two populations: snippets a shard failed to
        # integrate (quarantined — the runtime is losing capacity) and
        # records turned away at admission (rejected — the feed is
        # hostile, the runtime is fine); only the former degrades health
        quarantined = 0
        rejected = 0
        for s in self._shards:
            if s.dlq is not None:
                for letter in s.dlq.records():
                    if letter.error.startswith(REJECTED_PREFIX):
                        rejected += 1
                    else:
                        quarantined += 1
        if not alive or self._stopped:
            status = "unhealthy"
        elif failed or dead or quarantined:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "shards": len(self._shards),
            "shards_alive": len(alive),
            "shards_failed": failed,
            "shards_dead": dead,
            "quarantined": quarantined,
            "rejected": rejected,
            "queue_depth": sum(len(s.queue) for s in self._shards),
        }

    # -- replication (leader side) -----------------------------------------

    def shard_wal(self, shard_id: int):
        """The live :class:`~repro.runtime.wal.ShardWal` of one shard.

        Raises when the runtime has no WAL configured — replication
        ships WAL segments, so a WAL-less runtime cannot lead.
        """
        if self._store is None or not self._shards:
            raise ConfigurationError(
                "replication requires a started runtime with wal_dir "
                "configured"
            )
        return self._shards[shard_id].wal

    def shard_snapshot(self, shard_id: int) -> "Tuple[str, int]":
        """(serialized shard state, WAL position it covers) — atomic.

        Taken under the shard lock, so the text and the position always
        agree: a follower that loads the text and tails records from the
        position materializes exactly the leader's state.
        """
        shard = self._shards[shard_id]
        wal = self.shard_wal(shard_id)
        with shard.lock:
            text = dumps_state(shard.pivot)
            position = wal.position
        return text, position

    def wal_positions(self) -> List[int]:
        """Per-shard cumulative WAL positions (the replication cursors)."""
        return [
            self.shard_wal(shard_id).position
            for shard_id in range(self.options.num_shards)
        ]

    # -- introspection -----------------------------------------------------

    @property
    def accepted(self) -> int:
        """Snippets integrated so far, restored checkpoints included."""
        return sum(shard.pivot.num_snippets for shard in self._shards)

    def recent_traces(self) -> List[str]:
        """Trace ids of recently sampled ingests (view-refresh links)."""
        return list(self._recent_traces)

    def stats(self) -> Dict[str, int]:
        """Operational counters (queue drops, dedup hits, realigns...)."""
        snap = self.metrics.snapshot()

        def value(name: str) -> int:
            return int(snap.get(name, {}).get("value", 0))

        return {
            "arrived": value("ingest.arrived"),
            "accepted": value("ingest.accepted"),
            "duplicates": value("ingest.duplicates"),
            "dropped": value("ingest.dropped"),
            "realignments": value("realign.count"),
            "checkpoints": value("checkpoint.count"),
            "restarts": value("supervisor.restarts"),
            "failures": value("shard.failures"),
            "retries": value("shard.retries"),
            "quarantined": value("dlq.records"),
            "rejected": value("ingest.rejected"),
            "torn_wal_records": value("wal.torn_records"),
            "crash_loops": value("supervisor.crash_loops"),
        }

    def metrics_json(self, indent: int = 2) -> str:
        return self.metrics.to_json(indent=indent)
