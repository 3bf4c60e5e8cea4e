"""Follower side of WAL-shipping replication.

:class:`ReplicaRuntime` is a sharded runtime whose WAL arrives over
HTTP: its shards are the runtime's own
:class:`~repro.runtime.shard.Shard`, restored from leader snapshots and
fed the leader's records through :meth:`Shard.process` — replay is
byte-identical, so a follower that has applied the same accepted prefix
materializes exactly the leader's story state.  Its ``state_dir`` is an
ordinary runtime WAL directory, recovered by the leader's own
checkpoint + WAL code.  It duck-types the runtime surface the server
stack consumes (``accepted``, ``merged_pivot()``, ``health()``,
``decisions``), so a :class:`~repro.server.views.ViewRefresher` and
:class:`~repro.server.app.StoryPivotAPI` serve from a follower
unchanged.

Resilience: every leader fetch runs through a
:class:`~repro.resilience.policies.RetryPolicy` and a
:class:`~repro.resilience.breaker.CircuitBreaker` — a dead leader trips
the breaker open and the follower degrades to *stale but serving*, never
to crashed.  Applied batches are ``replication.apply`` spans; per-shard
lag is exported as ``replication.lag_records{shard=N}`` gauges plus an
aggregate ``replication.lag_seconds``.

Delivery hazards are handled at apply time: records are sorted by
sequence (out-of-order delivery inside a batch), already-applied
sequences are skipped (duplicate delivery; the shard's dedup makes the
apply idempotent too), a response for a future cursor is discarded
(reordered responses), and a CRC32 frame mismatch aborts the batch so
the records are re-fetched rather than applied corrupt.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional

from repro.core.config import StoryPivotConfig
from repro.core.persistence import snippet_from_record
from repro.core.pipeline import StoryPivot
from repro.errors import DataFormatError, StoryPivotError
from repro.loop import Loop
from repro.obs.decisions import DecisionLog
from repro.obs.propagate import (
    inject_headers,
    make_node_id,
    parse_traceparent,
)
from repro.obs.trace import NULL_TRACER, add_event
from repro.replication.protocol import (
    DEFAULT_BATCH_RECORDS,
    MANIFEST_KIND,
    SNAPSHOT_KIND,
    WAL_KIND,
    check_payload,
    manifest_url,
    snapshot_state,
    snapshot_url,
    wal_url,
)
from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.policies import RetryPolicy
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.queues import BoundedQueue
from repro.runtime.runtime import ShardedRuntime, merge_shards
from repro.runtime.shard import Shard
from repro.runtime.wal import CheckpointStore, verify_record

#: fetch schedule while tailing: quick, bounded — the next poll is the
#: real retry, this only rides out socket-level blips
DEFAULT_FETCH_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.05, factor=2.0, max_delay=0.5, jitter=0.1
)

#: bootstrap schedule: patient, because the leader may still be starting
DEFAULT_BOOTSTRAP_RETRY = RetryPolicy(
    max_attempts=20, base_delay=0.1, factor=1.5, max_delay=1.0, jitter=0.1
)


class ReplicationError(StoryPivotError):
    """A replication fetch or apply failed past its retry budget."""


def _http_transport(timeout: float) -> Callable[..., bytes]:
    def fetch(url: str, headers: Dict[str, str]) -> bytes:
        request = urllib.request.Request(url, headers=headers)
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read()

    return fetch


class ReplicationClient:
    """Pull-side HTTP client: retries, breaker, injectable transport.

    A transport is called as ``transport(url, headers)`` and returns the
    response body; ``headers`` carries the caller's ``traceparent``.
    """

    def __init__(
        self,
        leader_url: str,
        timeout: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        transport: Optional[Callable[..., bytes]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.leader_url = leader_url.rstrip("/")
        self.retry = retry if retry is not None else DEFAULT_FETCH_RETRY
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(
                name="replication",
                failure_threshold=0.6,
                window=20,
                min_calls=5,
                reset_timeout=1.0,
                metrics=metrics,
            )
        )
        self._transport = (
            transport if transport is not None else _http_transport(timeout)
        )

    def _fetch_json(
        self, url: str, kind: str, retry: Optional[RetryPolicy] = None
    ) -> Dict[str, object]:
        retry = retry if retry is not None else self.retry

        def pull() -> Dict[str, object]:
            # ambient span (bootstrap root, traced read) rides along
            raw = self._transport(url, inject_headers())
            return check_payload(json.loads(raw.decode("utf-8")), kind)

        return self.breaker.call_with_retry(pull, retry=retry, key=url)

    def fetch_manifest(
        self, retry: Optional[RetryPolicy] = None
    ) -> Dict[str, object]:
        return self._fetch_json(
            manifest_url(self.leader_url), MANIFEST_KIND, retry=retry
        )

    def fetch_snapshot(self, shard_id: int) -> Dict[str, object]:
        return self._fetch_json(
            snapshot_url(self.leader_url, shard_id), SNAPSHOT_KIND
        )

    def fetch_wal(
        self, shard_id: int, from_seq: int, max_records: int
    ) -> Dict[str, object]:
        return self._fetch_json(
            wal_url(self.leader_url, shard_id, from_seq, max_records),
            WAL_KIND,
        )


class _ReplicaShard(Shard):
    """One follower shard: the runtime's shard, plus its tail position.

    Its queue stays empty and its loop never starts: leader records go
    straight to :meth:`Shard.process`.
    """

    def __init__(self, shard_id: int, replica: ReplicaRuntime) -> None:
        super().__init__(
            shard_id, replica.config, BoundedQueue(capacity=1),
            replica.metrics, decisions=replica.decisions,
            wal=replica._store.wal(shard_id, keep_segments=0)
            if replica._store is not None else None,
        )
        self.cursor = 0  # next leader sequence to apply
        self.leader_position = 0  # last position the leader reported
        self.behind_since: Optional[float] = None
        self.applied = 0

    @property
    def lag(self) -> int:
        """Records this shard trails the leader by."""
        return max(0, self.leader_position - self.cursor)


class ReplicaRuntime:
    """Bootstrap from a leader snapshot, tail its WAL, serve reads."""

    role = "follower"

    def __init__(
        self,
        leader_url: str,
        poll_interval: float = 0.2,
        batch_records: int = DEFAULT_BATCH_RECORDS,
        lag_budget: Optional[float] = None,
        client: Optional[ReplicationClient] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        decisions: Optional[DecisionLog] = None,
        bootstrap_retry: Optional[RetryPolicy] = None,
        state_dir: Optional[str] = None,
        persist_every: float = 5.0,
        node_id: Optional[str] = None,
    ) -> None:
        self.leader_url = leader_url.rstrip("/")
        self.poll_interval = poll_interval
        self.batch_records = batch_records
        self.lag_budget = lag_budget
        #: fleet identity stamped on this node's spans and echoed in
        #: X-StoryPivot-Node
        self.node_id = node_id if node_id else make_node_id("follower")
        #: a runtime WAL directory: a restarted follower recovers from
        #: it and tails from its WAL position instead of re-bootstrapping
        #: snapshot-then-segments; ``persist_every`` is its checkpoint
        #: cadence in seconds
        self.state_dir = state_dir
        self.persist_every = persist_every
        self._store: Optional[CheckpointStore] = None
        self._checkpointed_at = time.time()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.decisions = decisions if decisions is not None else DecisionLog()
        self.client = (
            client
            if client is not None
            else ReplicationClient(leader_url, metrics=self.metrics)
        )
        self._bootstrap_retry = (
            bootstrap_retry
            if bootstrap_retry is not None
            else DEFAULT_BOOTSTRAP_RETRY
        )
        self.config: Optional[StoryPivotConfig] = None
        self.dataset = "corpus"
        self.source_meta: Dict[str, Dict[str, str]] = {}
        self._shards: List[_ReplicaShard] = []
        self._started = False
        self._stopped = False
        self._bootstrapped = False
        self._consecutive_errors = 0
        self._last_error: Optional[str] = None
        self._tailer = Loop("storypivot-replica-tail", step=self._tail)
        self.metrics.counter("replication.apply.batches")
        self.metrics.counter("replication.apply.records")
        self.metrics.counter("replication.bootstraps")
        self.metrics.counter("replication.resets")
        self.metrics.counter("replication.crc_failures")
        self.metrics.counter("replication.stale_batches")
        self.metrics.counter("replication.errors")
        self.metrics.counter("replication.state_saves")
        self.metrics.counter("replication.warm_starts")
        self.metrics.counter("wal.torn_records")
        self.metrics.gauge("replication.lag_seconds")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ReplicaRuntime":
        if self._started:
            return self
        self._started = True
        # the bootstrap is one trace: its root is ambient while the
        # manifest and snapshots are pulled, so every fetch carries the
        # traceparent and the leader-side ship spans parent under it —
        # a cold start renders as one stitched cross-node tree
        with self.tracer.span(
            "replication.bootstrap", leader=self.leader_url,
            node=self.node_id,
        ) as boot:
            manifest = self.client.fetch_manifest(retry=self._bootstrap_retry)
            self.config = StoryPivotConfig(**manifest["config"])
            self.dataset = manifest.get("dataset", "corpus")
            self.source_meta = dict(manifest.get("sources", {}))
            num_shards = int(manifest["num_shards"])
            warm = self._open_store(num_shards, manifest["config"])
            self._shards = [
                _ReplicaShard(shard_id, self) for shard_id in range(num_shards)
            ]
            for shard in self._shards:
                self.metrics.gauge(
                    "replication.lag_records", shard=shard.shard_id
                )
                if not (warm and self._warm_start(shard)):
                    self._bootstrap_shard(shard)
            if self._store is not None:
                # last: a crash mid-bootstrap leaves the old manifest,
                # which no longer matches, so the next start bootstraps
                self._store.write_manifest(num_shards, self.config)
            boot.set(shards=num_shards, warm=warm)
        self._bootstrapped = True
        self._tailer.start()
        return self

    def stop(self) -> None:
        self._stopped = True
        self._tailer.stop()
        # final checkpoint so the next start has no WAL tail to replay
        self._maybe_checkpoint(force=True)
        if self._store is not None:
            for shard in self._shards:
                shard.wal.close()

    # -- bootstrap and recovery --------------------------------------------

    def _open_store(self, num_shards: int, config: Dict[str, object]) -> bool:
        """Open ``state_dir``; True when it holds this leader's topology.

        A reconfigured leader (shard count or pipeline config) makes
        local state meaningless, so it is discarded, not migrated.
        """
        if self.state_dir is None:
            return False
        self._store = CheckpointStore(self.state_dir)
        try:
            local = self._store.read_manifest() or {}
            return (
                local.get("num_shards") == num_shards
                and local.get("config") == config
            )
        except (OSError, ValueError, AttributeError, DataFormatError):
            return False  # a torn manifest reads as none

    def _warm_start(self, shard: _ReplicaShard) -> bool:
        """Recover one shard from ``state_dir``; False = bootstrap instead.

        The leader's recovery, strict: a follower can fetch its state
        again, so a missing or torn checkpoint or WAL record means a
        bootstrap — never a lost record, never a bricked follower.
        """
        try:
            pivot, _ = self._store.recover_shard(
                shard.shard_id, self.config, metrics=self.metrics,
                strict=True,
            )
        except (OSError, ValueError, KeyError, TypeError, DataFormatError):
            return False
        shard.restore(pivot)
        shard.cursor = shard.leader_position = shard.wal.position
        self.metrics.counter("replication.warm_starts").inc()
        add_event(
            "replication.warm_start", shard=shard.shard_id,
            cursor=shard.cursor, snippets=pivot.num_snippets,
        )
        return True

    def _bootstrap_shard(self, shard: _ReplicaShard) -> None:
        """Snapshot-then-segments: adopt the state, cursor to its position.

        With ``state_dir`` the WAL restarts at the position and the
        snapshot is checkpointed there at once: a crash right after
        bootstrap warm-starts instead of paying the transfer twice.
        """
        pivot, position = snapshot_state(
            self.client.fetch_snapshot(shard.shard_id)
        )
        with shard.lock:
            shard.restore(pivot)
            shard.cursor = shard.leader_position = position
            shard.applied = 0
        if self._store is not None:
            shard.wal.reset(position)
            self._checkpoint(shard)
        self.metrics.counter("replication.bootstraps").inc()
        add_event(
            "replication.bootstrap", shard=shard.shard_id,
            position=position, snippets=pivot.num_snippets,
        )

    def _checkpoint(self, shard: _ReplicaShard) -> None:
        shard.checkpoint(self._store)
        self.metrics.counter("replication.state_saves").inc()

    def _maybe_checkpoint(self, force: bool = False) -> None:
        """Every ``persist_every``, checkpoint the shards with WAL records."""
        now = time.time()
        # never before every shard holds its state: a half-started
        # shard's empty pivot must not become its checkpoint
        if self._store is None or not self._bootstrapped or (
            not force and now - self._checkpointed_at < self.persist_every
        ):
            return
        self._checkpointed_at = now
        for shard in self._shards:
            if shard.wal.unsealed:
                self._checkpoint(shard)

    # -- tailing -----------------------------------------------------------

    def _tail(self) -> Optional[float]:
        """One poll of every shard; returns the pause before the next."""
        pause = self.poll_interval
        try:
            progressed = False
            for shard in self._shards:
                if self._stopped:
                    return None
                progressed |= self._poll_shard(shard)
            self._consecutive_errors = 0
            self._last_error = None
            if progressed:
                pause = 0.0  # drain a backlog at full speed
        except CircuitOpenError as exc:
            # the leader is down; the breaker already knows — wait
            # out (a bounded slice of) the cool-down and keep serving
            self._last_error = str(exc)
            pause = min(max(exc.retry_after, 0.05), 1.0)
        except Exception as exc:
            self._consecutive_errors += 1
            self._last_error = f"{type(exc).__name__}: {exc}"
            self.metrics.counter("replication.errors").inc()
        self._refresh_lag_gauges()
        self._maybe_checkpoint()
        return pause

    def _poll_shard(self, shard: _ReplicaShard) -> bool:
        """One fetch+apply round; True when records were applied."""
        payload = self.client.fetch_wal(
            shard.shard_id, shard.cursor, self.batch_records
        )
        if int(payload["shard"]) != shard.shard_id:
            self.metrics.counter("replication.stale_batches").inc()
            return False
        if payload.get("reset"):
            # our cursor fell behind the leader's retention window:
            # tailing cannot bridge the gap, re-bootstrap from snapshot
            self.metrics.counter("replication.resets").inc()
            add_event(
                "replication.reset", shard=shard.shard_id,
                cursor=shard.cursor, earliest=payload.get("earliest"),
            )
            self._bootstrap_shard(shard)
            return True
        if int(payload["from"]) > shard.cursor:
            # a response for a future cursor (reordered delivery):
            # applying it would skip records — discard and re-fetch
            self.metrics.counter("replication.stale_batches").inc()
            return False
        applied = self._apply_records(
            shard, payload["records"],
            ship_context=parse_traceparent(payload.get("trace")),
        )
        position = int(payload["position"])
        with shard.lock:
            shard.leader_position = max(shard.leader_position, position)
            if shard.cursor >= shard.leader_position:
                shard.behind_since = None
            elif shard.behind_since is None:
                shard.behind_since = time.time()
        return applied > 0

    def _apply_records(
        self,
        shard: _ReplicaShard,
        records: List[Dict[str, object]],
        ship_context=None,
    ) -> int:
        """Apply a batch in sequence order; returns records applied.

        The leader is authoritative about gaps: a fetch starts at our
        cursor, so a first record past the cursor means the skipped
        sequences do not exist on the leader (torn records pruned from
        its WAL) — the cursor jumps forward.  A CRC mismatch, by
        contrast, means *our copy* is bad: the batch is abandoned and
        re-fetched next poll.

        ``ship_context`` is the leader-side ``replication.ship`` span's
        traceparent (from the payload): when present, the apply span
        *continues that trace* instead of rooting a fresh one, so
        /tracez shows leader ship → follower apply as one tree with the
        leader's sampling verdict governing both halves.
        """
        if not records:
            return 0
        ordered = sorted(
            (r for r in records if isinstance(r.get("seq"), int)),
            key=lambda r: r["seq"],
        )
        applied = 0
        if ship_context is not None:
            span_cm = self.tracer.start_remote(
                "replication.apply", ship_context,
                shard=shard.shard_id, batch=len(ordered),
            )
        else:
            # sp-lint: disable=SP301 -- entered by the `with span_cm` below; the branch only picks remote vs local root
            span_cm = self.tracer.span(
                "replication.apply", shard=shard.shard_id, batch=len(ordered)
            )
        links: List[str] = []
        for record in ordered:
            ingest = record.get("trace")
            if ingest and ingest not in links:
                links.append(ingest)
                if len(links) >= 8:
                    break
        with span_cm as span:
            if links:
                # back-links to the leader-side ingest traces whose
                # snippets this batch materializes
                span.set(links=links)
            with shard.lock:
                for record in ordered:
                    seq = record["seq"]
                    if seq < shard.cursor:
                        continue  # duplicate delivery; already applied
                    if seq > shard.cursor:
                        # the leader is authoritative about gaps (torn
                        # records pruned from its WAL) — but a jump is
                        # rare enough that it must leave a trail
                        self.metrics.counter(
                            "replication.gap_jumps"
                        ).inc()
                        span.add_event(
                            "replication.gap_jump", shard=shard.shard_id,
                            cursor=shard.cursor, seq=seq,
                        )
                    if not verify_record(record):
                        self.metrics.counter(
                            "replication.crc_failures"
                        ).inc()
                        self.metrics.counter("wal.torn_records").inc()
                        span.add_event(
                            "replication.crc_mismatch", seq=seq,
                            shard=shard.shard_id,
                        )
                        break  # refetch the batch rather than apply junk
                    try:
                        snippet = snippet_from_record(record)
                    except (KeyError, TypeError, ValueError) as exc:
                        self.metrics.counter("wal.torn_records").inc()
                        span.add_event(
                            "replication.bad_record", seq=seq,
                            error=str(exc),
                        )
                        break
                    # sp-lint: disable=SP201 -- a batch applies under the shard lock, WAL append included, as the leader's worker integrates
                    shard.process(snippet, seq)
                    shard.cursor = seq + 1
                    shard.applied += 1
                    applied += 1
            span.set(applied=applied, cursor=shard.cursor)
        if applied:
            self.metrics.counter("replication.apply.batches").inc()
            self.metrics.counter("replication.apply.records").inc(applied)
        return applied

    # -- lag ---------------------------------------------------------------

    def _refresh_lag_gauges(self) -> None:
        for shard in self._shards:
            self.metrics.gauge(
                "replication.lag_records", shard=shard.shard_id
            ).set(shard.lag)
        self.metrics.gauge("replication.lag_seconds").set(
            round(self.lag_seconds(), 3)
        )

    def lag_records(self) -> int:
        """Total records the follower trails the leader by."""
        return sum(shard.lag for shard in self._shards)

    def lag_seconds(self) -> float:
        """Seconds the worst shard has been behind (0.0 when caught up).

        Mirrors :meth:`ViewRefresher.staleness` semantics: 0 while every
        shard's cursor matches the last leader position it saw, else the
        age of the oldest catch-up deficit.  A follower that cannot
        reach the leader at all keeps aging from its last contact.
        """
        worst = 0.0
        now = time.time()
        for shard in self._shards:
            if shard.cursor >= shard.leader_position:
                continue
            since = shard.behind_since
            if since is None:
                since = now
            worst = max(worst, now - since)
        return worst

    # -- the runtime read surface the server stack expects -----------------

    @property
    def accepted(self) -> int:
        """Applied-snippet count — the follower's generation clock.

        Equals the leader's accepted count for the replicated prefix
        (snapshot base + applied WAL records), which is what lets a
        pinned-generation follower view carry the same generation as the
        leader view built from the same prefix.
        """
        return sum(shard.cursor for shard in self._shards)

    def merged_pivot(self) -> StoryPivot:
        """A standalone pivot holding every shard's stories (read-only)."""
        if self.config is None:
            raise ReplicationError("replica is not bootstrapped yet")
        return merge_shards(self._shards, self.config, self.tracer)

    #: the leader's canonical text of :meth:`merged_pivot`
    dumps_state = ShardedRuntime.dumps_state

    def health(self) -> Dict[str, object]:
        """Follower replication health for ``/healthz``.

        ``ok`` — bootstrapped, tailing, within the lag budget;
        ``degraded`` — behind budget, erroring, or breaker open (still
        serving the last replicated state); ``unhealthy`` — the tail
        thread died or the replica never bootstrapped.
        """
        lag_seconds = self.lag_seconds()
        lag_records = self.lag_records()
        if self._stopped or not self._bootstrapped or not self._tailer.alive:
            status = "unhealthy"
        elif (
            self._consecutive_errors > 0
            or self.client.breaker.state != "closed"
            or (self.lag_budget is not None and lag_seconds > self.lag_budget)
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "role": self.role,
            "leader": self.leader_url,
            "bootstrapped": self._bootstrapped,
            "lag_seconds": round(lag_seconds, 3),
            "lag_records": lag_records,
            "lag_budget": self.lag_budget,
            "breaker": self.client.breaker.state,
            "consecutive_errors": self._consecutive_errors,
            "last_error": self._last_error,
            "shards": [
                {
                    "shard": shard.shard_id,
                    "cursor": shard.cursor,
                    "leader_position": shard.leader_position,
                    "lag_records": shard.lag,
                    "applied": shard.applied,
                }
                for shard in self._shards
            ],
        }

    def stats(self) -> Dict[str, int]:
        snap = self.metrics.snapshot()

        def value(name: str) -> int:
            return int(snap.get(name, {}).get("value", 0))

        return {
            "applied": value("replication.apply.records"),
            "batches": value("replication.apply.batches"),
            "bootstraps": value("replication.bootstraps"),
            "resets": value("replication.resets"),
            "crc_failures": value("replication.crc_failures"),
            "stale_batches": value("replication.stale_batches"),
            "errors": value("replication.errors"),
            "lag_records": self.lag_records(),
        }


class SourceMetaShim:
    """Corpus stand-in carrying only source metadata.

    :class:`~repro.server.views.ReadView` reads ``corpus.sources`` (a
    mapping of objects with ``name``/``kind``) to label ``/sources``
    rows; the follower has no corpus, only the manifest's metadata, so
    this shim rehydrates just enough for view parity with the leader.
    """

    class _Meta:
        __slots__ = ("name", "kind")

        def __init__(self, name: str, kind: str) -> None:
            self.name = name
            self.kind = kind

    def __init__(self, sources: Dict[str, Dict[str, str]]) -> None:
        self.sources = {
            source_id: self._Meta(
                meta.get("name", source_id), meta.get("kind", "unknown")
            )
            for source_id, meta in sources.items()
        }


def source_meta_record(corpus) -> Dict[str, Dict[str, str]]:
    """Manifest-ready source metadata of a corpus (leader side)."""
    if corpus is None:
        return {}
    return {
        source_id: {"name": source.name, "kind": source.kind}
        for source_id, source in corpus.sources.items()
    }
