"""Follower side of WAL-shipping replication.

:class:`ReplicaRuntime` is the read-only twin of
:class:`~repro.runtime.runtime.ShardedRuntime`: it bootstraps each shard
from a leader snapshot, then tails the leader's WAL and applies records
through ordinary identification — replay is byte-identical, so a
follower that has applied the same accepted prefix materializes exactly
the leader's story state.  It duck-types the runtime surface the server
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
sequences are skipped (duplicate delivery; also ``has_snippet`` makes
the apply idempotent), a response for a future cursor is discarded
(reordered responses), and a CRC32 frame mismatch aborts the batch so
the records are re-fetched rather than applied corrupt.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import StoryPivotConfig
from repro.core.persistence import (
    dumps_state,
    load_state,
    snippet_from_record,
)
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
    REGISTER_KIND,
    SNAPSHOT_KIND,
    WAL_KIND,
    check_payload,
    manifest_url,
    register_url,
    snapshot_url,
    wal_url,
)
from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.policies import RetryPolicy
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.wal import atomic_write, verify_record

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

    def register(self, node_id: str, metrics_url: str = "") -> Dict[str, object]:
        return self._fetch_json(
            register_url(self.leader_url, node_id, metrics_url),
            REGISTER_KIND,
        )


class _ReplicaShard:
    """One follower shard: a pivot, a cursor, and a lock."""

    def __init__(self, shard_id: int, config: StoryPivotConfig) -> None:
        self.shard_id = shard_id
        self.pivot = StoryPivot(config)
        self.lock = threading.RLock()
        self.cursor = 0  # next leader sequence to apply
        self.leader_position = 0  # last position the leader reported
        self.caught_up_at: Optional[float] = None
        self.behind_since: Optional[float] = None
        self.applied = 0
        self.dirty = False  # applied records not yet persisted locally
        self.saved_at = 0.0


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
        advertise_url: Optional[str] = None,
        register_interval: float = 10.0,
    ) -> None:
        self.leader_url = leader_url.rstrip("/")
        self.poll_interval = poll_interval
        self.batch_records = batch_records
        self.lag_budget = lag_budget
        #: fleet identity announced to the leader's follower registry;
        #: ``advertise_url`` is where this node's /metricz lives (the
        #: CLI fills it in once the API listener knows its port)
        self.node_id = node_id if node_id else make_node_id("follower")
        self.advertise_url = advertise_url
        self.register_interval = register_interval
        self._registered_at = 0.0
        #: local directory for {cursor, state} persistence — a restarted
        #: follower warm-starts from here and tails from its saved
        #: cursor instead of re-bootstrapping snapshot-then-segments
        self.state_dir = state_dir
        self.persist_every = persist_every
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
        self.metrics.counter("replication.registrations")
        self.metrics.counter("replication.register_failures")
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
            self._shards = [
                _ReplicaShard(shard_id, self.config)
                for shard_id in range(num_shards)
            ]
            # warm start only when the saved state describes the same
            # topology and pipeline config — a reconfigured leader makes
            # local state meaningless, so it is discarded, not migrated
            local = self._load_local_manifest()
            warm = (
                local is not None
                and int(local.get("num_shards", -1)) == num_shards
                and local.get("config") == manifest["config"]
            )
            for shard in self._shards:
                self.metrics.gauge(
                    "replication.lag_records", shard=shard.shard_id
                )
                if warm and self._load_shard(shard):
                    continue
                self._bootstrap_shard(shard)
            if self.state_dir is not None:
                self._save_local_manifest(manifest)
            boot.set(shards=num_shards, warm=bool(warm))
        self._bootstrapped = True
        self._maybe_register(force=True)
        self._tailer.start()
        return self

    def stop(self) -> None:
        self._stopped = True
        self._tailer.stop()
        # final save so the next start tails from exactly where we stopped
        for shard in self._shards:
            if shard.dirty:
                self._save_shard(shard)

    def __enter__(self) -> "ReplicaRuntime":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- bootstrap ---------------------------------------------------------

    def _bootstrap_shard(self, shard: _ReplicaShard) -> None:
        """Snapshot-then-segments: load the state, cursor to its position."""
        payload = self.client.fetch_snapshot(shard.shard_id)
        pivot = load_state(payload["state"])
        pivot.set_decision_log(self.decisions)
        self._record_restored(pivot)
        with shard.lock:
            shard.pivot = pivot
            shard.cursor = int(payload["position"])
            shard.leader_position = shard.cursor
            shard.applied = 0
            shard.dirty = True  # snapshot state not yet on local disk
        self.metrics.counter("replication.bootstraps").inc()
        add_event(
            "replication.bootstrap", shard=shard.shard_id,
            position=shard.cursor, snippets=pivot.num_snippets,
        )
        if self.state_dir is not None:
            # persist immediately: a crash right after bootstrap should
            # warm-start, not pay the snapshot transfer twice
            self._save_shard(shard)

    def _record_restored(self, pivot: StoryPivot) -> None:
        """Found every adopted story in the decision log.

        Mirrors what :meth:`repro.runtime.shard.Shard.restore` does on
        the leader's resume path: stories arriving via snapshot (or a
        local warm start) enter the log through a ``restored`` founding
        event, so ``/storyz/{id}/history`` on a follower covers
        creation-time lineage instead of starting mid-life.
        """
        for source_id, story_set in sorted(pivot.story_sets().items()):
            for story in story_set:
                self.decisions.record(
                    "restored", story.story_id, source_id,
                    num_snippets=len(story),
                )

    # -- local state persistence -------------------------------------------

    def _shard_path(self, shard_id: int) -> str:
        return os.path.join(self.state_dir, f"shard-{shard_id}.json")

    def _manifest_path(self) -> str:
        return os.path.join(self.state_dir, "manifest.json")

    def _load_local_manifest(self) -> Optional[Dict[str, object]]:
        if self.state_dir is None:
            return None
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _save_local_manifest(self, manifest: Dict[str, object]) -> None:
        os.makedirs(self.state_dir, exist_ok=True)
        record = {
            "num_shards": int(manifest["num_shards"]),
            "config": manifest["config"],
            "dataset": manifest.get("dataset", "corpus"),
            "sources": manifest.get("sources", {}),
        }
        text = json.dumps(record, sort_keys=True)
        atomic_write(self._manifest_path(), lambda fh: fh.write(text))

    def _load_shard(self, shard: _ReplicaShard) -> bool:
        """Warm-start one shard from its local save; False = bootstrap."""
        try:
            with open(
                self._shard_path(shard.shard_id), "r", encoding="utf-8"
            ) as fh:
                payload = json.load(fh)
            cursor = int(payload["cursor"])
            pivot = load_state(payload["state"])
        except (OSError, ValueError, KeyError, TypeError, DataFormatError):
            # missing or torn save: fall back to a fresh bootstrap — a
            # local file must never be able to brick the follower
            return False
        pivot.set_decision_log(self.decisions)
        self._record_restored(pivot)
        with shard.lock:
            shard.pivot = pivot
            shard.cursor = cursor
            shard.leader_position = cursor
            shard.applied = 0
            shard.dirty = False
            shard.saved_at = time.time()
        self.metrics.counter("replication.warm_starts").inc()
        add_event(
            "replication.warm_start", shard=shard.shard_id,
            cursor=cursor, snippets=pivot.num_snippets,
        )
        return True

    def _save_shard(self, shard: _ReplicaShard) -> None:
        if self.state_dir is None:
            return
        with shard.lock:
            cursor = shard.cursor
            state = dumps_state(shard.pivot)
        os.makedirs(self.state_dir, exist_ok=True)
        text = json.dumps({"cursor": cursor, "state": state}, sort_keys=True)
        atomic_write(
            self._shard_path(shard.shard_id), lambda fh: fh.write(text)
        )
        with shard.lock:
            # records applied while we serialized stay dirty (cursor
            # moved past what was written); only an unchanged cursor
            # means the save is complete
            if shard.cursor == cursor:
                shard.dirty = False
            shard.saved_at = time.time()
        self.metrics.counter("replication.state_saves").inc()

    def _maybe_persist(self) -> None:
        if self.state_dir is None:
            return
        now = time.time()
        for shard in self._shards:
            if shard.dirty and now - shard.saved_at >= self.persist_every:
                self._save_shard(shard)

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
        self._maybe_persist()
        self._maybe_register()
        return pause

    def _maybe_register(self, force: bool = False) -> None:
        """Refresh this node's entry in the leader's follower registry.

        Best-effort on purpose: registration is observability plumbing
        and must never be able to stall or fail replication — a leader
        that predates the register endpoint 404s, and that is fine.
        """
        now = time.time()
        if not force and now - self._registered_at < self.register_interval:
            return
        self._registered_at = now
        try:
            self.client.register(self.node_id, self.advertise_url or "")
            self.metrics.counter("replication.registrations").inc()
        except Exception:
            self.metrics.counter("replication.register_failures").inc()

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
                shard.caught_up_at = time.time()
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
                    if not shard.pivot.has_snippet(snippet.snippet_id):
                        shard.pivot.add_snippet(snippet)
                    shard.cursor = seq + 1
                    shard.applied += 1
                    shard.dirty = True
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
            ).set(max(0, shard.leader_position - shard.cursor))
        self.metrics.gauge("replication.lag_seconds").set(
            round(self.lag_seconds(), 3)
        )

    def lag_records(self) -> int:
        """Total records the follower trails the leader by."""
        return sum(
            max(0, shard.leader_position - shard.cursor)
            for shard in self._shards
        )

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
        with self.tracer.span("shards.merge"):
            # shard locks in ascending shard order — same global order
            # the leader uses, so lockwatch sees one consistent ranking
            story_sets: Dict[str, object] = {}
            acquired = []
            try:
                for shard in self._shards:
                    shard.lock.acquire()
                    acquired.append(shard.lock)
                for shard in self._shards:
                    story_sets.update(shard.pivot.story_sets())
                merged = StoryPivot(self.config)
                for source_id in sorted(story_sets):
                    for story in story_sets[source_id]:
                        merged.restore_story(
                            source_id, story.story_id, story.snippets()
                        )
            finally:
                for lock in reversed(acquired):
                    lock.release()
            return merged

    def dumps_state(self) -> str:
        """Canonical checkpoint text of the merged replicated state."""
        return dumps_state(self.merged_pivot(), canonical_ids=True)

    def health(self) -> Dict[str, object]:
        """Follower replication health for ``/healthz``.

        ``ok`` — bootstrapped, tailing, within the lag budget;
        ``degraded`` — behind budget, erroring, or breaker open (still
        serving the last replicated state); ``unhealthy`` — the tail
        thread died or the replica never bootstrapped.
        """
        lag_seconds = self.lag_seconds()
        lag_records = self.lag_records()
        tailing = self._tailer.alive
        if self._stopped or not self._started:
            status = "unhealthy"
        elif not self._bootstrapped or not tailing:
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
                    "lag_records": max(
                        0, shard.leader_position - shard.cursor
                    ),
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

    def metrics_json(self, indent: int = 2) -> str:
        return self.metrics.to_json(indent=indent)


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
