"""Leader side of WAL-shipping replication.

:class:`ReplicationServer` exposes a live
:class:`~repro.runtime.runtime.ShardedRuntime` (one with a WAL
directory — the configuration where per-shard WALs exist) over the
pull protocol in :mod:`repro.replication.protocol`.  It is a listener
of the shared HTTP kernel (:mod:`repro.server.kernel`) on its own port,
so replication traffic never competes with the read-path listener, and
it touches the runtime only through the leader accessors
(``shard_snapshot`` takes the shard lock for an atomic state+position
pair; WAL record reads are lock-free — sealed segments are immutable
and the active file tolerates a racing append).

Every shipped response is a ``replication.ship`` span and counted under
``replication.ship.*`` in the shared metrics registry — never under the
read API's ``http.*``, which the SLO engine's read objectives measure —
so ``/metricz`` and ``/tracez`` on the leader show shipping next to
ingestion.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.persistence import config_record
from repro.obs.propagate import span_traceparent
from repro.obs.trace import Tracer, current_span
from repro.replication.protocol import (
    DEFAULT_BATCH_RECORDS,
    MANIFEST_KIND,
    MANIFEST_PATH,
    PROTOCOL_VERSION,
    SNAPSHOT_KIND,
    SNAPSHOT_PATH,
    WAL_KIND,
    WAL_PATH,
)
from repro.server.kernel import ApiError, Listener, Reply, Request, json_bytes

#: hard ceiling on records per WAL response, whatever the client asks
MAX_BATCH_RECORDS = 4096


def _int_param(params: Dict[str, str], name: str, default: int) -> int:
    try:
        return int(params.get(name, default))
    except ValueError:
        raise ApiError(
            400, f"{name} must be an integer, got {params[name]!r}"
        ) from None


class ReplicationServer(Listener):
    """Ship snapshots and WAL segments from a leader runtime."""

    name = "storypivot-replication"
    span_name = "replication.ship"
    server_version = "StoryPivotReplication/1.0"

    def __init__(
        self,
        runtime,
        host: str = "127.0.0.1",
        port: int = 0,
        dataset: str = "corpus",
        sources: Optional[Dict[str, Dict[str, str]]] = None,
        metrics=None,
        tracer=None,
    ) -> None:
        super().__init__(host, port)
        self.runtime = runtime
        self.dataset = dataset
        #: source metadata shipped in the manifest so follower views
        #: render identical /sources payloads (names and kinds are not
        #: recoverable from WAL records alone)
        self.sources = sources if sources is not None else {}
        self.metrics = metrics if metrics is not None else runtime.metrics
        self.tracer = tracer if tracer is not None else Tracer(sample_rate=0.0)
        self.routes = {
            MANIFEST_PATH: self._manifest,
            SNAPSHOT_PATH + "/": self._snapshot,
            WAL_PATH + "/": self._wal,
        }
        # touch the WAL accessor now: a runtime that cannot lead (no
        # wal_dir) must fail at construction, not on the first follower
        # request
        runtime.start()
        runtime.shard_wal(0)
        self.metrics.counter("replication.ship.requests")
        self.metrics.counter("replication.ship.records")
        self.metrics.counter("replication.ship.bytes")
        self.metrics.counter("replication.ship.snapshots")
        self.metrics.counter("replication.ship.resets")

    # -- routes ------------------------------------------------------------

    def record(self, request: Request, elapsed: float) -> None:
        self.metrics.counter("replication.ship.requests").inc()
        self.metrics.counter("replication.ship.bytes").inc(request.sent)

    def _manifest(self, request: Request) -> Reply:
        return Reply(200, json_bytes(self.manifest_payload()))

    def _snapshot(self, request: Request) -> Reply:
        shard_id = self._shard(request, SNAPSHOT_PATH)
        request.root.set(shard=shard_id, kind="snapshot")
        return Reply(200, json_bytes(self.snapshot_payload(shard_id)))

    def _wal(self, request: Request) -> Reply:
        shard_id = self._shard(request, WAL_PATH)
        from_seq = _int_param(request.params, "from", 0)
        max_records = _int_param(request.params, "max", DEFAULT_BATCH_RECORDS)
        request.root.set(shard=shard_id, kind="wal", cursor=from_seq)
        return Reply(200, json_bytes(
            self.wal_payload(shard_id, from_seq, max_records)
        ))

    def _shard(self, request: Request, prefix: str) -> int:
        path = request.split.path.rstrip("/")
        try:
            shard_id = int(path[len(prefix) + 1:])
        except ValueError:
            raise ApiError(404, f"unknown path {path!r}") from None
        num_shards = self.runtime.options.num_shards
        if not 0 <= shard_id < num_shards:
            raise ApiError(
                404, f"no shard {shard_id}: the leader has {num_shards}"
            )
        return shard_id

    # -- payloads ----------------------------------------------------------

    def manifest_payload(self) -> Dict[str, object]:
        return {
            "kind": MANIFEST_KIND,
            "version": PROTOCOL_VERSION,
            "role": "leader",
            "num_shards": self.runtime.options.num_shards,
            "config": config_record(self.runtime.config),
            "dataset": self.dataset,
            "sources": self.sources,
            "positions": self.runtime.wal_positions(),
        }

    def snapshot_payload(self, shard_id: int) -> Dict[str, object]:
        text, position = self.runtime.shard_snapshot(shard_id)
        self.metrics.counter("replication.ship.snapshots").inc()
        payload = {
            "kind": SNAPSHOT_KIND,
            "version": PROTOCOL_VERSION,
            "shard": shard_id,
            "position": position,
            "state": text,
        }
        trace = span_traceparent(current_span())
        if trace is not None:
            payload["trace"] = trace
        return payload

    def wal_payload(
        self, shard_id: int, from_seq: int, max_records: int
    ) -> Dict[str, object]:
        wal = self.runtime.shard_wal(shard_id)
        max_records = max(1, min(max_records, MAX_BATCH_RECORDS))
        earliest = wal.earliest_available_seq()
        if from_seq < earliest:
            # the cursor predates the oldest retained segment: the gap
            # is unbridgeable by tailing, the follower must re-snapshot
            self.metrics.counter("replication.ship.resets").inc()
            return {
                "kind": WAL_KIND,
                "version": PROTOCOL_VERSION,
                "shard": shard_id,
                "from": from_seq,
                "earliest": earliest,
                "position": wal.position,
                "reset": True,
                "records": [],
            }
        records: List[Dict[str, object]] = list(
            wal.iter_records(from_seq, max_records)
        )
        self.metrics.counter("replication.ship.records").inc(len(records))
        payload = {
            "kind": WAL_KIND,
            "version": PROTOCOL_VERSION,
            "shard": shard_id,
            "from": from_seq,
            "earliest": earliest,
            "position": wal.position,
            "reset": False,
            "records": records,
        }
        span = current_span()
        trace = span_traceparent(span)
        if trace is not None:
            payload["trace"] = trace
        if span is not None and span.sampled:
            # the ship span links back to the ingest traces whose
            # records it carries, so /tracez can walk from a shipped
            # batch to the leader-side accepts it forwarded
            links: List[str] = []
            for record in records:
                ingest = record.get("trace")
                if ingest and ingest not in links:
                    links.append(ingest)
                    if len(links) >= 8:
                        break
            if links:
                span.set(links=links)
        return payload

    def health(self) -> Dict[str, object]:
        """Leader-side replication component for ``/healthz``."""
        snap = self.metrics.snapshot()

        def value(name: str) -> int:
            return int(snap.get(name, {}).get("value", 0))

        return {
            "status": "ok" if self._server is not None else "degraded",
            "role": "leader",
            "address": self.address if self._server is not None else None,
            "positions": self.runtime.wal_positions(),
            "snapshots_shipped": value("replication.ship.snapshots"),
            "records_shipped": value("replication.ship.records"),
            "resets": value("replication.ship.resets"),
        }

