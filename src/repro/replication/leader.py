"""Leader side of WAL-shipping replication.

:class:`ReplicationServer` exposes a live
:class:`~repro.runtime.runtime.ShardedRuntime` (one with a WAL
directory — the configuration where per-shard WALs exist) over the
pull protocol in :mod:`repro.replication.protocol`.  It runs on its own
``ThreadingHTTPServer`` and port so replication traffic never competes
with the read-path listener, and it touches the runtime only through
the leader accessors (``shard_snapshot`` takes the shard lock for an
atomic state+position pair; WAL record reads are lock-free — sealed
segments are immutable and the active file tolerates a racing append).

Every shipped response is a ``replication.ship`` span and counted into
the shared metrics registry, so ``/metricz`` and ``/tracez`` on the
leader show shipping next to ingestion.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.core.persistence import config_record
from repro.obs.propagate import extract_context, span_traceparent
from repro.obs.trace import Tracer, current_span
from repro.replication.protocol import (
    DEFAULT_BATCH_RECORDS,
    MANIFEST_KIND,
    MANIFEST_PATH,
    PROTOCOL_VERSION,
    REGISTER_KIND,
    REGISTER_PATH,
    SNAPSHOT_KIND,
    SNAPSHOT_PATH,
    WAL_KIND,
    WAL_PATH,
)

JSON_TYPE = "application/json"

#: hard ceiling on records per WAL response, whatever the client asks
MAX_BATCH_RECORDS = 4096


class ReplicationServer:
    """Ship snapshots and WAL segments from a leader runtime."""

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
        self.runtime = runtime
        self.host = host
        self._requested_port = port
        self.dataset = dataset
        #: source metadata shipped in the manifest so follower views
        #: render identical /sources payloads (names and kinds are not
        #: recoverable from WAL records alone)
        self.sources = sources if sources is not None else {}
        self.metrics = metrics if metrics is not None else runtime.metrics
        self.tracer = tracer if tracer is not None else Tracer(sample_rate=0.0)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        # soft-state follower registry for the observability plane:
        # node id -> {url, registered_at, registrations}; populated by
        # /replication/v1/register, consumed by the FleetCollector
        self._followers: Dict[str, Dict[str, object]] = {}
        self._followers_lock = threading.Lock()
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
        self.metrics.counter("replication.ship.registrations")

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("replication server is not started")
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReplicationServer":
        if self._server is not None:
            return self
        source = self

        class Handler(_ReplicationRequestHandler):
            ship = source

        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="storypivot-replication",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "ReplicationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

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

    # -- follower registry -------------------------------------------------

    def register_follower(self, node_id: str, url: str = "") -> Dict[str, object]:
        """Record (or refresh) a follower's presence; returns the ack."""
        if not node_id:
            raise ValueError("register requires a non-empty node id")
        now = time.time()
        with self._followers_lock:
            entry = self._followers.get(node_id)
            if entry is None:
                entry = self._followers[node_id] = {
                    "node": node_id,
                    "first_seen": round(now, 3),
                    "registrations": 0,
                }
            if url:
                entry["url"] = url
            entry["registered_at"] = round(now, 3)
            entry["registrations"] = int(entry["registrations"]) + 1
            count = len(self._followers)
        self.metrics.counter("replication.ship.registrations").inc()
        return {
            "kind": REGISTER_KIND,
            "version": PROTOCOL_VERSION,
            "node": node_id,
            "followers": count,
        }

    def followers(self) -> List[Dict[str, object]]:
        """Registered followers, most recently refreshed first."""
        with self._followers_lock:
            entries = [dict(entry) for entry in self._followers.values()]
        entries.sort(key=lambda e: -float(e.get("registered_at", 0)))
        return entries

    def health(self) -> Dict[str, object]:
        """Leader-side replication component for ``/healthz``."""
        snap = self.metrics.snapshot()

        def value(name: str) -> int:
            return int(snap.get(name, {}).get("value", 0))

        with self._followers_lock:
            followers = len(self._followers)
        return {
            "status": "ok" if self._server is not None else "degraded",
            "role": "leader",
            "address": self.address if self._server is not None else None,
            "positions": self.runtime.wal_positions(),
            "snapshots_shipped": value("replication.ship.snapshots"),
            "records_shipped": value("replication.ship.records"),
            "resets": value("replication.ship.resets"),
            "followers": followers,
        }


class _ReplicationRequestHandler(BaseHTTPRequestHandler):
    """One replication request: route, render JSON, count bytes."""

    ship: ReplicationServer  # bound by ReplicationServer.start()
    protocol_version = "HTTP/1.1"
    server_version = "StoryPivotReplication/1.0"
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:
        ship = self.ship
        ship.metrics.counter("replication.ship.requests").inc()
        split = urlsplit(self.path)
        path = split.path.rstrip("/")
        params = dict(parse_qsl(split.query))
        # a caller that is itself tracing (follower bootstrap, client
        # read) hands us its context; the ship span then parents into
        # the remote trace instead of rooting a new one
        remote = extract_context(self.headers)
        if remote is not None:
            span_cm = ship.tracer.start_remote(
                "replication.ship", remote, path=path
            )
        else:
            # sp-lint: disable=SP301 -- entered by the `with span_cm` below; the branch only picks remote vs local root
            span_cm = ship.tracer.span("replication.ship", path=path)
        with span_cm as span:
            try:
                if path == MANIFEST_PATH:
                    self._send_json(200, ship.manifest_payload())
                    return
                if path == REGISTER_PATH:
                    node_id = params.get("node", "")
                    span.set(kind="register", node=node_id)
                    if not node_id:
                        self._send_json(
                            400, {"error": "register requires ?node=<id>"}
                        )
                        return
                    self._send_json(
                        200,
                        ship.register_follower(node_id, params.get("url", "")),
                    )
                    return
                shard_id = self._shard_of(path, SNAPSHOT_PATH)
                if shard_id is not None:
                    span.set(shard=shard_id, kind="snapshot")
                    self._send_json(200, ship.snapshot_payload(shard_id))
                    return
                shard_id = self._shard_of(path, WAL_PATH)
                if shard_id is not None:
                    from_seq = self._int_param(params, "from", 0)
                    max_records = self._int_param(
                        params, "max", DEFAULT_BATCH_RECORDS
                    )
                    span.set(shard=shard_id, kind="wal", cursor=from_seq)
                    self._send_json(
                        200, ship.wal_payload(shard_id, from_seq, max_records)
                    )
                    return
                self._send_json(404, {"error": f"unknown path {path!r}"})
            except (BrokenPipeError, ConnectionResetError):
                span.set(outcome="client_gone")
            except Exception as exc:  # keep the shipping thread alive
                span.record_error(exc)
                try:
                    self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
                except (BrokenPipeError, ConnectionResetError, OSError):
                    pass

    do_HEAD = do_POST = do_PUT = do_DELETE = do_GET

    def _shard_of(self, path: str, prefix: str) -> Optional[int]:
        if not path.startswith(prefix + "/"):
            return None
        tail = path[len(prefix) + 1:]
        try:
            shard_id = int(tail)
        except ValueError:
            return None
        if not 0 <= shard_id < self.ship.runtime.options.num_shards:
            raise IndexError(f"shard {shard_id} out of range")
        return shard_id

    @staticmethod
    def _int_param(params: Dict[str, str], name: str, default: int) -> int:
        try:
            return int(params.get(name, default))
        except ValueError:
            return default

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.ship.metrics.counter("replication.ship.bytes").inc(len(body))
        self.send_response(status)
        self.send_header("Content-Type", JSON_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
