"""The HTTP application: a kernel :class:`Listener` over a ViewStore.

Request flow (no locks on the read path):

1. rate limiter — dry bucket answers ``429`` with ``Retry-After``;
2. a route from the table — the live z-endpoints (``/metricz``,
   ``/sloz``, ``/tracez``, ``/storyz``, ``/subscribez``, a live
   ``/healthz``) render on every request;
3. everything else is data: grab the current
   :class:`~repro.server.views.ReadView` **once** — the whole response
   renders from that snapshot, and its generation is echoed in
   ``X-StoryPivot-Generation`` — then the response cache keyed
   ``(generation, path+query)``: a hit skips rendering entirely,
   ``If-None-Match`` matching the entry's ETag short-circuits to ``304``;
4. miss: route through :mod:`repro.server.handlers`, serialize once
   (``sort_keys`` for byte-stable ETags), cache, respond.

Tracing, the GET-only policy, error mapping, the response writer, the
access log and the in-flight drain are the kernel's
(:mod:`repro.server.kernel`).  Every request is instrumented into a
:class:`~repro.runtime.metrics.MetricsRegistry` (latency histogram,
status counters, cache hit/miss, in-flight gauge) exposed at
``/metricz`` in JSON or, via ``?format=text``, through the same
``render_table`` helper the ``storypivot-serve --stats`` view uses.
"""

from __future__ import annotations

import re
from typing import IO, Dict, Optional
from urllib.parse import unquote

from repro.obs.decisions import format_event, merge_histories
from repro.obs.propagate import make_node_id
from repro.obs.slo import render_slo_table
from repro.obs.trace import Tracer
from repro.push.bus import PushError
from repro.push.transport import (
    DEFAULT_HEARTBEAT_SECONDS,
    SSE_HEADERS,
    SSE_TYPE,
    parse_last_event_id,
    stream,
)
from repro.runtime.metrics import (
    Counter,
    MetricsRegistry,
    prometheus_render,
    render_table,
)

from repro.server.cache import ResponseCache
from repro.server.handlers import limit_param, route
from repro.server.kernel import (
    JSON_TYPE,
    ApiError,
    Listener,
    Reply,
    Request,
    json_bytes,
)
from repro.server.ratelimit import RateLimiter
from repro.server.views import ViewStore

#: content type Prometheus scrapers send in Accept and expect back
PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"
#: one entity tag of an ``If-None-Match`` list, its ``W/`` left out
_ENTITY_TAG = re.compile(r'(?:W/)?("[^"]*")')


def if_none_match(header: Optional[str], etag: str) -> bool:
    """Whether ``If-None-Match: header`` matches a current ``etag``.

    RFC 9110 §13.1.2: ``*`` matches any current representation, else
    the header is a comma-separated list of entity tags compared weakly
    (``W/"x"`` matches ``"x"``).
    """
    if not header:
        return False
    if header.strip() == "*":
        return True
    return etag.removeprefix("W/") in _ENTITY_TAG.findall(header)


class StoryPivotAPI(Listener):
    """The read-path API server.

    ``store`` supplies the current materialized view; ``metrics`` may be
    shared with a live runtime so ``/metricz`` exposes ingestion and
    serving counters side by side.
    """

    name = "storypivot-api"
    span_name = "http.request"
    server_version = "StoryPivotAPI/1.0"

    def __init__(
        self,
        store: ViewStore,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        cache_entries: int = 512,
        rate_limit: float = 0.0,
        burst: float = 20.0,
        access_log: Optional[IO[str]] = None,
        refresher=None,
        runtime=None,
        tracer=None,
        decisions=None,
        replication=None,
        bus=None,
        node_id=None,
        slo=None,
    ) -> None:
        super().__init__(host, port, access_log)
        self.store = store
        self.refresher = refresher
        self.runtime = runtime
        #: push EventBus serving /subscribez (None = push disabled)
        self.bus = bus
        #: leader-side ReplicationServer whose shipping health should be
        #: surfaced in /healthz (followers report through runtime instead)
        self.replication = replication
        #: SLOEngine serving /sloz and the slo /healthz component
        self.slo = slo
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # a real tracer even when nothing is exported: every response then
        # carries an X-Trace-Id clients can quote in bug reports
        self.tracer = tracer if tracer is not None else Tracer(sample_rate=0.0)
        if self.tracer.enabled and self.tracer.metrics is None:
            self.tracer.metrics = self.metrics
        #: fleet identity echoed in X-StoryPivot-Node and /healthz;
        #: defaults to the tracer's (the CLI sets both)
        self.node_id = (
            node_id
            or getattr(self.tracer, "node_id", None)
            or make_node_id(getattr(runtime, "role", None) or "node")
        )
        self.decisions = (
            decisions
            if decisions is not None
            else getattr(runtime, "decisions", None)
        )
        self.cache = ResponseCache(cache_entries)
        self.limiter = RateLimiter(rate=rate_limit, burst=burst)
        self.routes = {
            "/metricz": self._metricz,
            "/sloz": self._sloz,
            "/tracez": self._tracez,
            "/storyz/": self._storyz,
            "/subscribez": self._subscribez,
            "/healthz": self._healthz,
        }
        # pre-register the serving metrics operators expect in every
        # export; the ones every request moves are bound here, once
        metrics = self.metrics
        self._requests = metrics.counter("http.requests")
        self._latency = metrics.histogram("http.latency_seconds")
        self._hits = metrics.counter("http.cache.hits")
        self._misses = metrics.counter("http.cache.misses")
        metrics.counter("http.not_modified")
        metrics.counter("http.ratelimited")
        metrics.counter("http.shed")
        metrics.counter("http.warming")
        self._bytes_sent = metrics.counter("http.bytes_sent")
        self._inflight_gauge = metrics.gauge("http.inflight")
        #: status -> its ``http.status.<status>`` counter
        self._by_status: Dict[int, Counter] = {}

    def close(self) -> None:
        """Graceful shutdown: refuse new work, drain in-flight, tear down."""
        # end push streams first: SSE handler threads count as in-flight
        # requests and only exit once their queues close, so draining the
        # bus (goodbye event + queue close) is what lets the in-flight
        # wait actually reach zero
        if self.bus is not None and self._server is not None:
            self.bus.drain()
        super().close()

    # -- the kernel's hooks --------------------------------------------------

    def dispatch(self, request: Request) -> Optional[Reply]:
        allowed, retry_after = self.limiter.allow(
            request.client_address[0] if request.client_address else "?"
        )
        if not allowed:
            self.metrics.counter("http.ratelimited").inc()
            raise ApiError(429, "rate limit exceeded", {
                "Retry-After": str(max(1, int(retry_after + 0.999)))
            })
        return super().dispatch(request)

    def inflight_changed(self, inflight: int) -> None:
        self._inflight_gauge.set(inflight)

    def record(self, request: Request, elapsed: float) -> None:
        request.root.set(cache=request.cache)
        self._requests.inc()
        by_status = self._by_status.get(request.status)
        if by_status is None:
            by_status = self._by_status[request.status] = self.metrics.counter(
                f"http.status.{request.status}"
            )
        by_status.inc()
        self._latency.observe(elapsed)
        self._bytes_sent.inc(request.sent)

    # -- data: one snapshot, the response cache ------------------------------

    def fallback(self, request: Request) -> Reply:
        """Every data endpoint: warming, shedding, then the response cache."""
        view = self.store.current()  # the one snapshot read
        request.generation = view.generation
        split = request.split
        is_data = split.path.strip("/") not in ("", "healthz")
        if is_data and view.generation == 0:
            # nothing materialized yet: a clean 503, not a rendering
            # crash against the empty placeholder view
            self.metrics.counter("http.warming").inc()
            raise ApiError(
                503, "service warming up: no view materialized yet",
                {"Retry-After": "1"},
            )
        stale = {}
        if self.refresher is not None:
            if is_data and self.refresher.should_shed():
                self.metrics.counter("http.shed").inc()
                retry_sec = max(1, int(self.refresher.interval + 0.999))
                raise ApiError(
                    503, "view is past the lag budget; shedding load",
                    {"Retry-After": str(retry_sec)},
                )
            seconds = self.refresher.staleness()
            # a follower's data is additionally stale by however far
            # its replication cursor trails the leader
            lag_seconds = getattr(self.runtime, "lag_seconds", None)
            if callable(lag_seconds):
                seconds += lag_seconds()
            stale["X-StoryPivot-Stale-Seconds"] = f"{seconds:.3f}"
        cache_key = f"{split.path}?{split.query}"
        entry = self.cache.get(view.generation, cache_key)
        if entry is not None:
            request.cache = "hit"
            self._hits.inc()
        else:
            request.cache = "miss"
            self._misses.inc()
            result = route(view, split.path, request.params)
            body = json_bytes(result.payload)
            if result.status != 200:  # non-200 routed responses are not cached
                return Reply(result.status, body, JSON_TYPE, stale)
            entry = self.cache.put(view.generation, cache_key, body, JSON_TYPE)
        headers = {"ETag": entry.etag, "Cache-Control": "private, must-revalidate"}
        headers.update(stale)
        if if_none_match(request.headers.get("If-None-Match"), entry.etag):
            self.metrics.counter("http.not_modified").inc()
            return Reply(304, b"", entry.content_type, headers)
        return Reply(200, entry.body, entry.content_type, headers)

    # -- live endpoints: never cached, stamped with the current generation -

    def _live(
        self, request: Request, body: bytes, content_type: str = JSON_TYPE,
        status: int = 200,
    ) -> Reply:
        request.generation = self.store.generation
        return Reply(status, body, content_type)

    @staticmethod
    def _format(request: Request) -> str:
        """``?format=``, or prometheus when a scraper's Accept asks for it."""
        fmt = request.params.get("format", "")
        if not fmt and "version=0.0.4" in request.headers.get("Accept", ""):
            return "prometheus"
        return fmt

    def _metricz(self, request: Request) -> Reply:
        self.metrics.gauge("http.cache.entries").set(len(self.cache))
        self.metrics.gauge("http.cache.hit_rate").set(self.cache.hit_rate)
        self.metrics.gauge("view.generation").set(self.store.generation)
        if self.bus is not None:
            # per-subscriber lag/depth/drop gauges, scrape-time fresh
            self.bus.refresh_metrics()
        snapshot = self.metrics.snapshot()
        fmt = self._format(request)
        if fmt == "prometheus":
            body = prometheus_render(snapshot).encode("utf-8")
            return self._live(request, body, PROMETHEUS_TYPE)
        if fmt == "text":
            body = (render_table(snapshot) + "\n").encode("utf-8")
            return self._live(request, body, "text/plain")
        return self._live(request, json_bytes(snapshot))

    def _sloz(self, request: Request) -> Reply:
        if self.slo is None:
            raise ApiError(404, "no SLO engine attached to this server")
        self.slo.observe()
        payload = self.slo.evaluate()
        if request.params.get("format") == "text":
            body = (render_slo_table(payload) + "\n").encode("utf-8")
            return self._live(request, body, "text/plain")
        return self._live(request, json_bytes(payload))

    def _tracez(self, request: Request) -> Reply:
        """Recent traces + slow leaderboard + per-stage percentiles."""
        limit = limit_param(request.params, 20)
        payload = {
            "enabled": bool(self.tracer.enabled),
            "sample_rate": getattr(self.tracer, "sample_rate", 0.0),
        }
        span_store = getattr(self.tracer, "store", None)
        if span_store is None:
            payload.update({
                "finalized": 0, "dropped_partial": 0, "recent": [],
                "slow_traces": [], "stages": {}, "events": {},
            })
        else:
            payload.update(span_store.tracez_payload(
                limit=limit, slow_board=getattr(self.tracer, "slow", None),
            ))
        return self._live(request, json_bytes(payload))

    def _storyz(self, request: Request) -> Reply:
        """Decision history for one story — per-source or aligned id.

        An aligned id resolves through the current view to its member
        per-source stories, whose histories are interleaved by sequence
        number; a per-source id replays directly (including events of
        stories it absorbed).  The log advances without generation
        bumps, so this is live.
        """
        request.generation = self.store.generation
        parts = [p for p in request.split.path.strip("/").split("/") if p]
        if len(parts) < 3 or parts[-1] != "history":
            raise ApiError(404, "use /storyz/<story_id>/history")
        story_id = "/".join(unquote(p) for p in parts[1:-1])
        log = self.decisions
        if log is None:
            raise ApiError(404, "no decision log attached to this server")
        detail = self.store.current().story_details.get(story_id)
        if detail is not None:
            events = merge_histories(
                log.history(member) for member in detail["story_ids"]
            )
        else:
            events = log.history(story_id)
        if not events:
            raise ApiError(404, f"no decision history for story {story_id!r}")
        return self._live(request, json_bytes({
            "story_id": story_id,
            "aligned": detail is not None,
            "num_events": len(events),
            "events": events,
            "formatted": [format_event(event) for event in events],
        }))

    def _healthz(self, request: Request) -> Reply:
        """Compose /healthz from runtime, replication, view and SLO health.

        ``ok`` and ``degraded`` both answer 200 (degraded still serves,
        just stale or partial), ``unhealthy`` answers 503 so load
        balancers rotate away.  Health changes without generation bumps,
        so it bypasses the response cache unless the view is fixed.
        """
        if self.refresher is None and self.runtime is None:
            return self.fallback(request)
        view = self.store.current()
        role = getattr(self.runtime, "role", None)
        if self.slo is not None:
            self.slo.observe()
        parts = (
            # a follower's runtime *is* its replication state (cursor
            # lag, breaker, bootstrap) — name the component accordingly
            ("replication" if role == "follower" else "runtime", self.runtime),
            ("replication", self.replication),
            ("view", self.refresher),
            ("slo", self.slo),
        )
        components = {
            key: part.health() for key, part in parts if part is not None
        }
        statuses = {component["status"] for component in components.values()}
        status = next(
            (s for s in ("unhealthy", "degraded") if s in statuses), "ok"
        )
        return self._live(request, json_bytes({
            "status": status,
            "role": role or "leader",
            "node": self.node_id,
            "generation": view.generation,
            "dataset": view.dataset,
            "num_stories": len(view.stories),
            "components": components,
        }), status=503 if status == "unhealthy" else 200)

    # -- push subscriptions -------------------------------------------------

    def _subscribez(self, request: Request) -> Optional[Reply]:
        """``/subscribez``: SSE stream (default) or long-poll batch.

        Admission composes with everything the data path already has:
        the rate limiter ran before we got here, draining answered 503
        at the top, and under lag pressure new subscriptions are shed
        *first* — at half the ``--lag-budget``, before data requests
        shed at the full budget — because a refused subscription is one
        cheap 503 while an admitted one is an open stream competing with
        the refresher for the lifetime of the connection.
        """
        bus = self.bus
        if bus is None:
            raise ApiError(
                404, "push subscriptions are not enabled on this server"
            )
        request.generation = self.store.generation
        params = request.params
        story = params.get("story") or None
        entity = params.get("entity") or None
        source = params.get("source") or None
        refresher = self.refresher
        if (
            refresher is not None
            and refresher.lag_budget is not None
            and refresher.staleness() > 0.5 * refresher.lag_budget
        ):
            self.metrics.counter("http.shed").inc()
            retry_sec = max(1, int(refresher.interval + 0.999))
            raise ApiError(
                503, "view lag approaching budget; "
                     "new subscriptions are shed first",
                {"Retry-After": str(retry_sec)}, close=True,
            )
        mode = params.get("mode", "sse")
        if mode == "poll":
            return self._poll(request, story, entity, source)
        if mode != "sse":
            raise ApiError(
                400, f"unknown mode {mode!r}; use mode=sse or mode=poll"
            )
        last_cursor = parse_last_event_id(
            request.headers.get("Last-Event-ID") or params.get("cursor")
        )
        try:
            capacity = (
                max(1, min(int(params["capacity"]), 8192))
                if "capacity" in params else None
            )
            max_events = (
                max(1, int(params["limit"])) if "limit" in params else None
            )
            heartbeat = min(
                60.0,
                max(0.05, float(params.get(
                    "heartbeat", DEFAULT_HEARTBEAT_SECONDS
                ))),
            )
        except ValueError:
            raise ApiError(
                400, "capacity, limit and heartbeat must be numeric"
            ) from None
        try:
            sub = bus.subscribe(
                story=story, entity=entity, source=source,
                queue_capacity=capacity,
                policy=params.get("policy") or None,
                last_cursor=last_cursor,
            )
        except PushError as exc:
            if exc.status == 503:
                self.metrics.counter("http.shed").inc()
            raise ApiError(exc.status, exc.message, close=True) from None
        # the stream IS the rest of the body: no length, Connection: close
        request.send_head(200, SSE_TYPE, {
            **SSE_HEADERS, "X-StoryPivot-Subscription": sub.name,
        }, close=True)
        request.wfile.flush()
        request.root.set(subscription=sub.name, resumed=sub.resumed)
        try:
            reason = stream(
                sub, request.wfile,
                heartbeat=heartbeat,
                tracer=self.tracer,
                max_events=max_events,
            )
        finally:
            # whether the stream ended cleanly or the client vanished
            # mid-write, the subscription must not outlive the socket
            bus.unsubscribe(sub)
        request.root.set(end=reason, delivered=sub.read)
        return None

    def _poll(self, request: Request, story, entity, source) -> Reply:
        """Stateless long-poll leg: one bounded batch per request."""
        params = request.params
        try:
            cursor = int(params.get("cursor", "0"))
            wait = min(30.0, max(0.0, float(params.get("wait", "0"))))
            limit = int(params.get("limit", "100"))
        except ValueError:
            raise ApiError(
                400, "cursor, wait and limit must be numeric"
            ) from None
        payload = self.bus.poll(
            cursor, story=story, entity=entity, source=source,
            timeout=wait, limit=limit,
        )
        return self._live(request, json_bytes(payload))
