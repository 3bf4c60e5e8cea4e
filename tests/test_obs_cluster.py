"""The cross-node observability plane, end to end over real sockets.

A leader (runtime + replication endpoint + API) and a follower (replica
runtime + API) run at sampling 1.0 with distinct node ids.  The tests
check that replication produces stitched traces whose roots are
leader-side spans, ``/sloz`` answers on both nodes, ``/healthz`` names
the node, and a restarted follower joins the leader's traces under its
new identity.
"""

import http.client
import json
import time

import pytest

from repro.core.config import StoryPivotConfig
from repro.obs import SLOEngine, SpanStore, Tracer
from repro.obs.propagate import inject_headers
from repro.obs.slo import default_objectives
from repro.replication import ReplicaRuntime, ReplicationServer
from repro.replication.follower import SourceMetaShim, source_meta_record
from repro.runtime import ShardedRuntime
from repro.server import StoryPivotAPI, ViewRefresher, ViewStore

CONFIG = StoryPivotConfig.temporal()
POLL = 0.02
LAG_BUDGET = 30.0


def _get(port, path, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _get_json(port, path, headers=None):
    status, resp_headers, body = _get(port, path, headers)
    return status, resp_headers, json.loads(body) if body else None


class Node:
    """One fleet participant's handles, for assertion convenience."""

    def __init__(self, **parts):
        self.__dict__.update(parts)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory, small_synthetic):
    """Leader + converged follower, fully traced."""
    wal_dir = tmp_path_factory.mktemp("fleet-wal")
    leader_spans = SpanStore()
    leader_tracer = Tracer(
        sample_rate=1.0, store=leader_spans, node_id="leader@test:1"
    )
    runtime = ShardedRuntime(
        CONFIG, num_shards=2, wal_dir=str(wal_dir), checkpoint_every=25,
        tracer=leader_tracer,
    )
    # first two thirds land before the follower exists (bootstrapped
    # via snapshot); the rest is fed afterwards so some records are
    # guaranteed to travel the traced WAL-tail path
    stream = list(small_synthetic.snippets_by_publication())
    cut = (2 * len(stream)) // 3
    runtime.consume(stream[:cut])
    runtime.drain()
    ship = ReplicationServer(
        runtime, dataset=small_synthetic.name,
        sources=source_meta_record(small_synthetic),
        tracer=leader_tracer,
    ).start()
    leader_store = ViewStore(dataset=small_synthetic.name)
    leader_refresher = ViewRefresher(
        runtime, leader_store, interval=0.1, corpus=small_synthetic,
        metrics=runtime.metrics, tracer=leader_tracer,
        pin_generations=True,
    ).start()
    leader_slo = SLOEngine(default_objectives(
        runtime.metrics, refresher=leader_refresher, runtime=runtime,
        staleness_limit=LAG_BUDGET,
    ))
    leader_api = StoryPivotAPI(
        leader_store, refresher=leader_refresher, runtime=runtime,
        replication=ship, tracer=leader_tracer, metrics=runtime.metrics,
        node_id="leader@test:1", slo=leader_slo,
    ).start()

    follower_spans = SpanStore()
    follower_tracer = Tracer(
        sample_rate=1.0, store=follower_spans, node_id="follower@test:2"
    )
    replica = ReplicaRuntime(
        ship.address, poll_interval=POLL, tracer=follower_tracer,
        node_id="follower@test:2", lag_budget=LAG_BUDGET,
    ).start()
    replica_store = ViewStore(dataset=replica.dataset)
    replica_refresher = ViewRefresher(
        replica, replica_store, interval=0.1,
        corpus=SourceMetaShim(replica.source_meta),
        metrics=replica.metrics, tracer=follower_tracer,
        lag_budget=LAG_BUDGET, pin_generations=True,
    ).start()
    replica_slo = SLOEngine(default_objectives(
        replica.metrics, refresher=replica_refresher, runtime=replica,
        staleness_limit=LAG_BUDGET,
    ))
    replica_api = StoryPivotAPI(
        replica_store, refresher=replica_refresher, runtime=replica,
        tracer=follower_tracer, metrics=replica.metrics,
        node_id="follower@test:2", slo=replica_slo,
    ).start()

    runtime.consume(stream[cut:])  # tailed over the wire, traced
    runtime.drain()

    deadline = time.time() + 60
    while time.time() < deadline:
        if (
            replica.accepted == runtime.accepted
            and replica.lag_records() == 0
            and replica_store.generation == leader_store.generation
            and leader_store.generation > 0
        ):
            break
        time.sleep(POLL)
    else:  # pragma: no cover - converge failure is a test failure
        pytest.fail("fleet never converged")

    leader = Node(
        runtime=runtime, ship=ship, api=leader_api, spans=leader_spans,
        store=leader_store, refresher=leader_refresher, slo=leader_slo,
        tracer=leader_tracer,
    )
    follower = Node(
        replica=replica, api=replica_api, spans=follower_spans,
        store=replica_store, refresher=replica_refresher,
        slo=replica_slo, tracer=follower_tracer,
    )
    yield leader, follower
    replica_api.close()
    replica_refresher.stop()
    replica.stop()
    leader_api.close()
    leader_refresher.stop()
    ship.close()
    runtime.stop()


def _traces_by_root(span_store, name):
    return [
        t for t in span_store.traces(limit=500)
        if any(
            s["name"] == name
            and (s["parent_id"] is None or s.get("remote"))
            for s in t["spans"]
        )
    ]


class TestStitchedTraces:
    def test_apply_traces_root_at_the_leader_ship_span(self, fleet):
        """Acceptance: the follower's replication.apply spans continue
        traces rooted at leader-side replication.ship spans — the union
        of both exports is one parent/child tree."""
        leader, follower = fleet
        apply_traces = _traces_by_root(follower.spans, "replication.apply")
        assert apply_traces
        ship_roots = {}
        for trace in leader.spans.traces(limit=500):
            for span in trace["spans"]:
                if span["name"] == "replication.ship":
                    ship_roots.setdefault(trace["trace_id"], span)
        stitched = 0
        for trace in apply_traces:
            apply_span = next(
                s for s in trace["spans"]
                if s["name"] == "replication.apply"
            )
            ship = ship_roots.get(trace["trace_id"])
            if ship is None:
                continue
            assert apply_span["parent_id"] == ship["span_id"]
            assert apply_span["remote"] is True
            assert apply_span["node"] == "follower@test:2"
            assert ship["node"] == "leader@test:1"
            stitched += 1
        assert stitched > 0

    def test_apply_spans_link_back_to_ingest_traces(self, fleet):
        leader, follower = fleet
        ingest_ids = {
            t["trace_id"] for t in leader.spans.traces(limit=500)
            if t["name"] == "ingest"
        }
        links = set()
        for trace in _traces_by_root(follower.spans, "replication.apply"):
            for span in trace["spans"]:
                links.update((span.get("attrs") or {}).get("links", ()))
        assert links and links <= ingest_ids

    def test_bootstrap_pulls_parent_under_the_follower_root(self, fleet):
        """The caller->callee direction: the follower's bootstrap trace
        injects traceparent into its manifest/snapshot pulls, so the
        leader's ship spans for those requests are remote children."""
        leader, follower = fleet
        boot = next(
            t for t in follower.spans.traces(limit=500)
            if t["name"] == "replication.bootstrap"
        )
        remote_ships = [
            s for t in leader.spans.traces(limit=500)
            for s in t["spans"]
            if t["trace_id"] == boot["trace_id"] and s.get("remote")
        ]
        assert remote_ships
        boot_root = next(
            s for s in boot["spans"] if s["parent_id"] is None
        )
        assert all(
            s["parent_id"] == boot_root["span_id"] for s in remote_ships
        )

    def test_client_read_joins_the_callers_trace(self, fleet):
        leader, follower = fleet
        with leader.tracer.start_trace("client.read") as span:
            headers = inject_headers(span=span)
        status, resp_headers, _ = _get(
            follower.api.port, "/stories", headers=headers
        )
        assert status == 200
        assert resp_headers["X-Trace-Id"] == span.trace_id
        assert resp_headers["X-StoryPivot-Node"] == "follower@test:2"
        request_span = next(
            s
            for t in follower.spans.traces(limit=50)
            if t["trace_id"] == span.trace_id
            for s in t["spans"] if s["name"] == "http.request"
        )
        assert request_span["remote"] is True
        assert request_span["parent_id"] == span.span_id

    def test_hostile_traceparent_starts_a_fresh_root(self, fleet):
        _, follower = fleet
        for value in ("garbage", f"00-{'ab' * 16}-{'cd' * 8}-01"):
            status, headers, _ = _get(
                follower.api.port, "/stories",
                headers={"traceparent": value},
            )
            assert status == 200
            assert len(headers["X-Trace-Id"]) == 16
            assert headers["X-Trace-Id"] not in value


class TestSlozAndHealth:
    def test_sloz_answers_on_both_nodes(self, fleet):
        leader, follower = fleet
        for port in (leader.api.port, follower.api.port):
            _get(port, "/stories")  # ensure some traffic
            status, _, payload = _get_json(port, "/sloz")
            assert status == 200
            assert payload["status"] in ("ok", "no_data", "warn")
            names = {o["name"] for o in payload["objectives"]}
            assert {"read-availability", "read-latency-p95"} <= names
        leader_names = {
            o["name"]
            for o in _get_json(leader.api.port, "/sloz")[2]["objectives"]
        }
        assert "ingest-accounting" in leader_names
        follower_names = {
            o["name"]
            for o in _get_json(follower.api.port, "/sloz")[2]["objectives"]
        }
        assert "staleness" in follower_names

    def test_sloz_text_renders_the_top_table(self, fleet):
        leader, _ = fleet
        status, headers, body = _get(leader.api.port, "/sloz?format=text")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "objective" in text and "status:" in text

    def test_healthz_carries_the_slo_component(self, fleet):
        leader, _ = fleet
        status, _, payload = _get_json(leader.api.port, "/healthz")
        assert status == 200
        assert payload["node"] == "leader@test:1"
        slo = payload["components"]["slo"]
        assert slo["status"] in ("ok", "degraded")
        assert slo["objectives"] >= 2


class TestFollowerRestartMidTrace:
    def test_restarted_follower_stitches_as_a_new_identity(
        self, fleet, small_synthetic
    ):
        """A follower killed mid-stream and restarted is a *new* fleet
        participant: its fresh node id stitches cleanly into leader
        traces, and the old identity simply stops refreshing."""
        leader, _ = fleet
        first_spans = SpanStore()
        first = ReplicaRuntime(
            leader.ship.address, poll_interval=POLL,
            tracer=Tracer(sample_rate=1.0, store=first_spans,
                          node_id="restart@test:a"),
            node_id="restart@test:a",
        ).start()
        first.stop()  # killed mid-trace: open spans
        second_spans = SpanStore()
        second = ReplicaRuntime(
            leader.ship.address, poll_interval=POLL,
            tracer=Tracer(sample_rate=1.0, store=second_spans,
                          node_id="restart@test:b"),
            node_id="restart@test:b",
        ).start()
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                if (
                    second.accepted == leader.runtime.accepted
                    and second.lag_records() == 0
                ):
                    break
                time.sleep(POLL)
            assert second.accepted == leader.runtime.accepted
            # the new identity's bootstrap trace stitched across the
            # wire: leader ship spans joined it as remote children
            boot = next(
                t for t in second_spans.traces(limit=100)
                if t["name"] == "replication.bootstrap"
            )
            remote_ships = [
                s for t in leader.spans.traces(limit=1000)
                for s in t["spans"]
                if t["trace_id"] == boot["trace_id"] and s.get("remote")
            ]
            assert remote_ships
            nodes = {
                s["node"]
                for t in second_spans.traces(limit=100)
                for s in t["spans"] if s.get("node")
            }
            assert nodes == {"restart@test:b"}  # never the dead identity
        finally:
            second.stop()
