"""HTTP observability surfaces: /tracez, /storyz, headers, Prometheus."""

import http.client
import json

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.eventdata.handcrafted import demo_config, mh17_corpus
from repro.obs import DecisionLog, SpanStore, Tracer
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime
from repro.server import StoryPivotAPI, ViewRefresher, ViewStore


def _get(port, path, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body
    finally:
        conn.close()


def _get_json(port, path, headers=None):
    status, resp_headers, body = _get(port, path, headers)
    return status, resp_headers, json.loads(body) if body else None


@pytest.fixture(scope="module")
def traced_api(tmp_path_factory):
    """A live --follow-style stack at sampling 1.0 with a WAL dir: the
    full feed→queue→shard→WAL→view-refresh→HTTP chain is traced."""
    wal_dir = tmp_path_factory.mktemp("obs-state")
    corpus = mh17_corpus()
    store = ViewStore(dataset=corpus.name)
    span_store = SpanStore()
    tracer = Tracer(sample_rate=1.0, store=span_store)
    runtime = ShardedRuntime(
        demo_config(),
        RuntimeOptions(num_shards=2, wal_dir=str(wal_dir)),
        tracer=tracer,
    ).start()
    refresher = ViewRefresher(
        runtime, store, interval=30.0, corpus=corpus,
        metrics=runtime.metrics, tracer=tracer,
    )
    runtime.consume_corpus(corpus)
    runtime.flush()
    refresher.refresh(force=True)
    api = StoryPivotAPI(
        store, port=0, metrics=runtime.metrics, refresher=refresher,
        runtime=runtime, tracer=tracer, decisions=runtime.decisions,
    ).start()
    try:
        yield api, runtime, span_store
    finally:
        api.close()
        runtime.stop()


class TestTraceHeaders:
    def test_every_response_carries_a_trace_id(self, traced_api):
        api, _, _ = traced_api
        for path in ("/stories", "/healthz", "/metricz", "/nope"):
            _, headers, _ = _get(api.port, path)
            assert len(headers["X-Trace-Id"]) == 16

    def test_request_id_is_echoed(self, traced_api):
        api, _, _ = traced_api
        _, headers, _ = _get(
            api.port, "/stories", headers={"X-Request-Id": "req-42"}
        )
        assert headers["X-Request-Id"] == "req-42"
        _, headers, _ = _get(api.port, "/stories")
        assert "X-Request-Id" not in headers

    def test_default_api_has_trace_ids_without_a_tracer(self):
        corpus = mh17_corpus()
        result = StoryPivot(demo_config()).run(corpus)
        store = ViewStore(dataset=corpus.name)
        store.install(result, corpus=corpus)
        with StoryPivotAPI(store, port=0) as api:
            _, headers, _ = _get(api.port, "/healthz")
            assert len(headers["X-Trace-Id"]) == 16
            status, _, payload = _get_json(api.port, "/tracez")
            assert status == 200
            assert payload["sample_rate"] == 0.0


class TestPrometheus:
    def test_accept_header_selects_exposition_format(self, traced_api):
        api, _, _ = traced_api
        status, headers, body = _get(
            api.port, "/metricz",
            headers={"Accept": "text/plain; version=0.0.4"},
        )
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        text = body.decode("utf-8")
        assert "# TYPE http_requests counter" in text
        assert "# TYPE ingest_offer_latency_seconds summary" in text
        assert 'quantile="0.95"' in text
        # labeled children collapse into one family
        assert 'queue_depth{shard="0"}' in text

    def test_json_and_table_defaults_are_unchanged(self, traced_api):
        api, _, _ = traced_api
        status, _, payload = _get_json(api.port, "/metricz")
        assert status == 200 and "http.requests" in payload
        status, _, body = _get(api.port, "/metricz?format=text")
        assert status == 200 and b"http.requests" in body
        status, _, body = _get(api.port, "/metricz?format=prometheus")
        assert status == 200 and b"# TYPE" in body


class TestTracez:
    def test_full_pipeline_trace_is_visible(self, traced_api):
        """Acceptance: at sampling 1.0 a snippet's trace covers the feed
        pull, queue wait, shard integration, and WAL append, and the
        view refresh + HTTP read appear as their own traces."""
        api, _, _ = traced_api
        _get(api.port, "/stories")  # ensure at least one http trace
        status, _, payload = _get_json(api.port, "/tracez?limit=100")
        assert status == 200
        assert payload["enabled"] and payload["sample_rate"] == 1.0
        by_name = {}
        for trace in payload["recent"]:
            by_name.setdefault(trace["name"], trace)
        assert {"ingest", "view.refresh", "http.request"} <= set(by_name)
        ingest_spans = {s["name"] for s in by_name["ingest"]["spans"]}
        assert {"ingest", "feed.pull", "queue.wait", "shard.integrate",
                "wal.append"} <= ingest_spans
        # span tree is complete: every parent_id resolves in the trace
        ids = {s["span_id"] for s in by_name["ingest"]["spans"]}
        assert all(
            s["parent_id"] in ids
            for s in by_name["ingest"]["spans"]
            if s["parent_id"] is not None
        )
        assert payload["stages"]["shard.integrate"]["p95"] is not None
        assert payload["slow_traces"]

    def test_limit_must_be_a_positive_integer(self, traced_api):
        """A zero or negative limit once sliced the ring from the wrong
        end (every trace, or all but the oldest few) and a non-integer
        one silently became 20; all of them are client errors."""
        api, _, span_store = traced_api
        assert len(span_store.traces(limit=span_store.max_traces)) > 3
        for bad in ("0", "-3", "abc", "2.5"):
            status, _, payload = _get_json(api.port, f"/tracez?limit={bad}")
            assert status == 400, bad
            assert "limit" in payload["error"]
        status, _, payload = _get_json(api.port, "/tracez?limit=3")
        assert status == 200
        assert len(payload["recent"]) == 3

    def test_view_refresh_links_ingest_traces(self, traced_api):
        api, _, span_store = traced_api
        refresh = next(
            t for t in span_store.traces(limit=200)
            if t["name"] == "view.refresh"
        )
        root = next(
            s for s in refresh["spans"] if s["parent_id"] is None
        )
        assert root["attrs"]["links"]
        assert root["attrs"]["generation"] >= 1

    def test_view_carries_its_build_trace_id(self, traced_api):
        api, _, _ = traced_api
        assert api.store.current().trace_id


class TestStoryz:
    def test_per_source_story_history(self, traced_api):
        api, runtime, _ = traced_api
        story_id = runtime.decisions.story_ids()[0]
        status, _, payload = _get_json(
            api.port, f"/storyz/{story_id}/history"
        )
        assert status == 200
        assert payload["story_id"] == story_id
        assert payload["num_events"] == len(payload["events"])
        assert payload["events"][0]["event"] in (
            "created", "restored", "split"
        )
        assert payload["formatted"]

    def test_aligned_story_history_merges_members(self, traced_api):
        api, _, _ = traced_api
        _, _, stories = _get_json(api.port, "/stories")
        multi = next(
            s for s in stories["stories"] if s["num_sources"] > 1
        )
        from urllib.parse import quote

        status, _, payload = _get_json(
            api.port, f"/storyz/{quote(multi['id'])}/history"
        )
        assert status == 200
        assert payload["aligned"]
        seqs = [e["seq"] for e in payload["events"]]
        assert seqs == sorted(seqs)
        assert len({e["source_id"] for e in payload["events"]}) > 1

    def test_unknown_story_404(self, traced_api):
        api, _, _ = traced_api
        status, _, payload = _get_json(api.port, "/storyz/zzz/history")
        assert status == 404
        status, _, _ = _get_json(api.port, "/storyz")
        assert status == 404

    def test_no_decision_log_is_a_clean_404(self):
        corpus = mh17_corpus()
        result = StoryPivot(demo_config()).run(corpus)
        store = ViewStore(dataset=corpus.name)
        store.install(result, corpus=corpus)
        with StoryPivotAPI(store, port=0) as api:
            status, _, payload = _get_json(api.port, "/storyz/x/history")
            assert status == 404
            assert "no decision log" in payload["error"]


class TestErrorPromotion:
    def test_http_error_trace_is_exported_at_zero_sampling(self):
        """A handler crash must surface in /tracez even when sampling is
        off — error traces are promoted past the head decision."""
        corpus = mh17_corpus()
        result = StoryPivot(demo_config()).run(corpus)
        store = ViewStore(dataset=corpus.name)
        view = store.install(result, corpus=corpus)
        span_store = SpanStore()
        tracer = Tracer(sample_rate=0.0, store=span_store)
        view.story_details = None  # force a rendering crash
        with StoryPivotAPI(store, port=0, tracer=tracer) as api:
            status, _, _ = _get(api.port, "/stories/whatever")
            assert status == 500
            status, _, payload = _get_json(api.port, "/tracez")
            assert status == 200
        errors = [t for t in payload["recent"] if t["error"]]
        assert errors
        assert errors[0]["name"] == "http.request"
