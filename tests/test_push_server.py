"""HTTP integration tests for ``/subscribez`` (SSE + long-poll).

The deterministic trick throughout: the ``limit=N`` query parameter
makes the SSE stream end itself after N *data* events, so a plain
``http.client`` GET returns a complete, parseable body — no socket
surgery, no timing-based kills.  Where events must be published after
the subscription lands, the request runs in a thread and the test gates
on ``bus.num_subscribers``.
"""

import http.client
import json
import os
import threading
import time

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.eventdata.eventregistry import ResilientFeed
from repro.eventdata.handcrafted import demo_config
from repro.obs.decisions import DecisionLog
from repro.push import EventBus
from repro.recordlog import RecordLog
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime
from repro.server import StoryPivotAPI, ViewStore


def _get(port, path, headers=None, timeout=10):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body
    finally:
        conn.close()


def parse_sse(body):
    """SSE body -> list of {"id", "event", "data"} frames (comments skipped)."""
    frames = []
    for block in body.decode("utf-8").split("\n\n"):
        frame = {}
        for line in block.splitlines():
            if line.startswith(":"):
                continue  # heartbeat comment
            field, _, value = line.partition(":")
            frame[field] = value.strip()
        if "event" in frame:
            if "data" in frame:
                frame["data"] = json.loads(frame["data"])
            frames.append(frame)
    return frames


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def push_api(two_source_corpus):
    result = StoryPivot(demo_config()).run(two_source_corpus)
    store = ViewStore(dataset=two_source_corpus.name)
    view = store.install(result, corpus=two_source_corpus)
    decisions = DecisionLog(capacity=64)
    metrics = MetricsRegistry()
    bus = EventBus(metrics=metrics).attach(decisions)
    bus.note_view(view)
    api = StoryPivotAPI(
        store, port=0, metrics=metrics, decisions=decisions, bus=bus
    )
    with api:
        yield api, bus, decisions


def subscribe_async(port, path, headers=None):
    """GET an SSE stream in a thread; returns a result-holder dict."""
    done = {"status": None, "headers": None, "frames": None}

    def run():
        status, resp_headers, body = _get(port, path, headers)
        done["status"] = status
        done["headers"] = resp_headers
        done["frames"] = parse_sse(body)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    done["thread"] = thread
    return done


class TestSSE:
    def test_live_stream_delivers_decisions(self, push_api):
        api, bus, decisions = push_api
        result = subscribe_async(api.port, "/subscribez?limit=2")
        assert wait_for(lambda: bus.num_subscribers == 1)
        decisions.record("created", "a/c000009", snippet_id="a:9", score=0.7)
        decisions.record("extended", "a/c000009", snippet_id="a:10")
        result["thread"].join(timeout=10)
        assert result["status"] == 200
        assert result["headers"]["Content-Type"].startswith(
            "text/event-stream"
        )
        assert "X-StoryPivot-Subscription" in result["headers"]
        frames = result["frames"]
        assert [f["event"] for f in frames] == ["hello", "created", "extended"]
        created = frames[1]
        assert created["data"]["story_id"] == "a/c000009"
        assert created["data"]["score"] == 0.7
        # SSE id is <generation>-<cursor>: the client's resume coordinate
        generation, _, cursor = created["id"].partition("-")
        assert int(generation) == bus.generation
        assert int(cursor) == created["data"]["cursor"]
        assert bus.num_subscribers == 0  # server-side cleanup on limit

    def test_resume_replays_exactly_the_gap(self, push_api):
        api, bus, decisions = push_api
        for i in range(6):
            decisions.record("created", f"a/c{i:06d}", snippet_id=f"a:{i}")
        # "reconnect" claiming we saw through cursor 3 (control frames
        # count no cursor: data cursors are the decisions' seqs)
        last_seen = bus.latest_cursor - 3
        status, headers, body = _get(
            api.port,
            "/subscribez?limit=3",
            headers={"Last-Event-ID": f"{bus.generation}-{last_seen}"},
        )
        assert status == 200
        frames = parse_sse(body)
        assert frames[0]["event"] == "hello"
        replayed = [f["data"]["cursor"] for f in frames[1:]]
        assert replayed == [last_seen + 1, last_seen + 2, last_seen + 3]

    def test_pruned_cursor_gets_reset_event(self, push_api):
        api, bus, decisions = push_api
        for i in range(80):  # the log's ring holds 64: cursor 1 is pruned
            decisions.record("created", f"a/c{i:06d}")
        result = subscribe_async(
            api.port, "/subscribez?cursor=1&limit=1"
        )
        assert wait_for(lambda: bus.num_subscribers == 1)
        decisions.record("created", "a/c999999")
        result["thread"].join(timeout=10)
        kinds = [f["event"] for f in result["frames"]]
        assert kinds == ["hello", "reset", "created"]
        reset = result["frames"][1]["data"]
        assert reset["generation"] == bus.generation

    def test_source_filter_over_http(self, push_api):
        api, bus, decisions = push_api
        result = subscribe_async(api.port, "/subscribez?source=b&limit=1")
        assert wait_for(lambda: bus.num_subscribers == 1)
        decisions.record("created", "a/c000101")
        decisions.record("created", "b/c000102")
        result["thread"].join(timeout=10)
        data = [f for f in result["frames"] if f["event"] == "created"]
        assert [f["data"]["source_id"] for f in data] == ["b"]

    def test_story_filter_over_http(self, push_api):
        api, bus, decisions = push_api
        result = subscribe_async(
            api.port, "/subscribez?story=a/c000200&limit=2"
        )
        assert wait_for(lambda: bus.num_subscribers == 1)
        decisions.record("created", "a/c000200")
        decisions.record("created", "a/c000201")  # filtered out
        decisions.record("merged", "a/c000201", absorbed="a/c000200")
        result["thread"].join(timeout=10)
        kinds = [(f["event"], f["data"].get("story_id"))
                 for f in result["frames"][1:]]
        assert kinds == [
            ("created", "a/c000200"),
            ("merged", "a/c000201"),  # the merge that absorbs our story
        ]

    def test_drain_sends_goodbye_and_closes_stream(self, push_api):
        api, bus, decisions = push_api
        results = [
            subscribe_async(api.port, "/subscribez") for _ in range(3)
        ]
        assert wait_for(lambda: bus.num_subscribers == 3)
        decisions.record("created", "a/c000300")
        api.close()  # graceful drain: bus goodbyes before sockets die
        for result in results:
            result["thread"].join(timeout=10)
            assert result["frames"], "stream should end with a body"
            assert result["frames"][-1]["event"] == "goodbye"
            assert result["frames"][-1]["data"]["reason"] == "drain"
        assert bus.num_subscribers == 0

    def test_bad_policy_rejected_400(self, push_api):
        api, _, _ = push_api
        status, _, body = _get(api.port, "/subscribez?policy=bogus")
        assert status == 400
        assert "policy" in json.loads(body)["error"]

    def test_subscribez_404_without_bus(self, two_source_corpus):
        result = StoryPivot(demo_config()).run(two_source_corpus)
        store = ViewStore(dataset=two_source_corpus.name)
        store.install(result, corpus=two_source_corpus)
        with StoryPivotAPI(store, port=0) as api:
            status, _, _ = _get(api.port, "/subscribez")
            assert status == 404


class TestLongPoll:
    def test_poll_mode_returns_json_batch(self, push_api):
        api, bus, decisions = push_api
        for i in range(4):
            decisions.record("created", f"a/c{i:06d}")
        status, _, body = _get(
            api.port, "/subscribez?mode=poll&cursor=0"
        )
        assert status == 200
        payload = json.loads(body)
        assert not payload["reset"]
        kinds = [e["event"] for e in payload["events"]]
        assert kinds == ["created"] * 4
        assert payload["next_cursor"] == bus.latest_cursor

        # quoting next_cursor returns only what happened since
        decisions.record("extended", "a/c000000")
        status, _, body = _get(
            api.port,
            f"/subscribez?mode=poll&cursor={payload['next_cursor']}",
        )
        follow_up = json.loads(body)
        assert [e["event"] for e in follow_up["events"]] == ["extended"]

    def test_poll_mode_pruned_cursor_resets(self, push_api):
        api, bus, decisions = push_api
        for i in range(80):
            decisions.record("created", f"a/c{i:06d}")
        status, _, body = _get(
            api.port, "/subscribez?mode=poll&cursor=2"
        )
        payload = json.loads(body)
        assert payload["reset"] and payload["events"] == []
        assert payload["generation"] == bus.generation

    def test_poll_mode_respects_filters(self, push_api):
        api, _, decisions = push_api
        decisions.record("created", "a/c000400")
        decisions.record("created", "b/c000401")
        status, _, body = _get(
            api.port, "/subscribez?mode=poll&cursor=0&source=b"
        )
        events = json.loads(body)["events"]
        # the generation control event bypasses filters by design
        data = [e for e in events if e["event"] == "created"]
        assert [e["source_id"] for e in data] == ["b"]


class TestMetricsExposure:
    def test_subscriber_metrics_visible_on_metricz(self, push_api):
        api, bus, decisions = push_api
        result = subscribe_async(api.port, "/subscribez?limit=1")
        assert wait_for(lambda: bus.num_subscribers == 1)
        status, _, body = _get(api.port, "/metricz")
        assert status == 200
        metrics = json.loads(body)
        assert metrics["push.subscribers"]["value"] == 1
        [depth_key] = [k for k in metrics if k.startswith("push.queue_depth")]
        assert metrics[depth_key]["type"] == "gauge"
        decisions.record("created", "a/c000500")
        result["thread"].join(timeout=10)
        # after the stream ends its per-subscriber gauges must not leak
        status, _, body = _get(api.port, "/metricz")
        metrics = json.loads(body)
        assert not any(k.startswith("push.queue_depth{") for k in metrics)
        assert metrics["push.delivered"]["value"] >= 1


class TestChaosReconciliation:
    @pytest.mark.parametrize("seed", [3, 42])
    def test_delivered_events_reconcile_with_decision_log(
        self, small_synthetic, seed
    ):
        """Chaos leg: under the ``default`` fault profile (reorders,
        duplicates, transient poisons) a lossless subscriber's delivered
        stream is exactly the decision log — same events, same order —
        because the bus tails the log itself, not the faulty feed."""
        from repro.resilience.faults import FaultInjector

        runtime = ShardedRuntime(
            StoryPivotConfig(), RuntimeOptions(num_shards=2)
        ).start()
        bus = EventBus(queue_capacity=65536).attach(runtime.decisions)
        sub = bus.subscribe()
        injector = FaultInjector(
            seed=seed, profile="default", metrics=runtime.metrics
        )
        for shard in runtime._shards:
            shard.fault_hook = injector.shard_fault_hook(shard.shard_id)
        try:
            feed = ResilientFeed(
                injector.wrap_feed(
                    small_synthetic.snippets_by_publication(), site="feed"
                ),
                name="feed",
            )
            runtime.consume(feed)
            runtime.flush()
        finally:
            runtime.stop()
        log_events = runtime.decisions.events()
        assert log_events, "chaos run must still record decisions"

        delivered = []
        while True:
            event = sub.pop(timeout=0.0)
            if event is None:
                break
            if event["event"] not in ("hello", "generation"):
                delivered.append(event)
        assert sub.dropped == 0, "lossless subscriber must not drop"
        assert [e["seq"] for e in delivered] == [
            e["seq"] for e in log_events
        ]
        assert [e["event"] for e in delivered] == [
            e["event"] for e in log_events
        ]
        # cursors are gapless: nothing was lost between log and bus
        cursors = [e["cursor"] for e in delivered]
        assert cursors == list(range(cursors[0], cursors[0] + len(cursors)))


def read_data(sub):
    """The decisions a subscription holds now (control frames dropped)."""
    events = []
    while True:
        event = sub.pop(timeout=0.0)
        if event is None:
            return events
        if event["event"] not in ("hello", "generation", "reset"):
            events.append(event)


class TestRestartResume:
    @pytest.mark.parametrize("ring,resume_from", [
        (20000, "before the restart"),
        (16, "after the restart, older than the ring"),
    ])
    def test_cursor_resumes_across_a_restart(
        self, tmp_path, small_synthetic, ring, resume_from
    ):
        """A cursor read before a restart on the same ``wal_dir``, or one
        older than the log's ring, resumes from ``decisions.jsonl``:
        exactly its entries after the cursor, in order, no ``reset``."""
        wal_dir = str(tmp_path)
        path = os.path.join(wal_dir, "decisions.jsonl")
        snippets = list(small_synthetic.snippets_by_publication())
        half = len(snippets) // 2

        def ingest(runtime, part):
            bus = EventBus(queue_capacity=65536).attach(runtime.decisions)
            sub = bus.subscribe()
            try:
                for snippet in part:
                    runtime.offer(snippet)
                runtime.flush()
            finally:
                runtime.stop()
            return bus, read_data(sub)

        _, before = ingest(ShardedRuntime(
            StoryPivotConfig(),
            RuntimeOptions(num_shards=2, wal_dir=wal_dir),
            decisions=DecisionLog(capacity=ring, path=path),
        ).start(), snippets[:half])
        bus, after = ingest(ShardedRuntime.resume(
            wal_dir, decisions=DecisionLog(capacity=ring, path=path),
        ), snippets[half:])
        if resume_from == "before the restart":
            last = before[len(before) // 2]["cursor"]
        else:
            last = after[2]["cursor"]
        expected = [e for e in RecordLog(path).read() if e["seq"] > last]
        assert len(expected) > min(ring, len(after))

        resumed = bus.subscribe(last_cursor=last, queue_capacity=65536)
        first = resumed.pop(timeout=0.0)
        assert first["event"] == "hello"
        replayed = read_data(resumed)
        assert resumed.dropped == 0
        assert [e["cursor"] for e in replayed] == [e["seq"] for e in expected]
        strip = ("cursor", "generation")
        assert [
            {k: v for k, v in e.items() if k not in strip} for e in replayed
        ] == expected

        polled, cursor = [], last
        while True:
            # pages smaller than the gap: some end inside the file's part
            payload = bus.poll(cursor, limit=50)
            assert not payload["reset"]
            if not payload["events"]:
                break
            polled.extend(payload["events"])
            cursor = payload["next_cursor"]
        assert [(e["seq"], e["cursor"]) for e in polled] == [
            (e["seq"], e["seq"]) for e in expected
        ]
