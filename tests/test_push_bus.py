"""Unit tests for repro.push: bus, filters, resume, backpressure."""

import json
import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro import recordlog

from repro.core.pipeline import StoryPivot
from repro.eventdata.handcrafted import demo_config
from repro.obs.decisions import DecisionLog
from repro.push import EventBus, PushError
from repro.push.transport import format_sse, parse_last_event_id
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.queues import QueueClosed
from repro.recordlog import TAIL, RecordLog
from repro.server.views import ReadView, canonicalize_result_ids


def drain_sub(sub, timeout=0.2):
    """Pop everything currently available from a subscription."""
    events = []
    while True:
        try:
            event = sub.pop(timeout=0.0 if events else timeout)
        except QueueClosed:
            break
        if event is None:
            break
        events.append(event)
    return events


def data_events(events):
    return [e for e in events if e["event"] not in
            ("hello", "goodbye", "reset", "generation")]


class TestBusDelivery:
    def test_decision_events_fan_out_with_cursors(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        sub = bus.subscribe()
        log.record("created", "a/c000001", snippet_id="s1", score=0.9)
        log.record("extended", "a/c000001", snippet_id="s2")
        events = drain_sub(sub)
        assert events[0]["event"] == "hello"
        kinds = [e["event"] for e in data_events(events)]
        assert kinds == ["created", "extended"]
        cursors = [e["cursor"] for e in data_events(events)]
        assert cursors == [1, 2]
        assert data_events(events)[0]["story_id"] == "a/c000001"

    def test_detach_stops_the_tail(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        sub = bus.subscribe()
        log.record("created", "a/c000001")
        bus.detach()
        log.record("created", "a/c000002")
        assert len(data_events(drain_sub(sub))) == 1

    def test_multiple_subscribers_each_get_every_event(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        subs = [bus.subscribe() for _ in range(5)]
        for i in range(3):
            log.record("created", f"a/c{i:06d}")
        for sub in subs:
            assert len(data_events(drain_sub(sub))) == 3


class TestDeliveryOrder:
    def test_a_stalled_recorder_cannot_reorder_the_stream(self):
        """Seq 1 is numbered first but its recording thread stalls in an
        earlier listener while seq 2 is recorded: the subscriber still
        reads 1 then 2, each with ``cursor == seq``."""
        log = DecisionLog()
        entered, release = threading.Event(), threading.Event()

        def stall(entry):
            if entry["seq"] == 1:
                entered.set()
                release.wait(timeout=10.0)

        log.add_listener(stall)
        bus = EventBus().attach(log)
        sub = bus.subscribe()
        first = threading.Thread(
            target=log.record, args=("created", "a/c000001"), daemon=True
        )
        first.start()
        assert entered.wait(timeout=10.0)
        log.record("created", "b/c000002")
        release.set()
        first.join(timeout=10.0)
        events = data_events(drain_sub(sub))
        assert [(e["seq"], e["cursor"]) for e in events] == [(1, 1), (2, 2)]


class TestResume:
    def test_resume_replays_exactly_the_gap(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        first = bus.subscribe()
        for i in range(6):
            log.record("created", f"a/c{i:06d}")
        seen = data_events(drain_sub(first))
        last_cursor = seen[2]["cursor"]  # "disconnect" after the third

        resumed = bus.subscribe(last_cursor=last_cursor)
        replay = data_events(drain_sub(resumed))
        assert [e["cursor"] for e in replay] == [
            e["cursor"] for e in seen[3:]
        ]
        assert [e["story_id"] for e in replay] == [
            e["story_id"] for e in seen[3:]
        ]

    def test_resume_interleaves_with_live_without_gap_or_dup(self):
        """Replay preload and live fan-out share one lock window: a
        publisher racing the subscribe can't deliver twice or be missed."""
        log = DecisionLog()
        bus = EventBus(queue_capacity=4096).attach(log)
        total = 300

        def pump():
            for i in range(total):
                log.record("created", f"p/c{i:06d}")

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        try:
            time.sleep(0.005)  # subscribe lands mid-publish-storm
            sub = bus.subscribe(last_cursor=0)
        finally:
            thread.join(timeout=10.0)
        cursors = [e["cursor"] for e in data_events(drain_sub(sub))]
        # exactly-once: replay preload + live delivery cover every event
        # with no gap and no duplicate, wherever the subscribe landed
        assert cursors == list(range(1, total + 1))

    def test_pruned_cursor_yields_reset(self):
        log = DecisionLog(capacity=4)
        bus = EventBus().attach(log)
        for i in range(12):
            log.record("created", f"a/c{i:06d}")
        sub = bus.subscribe(last_cursor=1)
        events = drain_sub(sub)
        assert [e["event"] for e in events] == ["hello", "reset"]
        assert events[1]["generation"] == bus.generation

    def test_future_cursor_from_previous_lifetime_resets(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        log.record("created", "a/c000001")
        sub = bus.subscribe(last_cursor=999)
        assert [e["event"] for e in drain_sub(sub)] == ["hello", "reset"]

    def test_gap_wider_than_queue_capacity_resets(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        for i in range(50):
            log.record("created", f"a/c{i:06d}")
        sub = bus.subscribe(last_cursor=0, queue_capacity=8)
        assert [e["event"] for e in drain_sub(sub)] == ["hello", "reset"]

    def test_resume_counts_in_metrics(self):
        metrics = MetricsRegistry()
        log = DecisionLog(capacity=4)
        bus = EventBus(metrics=metrics).attach(log)
        log.record("created", "a/c000000")
        bus.subscribe(last_cursor=0)
        for i in range(12):
            log.record("created", f"a/c{i + 1:06d}")
        bus.subscribe(last_cursor=1)
        assert metrics.counter("push.resumes").value == 1
        assert metrics.counter("push.resets").value == 1


class TestBackpressure:
    def test_slow_drop_client_sheds_exactly_the_overflow(self):
        metrics = MetricsRegistry()
        log = DecisionLog()
        bus = EventBus(metrics=metrics).attach(log)
        slow = bus.subscribe(queue_capacity=4, policy="drop")
        for i in range(20):
            log.record("created", f"a/c{i:06d}")
        # deterministic accounting: capacity minus the hello preload
        # survives, everything else is counted as dropped
        assert slow.depth == 4
        assert slow.dropped == 20 - (4 - 1)
        assert metrics.counter("push.dropped").value == slow.dropped
        assert (
            metrics.counter("push.delivered").value
            + metrics.counter("push.dropped").value
            == 20
        )

    def test_sample_policy_keeps_a_trickle(self):
        log = DecisionLog()
        bus = EventBus(sample_every=5, put_timeout=0.01).attach(log)
        slow = bus.subscribe(queue_capacity=2, policy="sample")
        # fill the queue (hello + 1), then overflow repeatedly without
        # consuming: every 5th overflow *blocks* for space and times out,
        # the rest drop instantly — either way the publisher never stalls
        # longer than put_timeout
        for i in range(12):
            log.record("created", f"a/c{i:06d}")
        assert slow.depth == 2
        assert slow.dropped == 12 - 1
        assert slow.queue.overflows == 11

    def test_blocked_publisher_is_bounded_by_put_timeout(self):
        log = DecisionLog()
        bus = EventBus(put_timeout=0.05).attach(log)
        bus.subscribe(queue_capacity=2, policy="block")
        started = time.perf_counter()
        for i in range(4):  # 2 fit (1 slot + 1 freed by nothing) -> waits
            log.record("created", f"a/c{i:06d}")
        elapsed = time.perf_counter() - started
        # 3 overflowing publishes wait at most put_timeout each; a
        # convoying (unbounded) block would hang this test forever
        assert elapsed < 1.0

    def test_healthy_subscriber_unaffected_by_stalled_one(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        stalled = bus.subscribe(queue_capacity=2, policy="drop")
        healthy = bus.subscribe(queue_capacity=4096)
        for i in range(100):
            log.record("created", f"a/c{i:06d}")
        assert len(data_events(drain_sub(healthy))) == 100
        assert stalled.dropped == 100 - 1


class TestFilters:
    def _bus(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        return log, bus

    def test_story_filter(self):
        log, bus = self._bus()
        sub = bus.subscribe(story="a/c000001")
        log.record("created", "a/c000001")
        log.record("created", "a/c000002")
        log.record("extended", "a/c000001", snippet_id="x")
        events = data_events(drain_sub(sub))
        assert [e["story_id"] for e in events] == ["a/c000001", "a/c000001"]

    def test_story_filter_sees_the_merge_that_absorbs_it(self):
        log, bus = self._bus()
        sub = bus.subscribe(story="a/c000002")
        log.record("merged", "a/c000001", absorbed="a/c000002")
        events = data_events(drain_sub(sub))
        assert len(events) == 1 and events[0]["event"] == "merged"

    def test_source_filter(self):
        log, bus = self._bus()
        sub = bus.subscribe(source="b")
        log.record("created", "a/c000001")
        log.record("created", "b/c000002")
        events = data_events(drain_sub(sub))
        assert [e["source_id"] for e in events] == ["b"]

    def test_filters_and_together(self):
        log, bus = self._bus()
        sub = bus.subscribe(story="a/c000001", source="b")
        log.record("created", "a/c000001")  # story yes, source no
        log.record("created", "b/c000009")  # source yes, story no
        assert data_events(drain_sub(sub)) == []

    def test_entity_filter_via_view_index(self, two_source_corpus):
        log, bus = self._bus()
        result = StoryPivot(demo_config()).run(two_source_corpus)
        view = ReadView(result, generation=1)
        bus.note_view(view)
        # "IND" tags the flood story in both sources; FRA the election
        flood_story = next(
            sid for sid, aid in result.alignment.story_to_aligned.items()
            if "ind" in {
                e.lower()
                for e in result.alignment.aligned[aid].entity_profile()
            }
        )
        sub = bus.subscribe(entity="IND")
        other = bus.subscribe(entity="nosuchentity")
        log.record("extended", flood_story, snippet_id="x")
        assert len(data_events(drain_sub(sub))) == 1
        assert data_events(drain_sub(other)) == []

    def test_story_filter_matches_aligned_id(self, two_source_corpus):
        log, bus = self._bus()
        result = StoryPivot(demo_config()).run(two_source_corpus)
        view = ReadView(result, generation=1)
        bus.note_view(view)
        member, aligned_id = next(
            iter(result.alignment.story_to_aligned.items())
        )
        sub = bus.subscribe(story=aligned_id)
        log.record("extended", member, snippet_id="x")
        assert len(data_events(drain_sub(sub))) == 1

    def test_generation_event_reaches_filtered_subscribers(
        self, two_source_corpus
    ):
        log, bus = self._bus()
        sub = bus.subscribe(story="no/such")
        result = StoryPivot(demo_config()).run(two_source_corpus)
        bus.note_view(ReadView(result, generation=7))
        events = drain_sub(sub)
        assert [e["event"] for e in events] == ["hello", "generation"]
        assert events[1]["generation"] == 7
        assert bus.generation == 7


class TestPoll:
    def test_poll_returns_matching_batch(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        for i in range(5):
            log.record("created", f"a/c{i:06d}")
        payload = bus.poll(2, limit=2)
        assert not payload["reset"]
        assert [e["cursor"] for e in payload["events"]] == [3, 4]
        assert payload["next_cursor"] == 4
        rest = bus.poll(payload["next_cursor"])
        assert [e["cursor"] for e in rest["events"]] == [5]

    def test_poll_pruned_cursor_resets(self):
        log = DecisionLog(capacity=4)
        bus = EventBus().attach(log)
        for i in range(12):
            log.record("created", f"a/c{i:06d}")
        payload = bus.poll(1)
        assert payload["reset"] and payload["events"] == []
        assert payload["next_cursor"] == bus.latest_cursor

    def test_poll_without_a_match_moves_past_what_it_read(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        for i in range(5):
            log.record("created", f"a/c{i:06d}")
        payload = bus.poll(1, source="b")
        assert payload["events"] == [] and not payload["reset"]
        assert payload["next_cursor"] == 5

    def test_poll_waits_for_first_event(self):
        log = DecisionLog()
        bus = EventBus().attach(log)

        def publish_later():
            time.sleep(0.05)
            log.record("created", "a/c000001")

        thread = threading.Thread(target=publish_later, daemon=True)
        thread.start()
        payload = bus.poll(0, timeout=5.0)
        thread.join(timeout=5.0)
        assert [e["cursor"] for e in payload["events"]] == [1]

    def test_poll_timeout_empty(self):
        bus = EventBus()
        payload = bus.poll(0, timeout=0.01)
        assert payload["events"] == [] and not payload["reset"]


def decision_line(seq):
    return json.dumps({
        "event": "created", "seq": seq, "snippet_id": f"n{seq}",
        "source_id": f"s{seq % 3}", "story_id": f"s{seq % 3}/c{seq:06d}",
    }, sort_keys=True) + "\n"


def linear_older(bus, after, matches, most):
    """The gap reader as a scan of ``decisions.jsonl`` from the top: the
    oracle the bisecting reader must equal."""
    held, newest = bus._since(after)
    if after > newest:
        return None
    if (held[0]["seq"] if held else newest + 1) == after + 1:
        return [], after
    found, through = [], after
    for entry in RecordLog(bus._decisions.path).read(TAIL):
        seq = entry.get("seq", 0)
        if seq <= after:
            continue
        if seq != through + 1:
            return None
        through = seq
        if matches(entry):
            found.append(entry)
            if len(found) >= most:
                break
    return (found, through) if through > after else None


class TestOlderGap:
    """A gap older than the log's ring is read from ``decisions.jsonl``
    starting at a bisected offset, not from the top."""

    def test_bisected_read_equals_the_linear_scan_at_every_cursor(
        self, tmp_path
    ):
        path = str(tmp_path / "decisions.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(decision_line(seq) for seq in range(1, 31))
            fh.write('{"seq": 31, "event": "crea\n')  # torn, then reopened
            fh.write("[1, 2]\n")                       # not an object
            fh.write('{"event": "created"}\n')         # no seq
            fh.write("\n")
            fh.writelines(decision_line(seq) for seq in range(31, 51))
            fh.writelines(decision_line(seq) for seq in range(55, 71))  # gap
        log = DecisionLog(capacity=4, path=path)
        bus = EventBus().attach(log)
        for i in range(4):
            log.record("created", f"s1/c9{i:05d}")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(decision_line(75).rstrip("\n"))  # an append racing us
        matchers = [
            lambda entry: True,
            bus._matcher(None, None, "s1"),
            bus._matcher(None, None, "nobody"),
        ]
        reader = RecordLog(path)
        everything = list(reader.read(TAIL))
        for after in range(0, 80):
            offset = reader.offset_after(after)
            with open(path, "rb") as fh:
                assert offset == 0 or fh.read(offset).endswith(b"\n")
            # reading from the offset loses nothing numbered past the cursor
            assert [
                e for e in reader.read(TAIL, start=offset)
                if e.get("seq", 0) > after
            ] == [e for e in everything if e.get("seq", 0) > after]
            for matches in matchers:
                for most in (1, 3, 100):
                    assert bus._older(after, matches, most) == linear_older(
                        bus, after, matches, most
                    ), (after, most)

    def test_an_old_cursor_parses_a_page_not_the_file(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "decisions.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(decision_line(seq) for seq in range(1, 5001))
        log = DecisionLog(capacity=4, path=path)
        bus = EventBus().attach(log)
        log.record("created", "s1/c999999")
        parsed = []

        def loads(text):
            parsed.append(text)
            return json.loads(text)

        monkeypatch.setattr(
            recordlog, "json", SimpleNamespace(loads=loads, dumps=json.dumps)
        )
        payload = bus.poll(4900, limit=100)
        assert [e["cursor"] for e in payload["events"]] == list(
            range(4901, 5001)
        )
        # ~13 bisection probes plus the page, where a scan from the top
        # parses all 5,000 lines
        assert len(parsed) < 200, len(parsed)


class TestDrain:
    def test_drain_delivers_goodbye_and_closes_every_queue(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        subs = [bus.subscribe() for _ in range(4)]
        log.record("created", "a/c000001")
        bus.drain()
        for sub in subs:
            events = drain_sub(sub)
            assert events[-1]["event"] == "goodbye"
            with pytest.raises(QueueClosed):
                sub.pop(timeout=0.1)
        assert bus.num_subscribers == 0

    def test_goodbye_reaches_a_full_slow_queue(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        slow = bus.subscribe(queue_capacity=2, policy="drop")
        for i in range(10):
            log.record("created", f"a/c{i:06d}")
        bus.drain()
        events = drain_sub(slow)
        assert events[-1]["event"] == "goodbye"

    def test_drained_bus_refuses_new_subscriptions(self):
        bus = EventBus()
        bus.drain()
        with pytest.raises(PushError) as excinfo:
            bus.subscribe()
        assert excinfo.value.status == 503

    def test_drain_is_idempotent_and_stops_publishing(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        bus.drain()
        bus.drain()
        log.record("created", "a/c000001")
        assert bus.latest_cursor == 0

    def test_subscriber_cap_rejects_with_503(self):
        bus = EventBus(max_subscribers=2)
        bus.subscribe()
        bus.subscribe()
        with pytest.raises(PushError) as excinfo:
            bus.subscribe()
        assert excinfo.value.status == 503


class TestObservability:
    def test_publish_errors_are_counted_not_raised(self):
        metrics = MetricsRegistry()
        log = DecisionLog()
        bus = EventBus(metrics=metrics).attach(log)

        def boom(event):
            raise RuntimeError("listener bug")

        bus._publish = boom  # simulate an internal fan-out failure
        entry = log.record("created", "a/c000001")  # must not raise
        assert entry["seq"] == 1
        assert metrics.counter("push.publish_errors").value == 1

    def test_per_subscriber_gauges_appear_and_disappear(self):
        metrics = MetricsRegistry()
        log = DecisionLog()
        bus = EventBus(metrics=metrics).attach(log)
        sub = bus.subscribe(queue_capacity=4, policy="drop")
        for i in range(10):
            log.record("created", f"a/c{i:06d}")
        bus.refresh_metrics()
        key = f"push.queue_depth{{sub={sub.id}}}"
        assert key in metrics.names()
        assert metrics.gauge("push.queue_depth", sub=sub.id).value == 4
        assert metrics.gauge("push.dropped_events", sub=sub.id).value > 0
        assert metrics.gauge("push.lag_events", sub=sub.id).value == 10
        bus.unsubscribe(sub)
        assert key not in metrics.names()

    def test_stats_surface(self):
        log = DecisionLog()
        bus = EventBus().attach(log)
        sub = bus.subscribe(story="a/c000001")
        log.record("created", "a/c000001")
        stats = bus.stats()
        assert stats["published"] == 1 and stats["cursor"] == 1
        [row] = stats["subscribers"]
        assert row["story"] == "a/c000001" and row["delivered"] == 2
        assert row["id"] == sub.name


class TestTransportHelpers:
    def test_last_event_id_roundtrip(self):
        event = {"cursor": 42, "generation": 7, "event": "created"}
        frame = format_sse(event).decode()
        assert "id: 7-42\n" in frame and "event: created\n" in frame
        assert parse_last_event_id("7-42") == 42
        assert parse_last_event_id("42") == 42
        assert parse_last_event_id("") is None
        assert parse_last_event_id(None) is None
        assert parse_last_event_id("junk") is None
        assert parse_last_event_id("5-") is None


class TestDecisionLogIntegration:
    def test_listeners_fire_after_lock_release(self):
        log = DecisionLog()
        seen = []

        def listener(entry):
            # re-entering the log from a listener must not deadlock:
            # proof the lock is not held around the callback
            log.history(entry["story_id"])
            seen.append(entry["seq"])

        log.add_listener(listener)
        log.record("created", "a/c000001")
        log.record("extended", "a/c000001")
        assert seen == [1, 2]
        log.remove_listener(listener)
        log.record("created", "a/c000002")
        assert seen == [1, 2]

    def test_alias_reaches_creation_history(self):
        log = DecisionLog()
        log.record("created", "a/c000001", snippet_id="s1")
        log.record("extended", "a/c000001", snippet_id="s2")
        log.set_aliases({"a/s000001": "a/c000001"})
        history = log.history("a/s000001")
        assert [e["event"] for e in history] == ["created", "extended"]
        # the live id still resolves too, without duplicate events
        assert len(log.history("a/c000001")) == 2

    def test_canonicalize_returns_mapping(self, two_source_corpus):
        result = StoryPivot(demo_config()).run(two_source_corpus)
        live_ids = set(result.alignment.story_to_aligned)
        mapping = canonicalize_result_ids(result)
        assert set(mapping) == live_ids
        assert set(mapping.values()) == set(
            result.alignment.story_to_aligned
        )
