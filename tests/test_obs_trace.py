"""Tracing core: sampling, propagation, the span store, profiling hooks."""

import threading

import pytest

from repro.core.config import StoryPivotConfig
from repro.obs import (
    NULL_TRACER,
    Envelope,
    SpanStore,
    Tracer,
    add_event,
    current_span,
    current_trace_id,
    head_sampled,
)
from repro.obs.profile import SlowSpanBoard
from repro.resilience.deadline import Deadline, deadline_scope
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime

from conftest import make_snippet


class TestSampler:
    def test_exact_at_zero(self):
        assert not any(
            head_sampled(f"{i:016x}", 0.0) for i in range(1000)
        )

    def test_exact_at_one(self):
        assert all(head_sampled(f"{i:016x}", 1.0) for i in range(1000))

    def test_deterministic_and_roughly_proportional(self):
        ids = [f"{i:016x}" for i in range(4000)]
        kept = [t for t in ids if head_sampled(t, 0.25)]
        assert kept == [t for t in ids if head_sampled(t, 0.25)]
        assert 0.15 < len(kept) / len(ids) < 0.35

    def test_unsampled_trace_not_stored(self):
        store = SpanStore()
        tracer = Tracer(sample_rate=0.0, store=store)
        with tracer.start_trace("work"):
            with tracer.span("inner"):
                pass
        assert store.finalized == 0

    def test_error_span_exported_despite_zero_sampling(self):
        store = SpanStore()
        tracer = Tracer(sample_rate=0.0, store=store)
        with pytest.raises(ValueError):
            with tracer.start_trace("work"):
                raise ValueError("boom")
        store.flush()
        traces = store.traces()
        assert len(traces) == 1
        assert traces[0]["error"] == "ValueError: boom"


class TestPropagation:
    def test_ambient_span_nesting(self):
        tracer = Tracer(sample_rate=1.0)
        assert current_span() is None
        with tracer.start_trace("root") as root:
            assert current_span() is root
            with tracer.span("child") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
                assert current_trace_id() == root.trace_id
            assert current_span() is root
        assert current_span() is None

    def test_span_without_parent_becomes_root(self):
        tracer = Tracer(sample_rate=1.0)
        span = tracer.span("orphan")
        assert span.parent_id is None
        span.end()

    def test_composes_with_deadline_scope(self):
        """The tracer contextvar and the deadline contextvar are
        independent: entering one scope never disturbs the other."""
        tracer = Tracer(sample_rate=1.0)
        with tracer.start_trace("root") as root:
            with deadline_scope(60.0) as deadline:
                assert current_span() is root
                assert deadline.remaining() > 0
                with tracer.span("inner") as inner:
                    assert inner.trace_id == root.trace_id
            assert current_span() is root

    def test_envelope_hands_off_across_threads(self):
        """Producer-to-consumer hand-off: the consumer attaches the
        envelope's span and children land in the producer's trace."""
        store = SpanStore()
        tracer = Tracer(sample_rate=1.0, store=store)
        root = tracer.start_trace("ingest")
        envelope = Envelope("item", root)
        seen = {}

        def consume():
            with tracer.attach(envelope.span):
                wait = tracer.span("queue.wait", start=envelope.enqueued_at)
                wait.end()
                seen["wait"] = wait
                with tracer.span("shard.integrate") as child:
                    seen["child"] = child
            envelope.span.end()

        worker = threading.Thread(target=consume)
        worker.start()
        worker.join()
        assert seen["child"].trace_id == root.trace_id
        assert seen["child"].parent_id == root.span_id
        assert seen["wait"].duration >= 0.0
        store.flush()
        (trace,) = store.traces()
        assert {s["name"] for s in trace["spans"]} == {
            "ingest", "queue.wait", "shard.integrate",
        }

    def test_cross_thread_root_has_no_cpu_time(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("ingest")
        worker = threading.Thread(target=root.end)
        worker.start()
        worker.join()
        assert root.duration is not None
        assert root.cpu_time is None  # ended on a different thread

    def test_add_event_is_noop_outside_a_span(self):
        add_event("orphan.event", detail="ignored")  # must not raise

    def test_attach_records_error_without_ending(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("work")
        with pytest.raises(RuntimeError):
            with tracer.attach(root):
                raise RuntimeError("late failure")
        assert root.error == "RuntimeError: late failure"
        assert not root.ended


class TestSpanLimits:
    def test_attr_and_event_caps(self):
        tracer = Tracer(sample_rate=1.0)
        span = tracer.start_trace("big")
        for i in range(100):
            span.set(**{f"k{i}": i})
            span.add_event("e", i=i)
        assert len(span.attrs) <= 64
        assert len(span.events) == 64
        span.end()

    def test_stopiteration_is_not_an_error(self):
        tracer = Tracer(sample_rate=1.0)
        with pytest.raises(StopIteration):
            with tracer.start_trace("pull") as span:
                raise StopIteration
        assert span.error is None

    def test_null_tracer_is_free_and_inert(self):
        span = NULL_TRACER.start_trace("anything")
        with span:
            span.set(a=1).add_event("x")
        assert span.context().trace_id == ""
        assert not NULL_TRACER.enabled


class TestSpanStore:
    def test_finalizes_on_root_and_orders_spans(self):
        store = SpanStore()
        tracer = Tracer(sample_rate=1.0, store=store)
        with tracer.start_trace("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        (trace,) = store.traces()
        assert trace["name"] == "root"
        assert not trace["partial"]
        starts = [s["started_at"] for s in trace["spans"]]
        assert starts == sorted(starts)

    def test_open_span_cap_force_finalizes_partial(self):
        store = SpanStore(max_open_spans=4)
        tracer = Tracer(sample_rate=1.0, store=store)
        roots = [tracer.start_trace(f"r{i}") for i in range(6)]
        for root in roots:
            with tracer.attach(root):
                tracer.span("child").end()  # child only; root never ends
        assert store.dropped_partial > 0
        assert any(t["partial"] for t in store.traces())

    def test_stage_breakdown_and_event_counts(self):
        store = SpanStore()
        tracer = Tracer(sample_rate=1.0, store=store)
        for _ in range(5):
            with tracer.start_trace("ingest") as root:
                root.add_event("retry", attempt=1)
        stages = store.stage_breakdown()
        assert stages["ingest"]["count"] == 5
        assert stages["ingest"]["p50"] is not None
        assert stages["ingest"]["p95"] >= stages["ingest"]["p50"]
        assert store.event_counts()["retry"] == 5

    def test_jsonl_export(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        store = SpanStore(export_path=str(path))
        tracer = Tracer(sample_rate=1.0, store=store)
        with tracer.start_trace("exported"):
            pass
        store.close()
        import json

        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "exported"

    def test_tracez_payload_shape(self):
        store = SpanStore()
        tracer = Tracer(sample_rate=1.0, store=store)
        with tracer.start_trace("t"):
            pass
        payload = store.tracez_payload(slow_board=tracer.slow)
        assert payload["finalized"] == 1
        assert payload["recent"] and payload["slow_traces"]
        assert "t" in payload["stages"]
        assert payload["slow_spans"]


class TestRuntimeTracing:
    def test_thread_runtime_emits_full_ingest_trace(self, tmp_path):
        """Acceptance: one snippet at sampling 1.0 yields a trace covering
        queue wait, shard integration, and the WAL append."""
        store = SpanStore()
        tracer = Tracer(sample_rate=1.0, store=store)
        runtime = ShardedRuntime(
            StoryPivotConfig(),
            RuntimeOptions(num_shards=1, wal_dir=str(tmp_path)),
            tracer=tracer,
        ).start()
        try:
            assert runtime.offer(make_snippet("s1:v1"))
            runtime.flush()
        finally:
            runtime.stop()
        store.flush()
        ingest = [t for t in store.traces() if t["name"] == "ingest"]
        assert ingest, "no ingest trace finalized"
        names = {s["name"] for s in ingest[0]["spans"]}
        assert {"ingest", "queue.wait", "shard.integrate",
                "wal.append"} <= names
        root = next(
            s for s in ingest[0]["spans"] if s["parent_id"] is None
        )
        assert root["attrs"]["outcome"] == "accepted"

    def test_runtime_with_null_tracer_stays_plain(self):
        runtime = ShardedRuntime(
            StoryPivotConfig(), RuntimeOptions(num_shards=1)
        ).start()
        try:
            assert runtime.offer(make_snippet("s1:v1"))
            runtime.flush()
            assert runtime.recent_traces() == []
        finally:
            runtime.stop()

    def test_stage_histograms_fed_for_unsampled_traces(self):
        metrics = MetricsRegistry()
        tracer = Tracer(sample_rate=0.0, metrics=metrics)
        with tracer.start_trace("ingest"):
            pass
        family = metrics.children("trace.stage_seconds")
        assert any("stage=ingest" in key for key in family)


class TestProfilingHooks:
    def test_slow_span_board_keeps_top_n(self):
        board = SlowSpanBoard(3)
        for i in range(10):
            board.offer(f"stage{i}", f"{i:016x}", float(i))
        top = board.top()
        assert len(top) == 3
        assert [t["duration"] for t in top] == [9.0, 8.0, 7.0]
