"""Tests for the sharded ingestion runtime: routing, options, equivalence
with a single-threaded stream, metrics, supervision and backpressure."""

import json

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.streaming import StreamProcessor
from repro.errors import ConfigurationError
from repro.runtime import RuntimeOptions, ShardedRuntime, shard_of

from tests.conftest import ONE_ATTEMPT, crash_on_dead_letter, make_snippet


def source_clusters(result):
    """source id → set of frozenset(snippet ids): shard-count invariant."""
    return {
        source_id: {
            frozenset(ids) for ids in story_set.as_clusters().values()
        }
        for source_id, story_set in result.story_sets.items()
    }


def alignment_clusters(result):
    return {
        frozenset(ids)
        for ids in result.alignment.as_clusters().values()
    }


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for source in ("gdelt", "reuters", "xinhua", "tass"):
            first = shard_of(source, 8)
            assert 0 <= first < 8
            assert shard_of(source, 8) == first

    def test_all_snippets_of_a_source_share_a_shard(self, small_synthetic):
        shards = {}
        for snippet in small_synthetic.snippets_by_publication():
            shard = shard_of(snippet.source_id, 4)
            assert shards.setdefault(snippet.source_id, shard) == shard


class TestOptions:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            RuntimeOptions(num_shards=0)
        with pytest.raises(ConfigurationError):
            RuntimeOptions(executor="fiber")
        with pytest.raises(ConfigurationError):
            RuntimeOptions(policy="yolo")
        with pytest.raises(ConfigurationError):
            RuntimeOptions(executor="process")


class TestThreadEquivalence:
    def test_four_shards_match_single_threaded_stream(self, small_synthetic):
        """ISSUE acceptance: ≥4 shards ≡ single-threaded StreamProcessor."""
        config = StoryPivotConfig.temporal()
        reference = StreamProcessor(config, realign_every=10_000)
        reference.consume_corpus(small_synthetic)
        expected = reference.flush()

        runtime = ShardedRuntime(config, num_shards=4)
        try:
            runtime.consume_corpus(small_synthetic)
            actual = runtime.flush()
        finally:
            runtime.stop()

        assert source_clusters(actual) == source_clusters(expected)
        assert alignment_clusters(actual) == alignment_clusters(expected)
        assert runtime.accepted == reference.stats.accepted

    def test_result_caches_until_new_arrivals(self, small_synthetic):
        runtime = ShardedRuntime(StoryPivotConfig(), num_shards=2)
        try:
            runtime.consume_corpus(small_synthetic)
            first = runtime.result()
            assert runtime.result() is first
            runtime.offer(make_snippet("late:1", "late-source"))
            runtime.drain()
            assert runtime.result() is not first
        finally:
            runtime.stop()

    def test_duplicates_are_counted_not_integrated(self):
        runtime = ShardedRuntime(StoryPivotConfig(), num_shards=2)
        try:
            snippet = make_snippet("dup:1", "a")
            runtime.offer(snippet)
            runtime.offer(snippet)
            runtime.drain()
            stats = runtime.stats()
            assert stats["accepted"] == 1
            assert stats["duplicates"] == 1
        finally:
            runtime.stop()


class TestMetricsExport:
    def test_metrics_json_has_operator_keys(self, small_synthetic):
        """ISSUE acceptance: queue depth, offer-latency histogram,
        realignment timings are always present in the export."""
        runtime = ShardedRuntime(StoryPivotConfig(), num_shards=4)
        try:
            runtime.consume_corpus(small_synthetic)
            runtime.flush()
            snapshot = json.loads(runtime.metrics_json())
        finally:
            runtime.stop()
        for shard_id in range(4):
            assert f"queue.depth{{shard={shard_id}}}" in snapshot
        latency = snapshot["ingest.offer_latency_seconds"]
        assert latency["type"] == "histogram"
        assert latency["count"] > 0
        assert {"p50", "p95", "p99"} <= set(latency)
        assert "realign.duration_seconds" in snapshot
        assert snapshot["ingest.accepted"]["value"] > 0


class TestSupervision:
    """A crash that escapes the shard's consume (here a dead-letter
    append that raises) is the supervisor's to restart or retire.
    Per-snippet quarantine is covered in test_resilience_dlq.py."""

    def test_transient_crash_is_restarted_without_data_loss(self):
        runtime = ShardedRuntime(
            StoryPivotConfig(), num_shards=1, retry=ONE_ATTEMPT
        )
        try:
            runtime.start()
            shard = runtime._shards[0]
            crashes = []

            def explode_once(snippet):
                if not crashes:
                    crashes.append(snippet.snippet_id)
                    raise RuntimeError("injected fault")

            shard.fault_hook = explode_once
            crash_on_dead_letter(shard, lambda snippet_id: "log unwritable")
            for i in range(5):
                runtime.offer(make_snippet(f"a:{i}", "a", f"2014-07-{i+1:02d}"))
            runtime.drain(timeout=10.0)
            stats = runtime.stats()
            # the poisoned offer is consumed by the crash; the rest survive
            assert stats["failures"] == 1
            assert stats["restarts"] >= 1
            assert stats["accepted"] == 4
            assert not shard.dead
        finally:
            runtime.stop()

    def test_persistent_crash_kills_the_shard(self):
        from repro.runtime import BackoffPolicy

        runtime = ShardedRuntime(
            StoryPivotConfig(),
            num_shards=1,
            retry=ONE_ATTEMPT,
            backoff=BackoffPolicy(
                base_delay=0.01, factor=1.0, max_delay=0.01, max_restarts=2
            ),
        )
        try:
            runtime.start()
            shard = runtime._shards[0]

            def always_explode(snippet):
                raise RuntimeError("poison")

            shard.fault_hook = always_explode
            crash_on_dead_letter(shard, lambda snippet_id: "poison")
            offered = 0
            import time

            deadline = time.monotonic() + 10.0
            while not shard.dead and time.monotonic() < deadline:
                try:
                    runtime.offer(
                        make_snippet(f"a:{offered}", "a", "2014-07-01")
                    )
                    offered += 1
                except Exception:
                    break
                time.sleep(0.01)
            assert shard.dead
            # a dead shard sheds instead of hanging producers or drain
            assert runtime.offer(make_snippet("a:last", "a")) is False
            runtime.drain(timeout=1.0)
            assert runtime.stats()["dropped"] >= 1
        finally:
            runtime.stop()


class TestDropPolicy:
    def test_overflow_is_shed_and_counted(self):
        runtime = ShardedRuntime(
            StoryPivotConfig(), num_shards=1, policy="drop", queue_capacity=1
        )
        try:
            runtime.start()
            # pause the worker so the queue genuinely backs up
            with runtime._shards[0].lock:
                results = [
                    runtime.offer(
                        make_snippet(f"a:{i}", "a", f"2014-07-{i+1:02d}")
                    )
                    for i in range(20)
                ]
            runtime.drain(timeout=10.0)
            assert not all(results)
            assert runtime.stats()["dropped"] >= 1
            assert runtime.stats()["dropped"] == results.count(False)
        finally:
            runtime.stop()
