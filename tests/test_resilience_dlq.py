"""Dead-letter quarantine: poison snippets cost an entry, never the shard."""

import os

from repro.core.config import StoryPivotConfig
from repro.resilience import DeadLetterQueue, RetryPolicy
from repro.runtime import BackoffPolicy, ShardedRuntime

from tests.conftest import ONE_ATTEMPT, crash_on_dead_letter, make_snippet

CONFIG = StoryPivotConfig()

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


class TestDeadLetterQueue:
    def test_memory_only_round_trip(self):
        dlq = DeadLetterQueue()
        snippet = make_snippet("a:1", "a")
        dlq.append(snippet, error="ValueError: boom", attempts=3, shard_id=2)
        assert len(dlq) == 1
        letter = dlq.records()[0]
        assert letter.snippet == snippet
        assert letter.error == "ValueError: boom"
        assert letter.attempts == 3
        assert letter.shard_id == 2

    def test_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "shard-000.dlq.jsonl")
        dlq = DeadLetterQueue(path)
        for i in range(4):
            dlq.append(make_snippet(f"a:{i}", "a"), error="x", attempts=2)
        dlq.close()

        reopened = DeadLetterQueue(path)
        assert [l.snippet.snippet_id for l in reopened.records()] == [
            f"a:{i}" for i in range(4)
        ]
        reopened.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "torn.dlq.jsonl")
        dlq = DeadLetterQueue(path)
        for i in range(3):
            dlq.append(make_snippet(f"a:{i}", "a"), error="x", attempts=1)
        dlq.close()
        os.truncate(path, os.path.getsize(path) - 7)  # kill mid-append

        reopened = DeadLetterQueue(path)
        assert len(reopened) == 2  # the torn last record is dropped
        reopened.close()

    def test_records_appended_after_a_torn_tail_survive(self, tmp_path):
        path = str(tmp_path / "resumed.dlq.jsonl")
        dlq = DeadLetterQueue(path)
        for i in range(3):
            dlq.append(make_snippet(f"s{i}", "a"), error="x", attempts=1)
        dlq.close()
        os.truncate(path, os.path.getsize(path) - 7)  # kill mid-append
        resumed = DeadLetterQueue(path)
        for i in range(3, 8):
            resumed.append(make_snippet(f"s{i}", "a"), error="x", attempts=1)
        resumed.close()

        reopened = DeadLetterQueue(path)
        # the resumed queue first ends the torn prefix's line, so only
        # the torn record is lost and every post-restart record loads
        assert [l.snippet.snippet_id for l in reopened.records()] == [
            "s0", "s1", "s3", "s4", "s5", "s6", "s7",
        ]
        reopened.close()

    def test_take_all_drains_memory_and_rewrite_the_file(self, tmp_path):
        path = str(tmp_path / "drain.dlq.jsonl")
        dlq = DeadLetterQueue(path)
        dlq.append(make_snippet("a:1", "a"), error="x", attempts=1)
        dlq.append(make_snippet("a:2", "a"), error="rejected: x", attempts=1)
        drained = dlq.take_all(keep=lambda l: l.error.startswith("rejected"))
        assert [l.snippet.snippet_id for l in drained] == ["a:1"]
        assert [l.snippet.snippet_id for l in dlq.records()] == ["a:2"]
        assert len(DeadLetterQueue(path)) == 2  # the file waits for rewrite
        dlq.rewrite()
        dlq.close()
        reopened = DeadLetterQueue(path)
        assert [l.snippet.snippet_id for l in reopened.records()] == ["a:2"]


class TestQuarantinePolicy:
    def test_poison_is_quarantined_and_shard_survives(self):
        """The tentpole acceptance: zero acked-snippet loss — every
        arrival is accepted, a duplicate, or accounted in the DLQ."""
        runtime = ShardedRuntime(
            CONFIG, num_shards=1, retry=FAST_RETRY
        )
        try:
            runtime.start()
            shard = runtime._shards[0]
            poison_ids = {"a:3", "a:7"}

            def poison(snippet):
                if snippet.snippet_id in poison_ids:
                    raise RuntimeError(f"poison {snippet.snippet_id}")

            shard.fault_hook = poison
            for i in range(10):
                runtime.offer(make_snippet(f"a:{i}", "a", f"2014-07-{i+1:02d}"))
            runtime.drain(timeout=10.0)
            stats = runtime.stats()
            assert not shard.dead
            assert stats["accepted"] == 8
            assert stats["quarantined"] == 2
            assert stats["restarts"] == 0  # the worker never crashed
            assert stats["arrived"] == (
                stats["accepted"] + stats["duplicates"]
                + stats["dropped"] + stats["quarantined"]
            )
            quarantined = {s.snippet_id for s in shard.dlq.snippets()}
            assert quarantined == poison_ids
            errors = [l.error for l in shard.dlq.records()]
            assert all("poison" in e for e in errors)
        finally:
            runtime.stop()

    def test_transient_fault_is_retried_not_quarantined(self):
        runtime = ShardedRuntime(CONFIG, num_shards=1, retry=FAST_RETRY)
        try:
            runtime.start()
            shard = runtime._shards[0]
            fired = []

            def fail_once(snippet):
                if snippet.snippet_id == "a:2" and not fired:
                    fired.append(1)
                    raise RuntimeError("blip")

            shard.fault_hook = fail_once
            for i in range(5):
                runtime.offer(make_snippet(f"a:{i}", "a", f"2014-07-{i+1:02d}"))
            runtime.drain(timeout=10.0)
            stats = runtime.stats()
            assert stats["accepted"] == 5
            assert stats["quarantined"] == 0
            assert stats["retries"] >= 1
        finally:
            runtime.stop()

    def test_retried_snippet_is_not_misread_as_duplicate(self):
        """Dedup admission happens only after successful integration, so
        a retry of a failed snippet must be accepted, not deduped."""
        runtime = ShardedRuntime(CONFIG, num_shards=1, retry=FAST_RETRY)
        try:
            runtime.start()
            shard = runtime._shards[0]
            fired = []

            def fail_once(snippet):
                if not fired:
                    fired.append(1)
                    raise RuntimeError("blip")

            shard.fault_hook = fail_once
            runtime.offer(make_snippet("a:1", "a"))
            runtime.drain(timeout=10.0)
            stats = runtime.stats()
            assert stats["accepted"] == 1
            assert stats["duplicates"] == 0
        finally:
            runtime.stop()

    def test_dlq_persists_next_to_wal(self, tmp_path):
        wal_dir = str(tmp_path / "state")
        runtime = ShardedRuntime(
            CONFIG, num_shards=1, wal_dir=wal_dir, retry=FAST_RETRY
        )
        try:
            runtime.start()
            runtime._shards[0].fault_hook = lambda s: (_ for _ in ()).throw(
                RuntimeError("always")
            )
            runtime.offer(make_snippet("a:1", "a"))
            runtime.drain(timeout=10.0)
        finally:
            runtime.stop()
        dlq_path = os.path.join(wal_dir, "shard-000.dlq.jsonl")
        assert os.path.exists(dlq_path)
        assert len(DeadLetterQueue(dlq_path)) == 1


class TestReplay:
    def test_replay_reintegrates_once_the_poison_clears(self):
        runtime = ShardedRuntime(CONFIG, num_shards=2, retry=FAST_RETRY)
        try:
            runtime.start()
            poison_ids = {"a:1", "b:2"}

            def poison(snippet):
                if snippet.snippet_id in poison_ids:
                    raise RuntimeError("outage")

            for shard in runtime._shards:
                shard.fault_hook = poison
            for sid in ("a", "b"):
                for i in range(4):
                    runtime.offer(
                        make_snippet(f"{sid}:{i}", sid, f"2014-07-{i+1:02d}")
                    )
            runtime.drain(timeout=10.0)
            assert runtime.stats()["quarantined"] == 2
            assert runtime.stats()["accepted"] == 6

            # outage over: clear the hooks and replay the quarantine
            for shard in runtime._shards:
                shard.fault_hook = None
            counts = runtime.replay_dlq()
            assert counts == {"replayed": 2, "requeued": 0, "held": 0}
            assert runtime.stats()["accepted"] == 8
        finally:
            runtime.stop()

    def test_replay_requeues_still_failing_snippets(self):
        runtime = ShardedRuntime(CONFIG, num_shards=1, retry=FAST_RETRY)
        try:
            runtime.start()
            shard = runtime._shards[0]

            def poison(snippet):
                if snippet.snippet_id == "a:0":
                    raise RuntimeError("still broken")

            shard.fault_hook = poison
            runtime.offer(make_snippet("a:0", "a"))
            runtime.drain(timeout=10.0)
            counts = runtime.replay_dlq()
            assert counts == {"replayed": 1, "requeued": 1, "held": 0}
        finally:
            runtime.stop()

    def test_rejections_neither_degrade_health_nor_replay(self, tmp_path):
        runtime = ShardedRuntime(
            CONFIG, num_shards=1, wal_dir=str(tmp_path / "state")
        )
        try:
            runtime.start()
            runtime.offer(make_snippet("a:0", "a"))
            runtime.drain(timeout=10.0)
            runtime.reject(
                make_snippet("bad:0", "a"), "bad_timestamp", "junk input"
            )

            # the feed is hostile; the runtime is fine
            health = runtime.health()
            assert health["status"] == "ok"
            assert health["quarantined"] == 0
            assert health["rejected"] == 1

            # the audit shell never re-enters ingestion, and survives
            counts = runtime.replay_dlq()
            assert counts == {"replayed": 0, "requeued": 0, "held": 1}
            assert len(runtime._shards[0].dlq) == 1
            assert runtime.stats()["accepted"] == 1
        finally:
            runtime.stop()


class TestCrashLoopParking:
    def test_identical_crashes_park_the_shard_as_failed(self):
        runtime = ShardedRuntime(
            CONFIG,
            num_shards=1,
            retry=ONE_ATTEMPT,
            backoff=BackoffPolicy(
                base_delay=0.01, factor=1.0, max_delay=0.01,
                max_restarts=50, crash_loop_threshold=3,
            ),
        )
        try:
            runtime.start()
            shard = runtime._shards[0]

            def always_same(snippet):
                raise RuntimeError("deterministic poison")

            shard.fault_hook = always_same
            crash_on_dead_letter(
                shard, lambda snippet_id: "deterministic poison"
            )
            import time

            deadline = time.monotonic() + 10.0
            offered = 0
            while not shard.dead and time.monotonic() < deadline:
                runtime.offer(
                    make_snippet(f"a:{offered}", "a", "2014-07-01")
                )
                offered += 1
                time.sleep(0.01)
            assert shard.failed  # parked as crash-looping, not just dead
            stats = runtime.stats()
            assert stats["crash_loops"] == 1
            # parked well before the 50-restart budget would have run out
            assert stats["restarts"] < 10
            health = runtime.health()
            assert health["status"] in ("degraded", "unhealthy")
            assert health["shards_failed"] == [0]
        finally:
            runtime.stop()

    def test_varying_crashes_use_the_restart_budget(self):
        runtime = ShardedRuntime(
            CONFIG,
            num_shards=1,
            retry=ONE_ATTEMPT,
            backoff=BackoffPolicy(
                base_delay=0.01, factor=1.0, max_delay=0.01,
                max_restarts=3, crash_loop_threshold=10,
            ),
        )
        try:
            runtime.start()
            shard = runtime._shards[0]
            counter = []

            def always_different(snippet):
                counter.append(1)
                raise RuntimeError(f"crash #{len(counter)}")

            shard.fault_hook = always_different
            crash_on_dead_letter(
                shard, lambda snippet_id: f"crash #{len(counter)}"
            )
            import time

            deadline = time.monotonic() + 10.0
            offered = 0
            while not shard.dead and time.monotonic() < deadline:
                runtime.offer(
                    make_snippet(f"a:{offered}", "a", "2014-07-01")
                )
                offered += 1
                time.sleep(0.01)
            assert shard.dead
            assert not shard.failed  # flaky, not crash-looping
            assert runtime.stats()["crash_loops"] == 0
        finally:
            runtime.stop()

    @staticmethod
    def crash_between_progress(backoff, message, crashes=6):
        """``crashes`` rounds of 20 good snippets, then one poison one."""
        runtime = ShardedRuntime(
            CONFIG, num_shards=1, retry=ONE_ATTEMPT, backoff=backoff
        )
        try:
            runtime.start()
            shard = runtime._shards[0]

            def poison(snippet):
                if snippet.snippet_id.startswith("poison"):
                    raise RuntimeError(message(snippet.snippet_id))

            shard.fault_hook = poison
            crash_on_dead_letter(shard, message)
            for round_ in range(crashes):
                for i in range(20):
                    runtime.offer(make_snippet(f"a:{round_}:{i}", "a"))
                runtime.offer(make_snippet(f"poison:{round_}", "a"))
                runtime.drain()
            runtime.offer(make_snippet("a:last", "a"))
            runtime.drain()
            return shard, runtime.stats()
        finally:
            runtime.stop()

    def test_varying_crashes_between_progress_keep_the_shard(self):
        shard, stats = self.crash_between_progress(
            BackoffPolicy(
                base_delay=0.01, factor=1.0, max_delay=0.01,
                max_restarts=3, crash_loop_threshold=10,
            ),
            message=lambda snippet_id: f"crash at {snippet_id}",
        )
        assert not shard.dead  # 6 crashes, never more than 1 in a row
        assert stats["accepted"] == 6 * 20 + 1
        assert stats["failures"] == stats["restarts"] == 6

    def test_identical_crashes_between_progress_are_not_a_loop(self):
        shard, stats = self.crash_between_progress(
            BackoffPolicy(
                base_delay=0.01, factor=1.0, max_delay=0.01,
                max_restarts=50, crash_loop_threshold=3,
            ),
            message=lambda snippet_id: "deterministic poison",
        )
        assert not shard.failed
        assert stats["crash_loops"] == 0
        assert stats["accepted"] == 6 * 20 + 1


class TestRuntimeHealth:
    def test_healthy_runtime_reports_ok(self):
        runtime = ShardedRuntime(CONFIG, num_shards=2)
        try:
            runtime.start()
            runtime.offer(make_snippet("a:1", "a"))
            runtime.drain()
            health = runtime.health()
            assert health["status"] == "ok"
            assert health["shards_alive"] == 2
        finally:
            runtime.stop()

    def test_quarantine_degrades_health(self):
        runtime = ShardedRuntime(CONFIG, num_shards=1, retry=FAST_RETRY)
        try:
            runtime.start()
            runtime._shards[0].fault_hook = lambda s: (_ for _ in ()).throw(
                RuntimeError("poison")
            )
            runtime.offer(make_snippet("a:1", "a"))
            runtime.drain(timeout=10.0)
            assert runtime.health()["status"] == "degraded"
            assert runtime.health()["quarantined"] == 1
        finally:
            runtime.stop()

    def test_stopped_runtime_is_unhealthy(self):
        runtime = ShardedRuntime(CONFIG, num_shards=1)
        runtime.start()
        runtime.stop()
        assert runtime.health()["status"] == "unhealthy"
