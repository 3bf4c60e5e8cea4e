"""Kill/resume recovery: checkpoint + WAL replay must be exact.

The ISSUE-level property: stream a corpus, kill the runtime at an
arbitrary point, resume from checkpoint+WAL, finish the stream — the
final identification state must be byte-identical (canonical serialized
form) to an uninterrupted run.
"""

import os

import pytest

from repro.core.config import StoryPivotConfig
from repro.errors import ConfigurationError
from repro.runtime import RuntimeOptions, ShardedRuntime

CONFIG = StoryPivotConfig.temporal()


def uninterrupted_dump(snippets, num_shards):
    runtime = ShardedRuntime(CONFIG, num_shards=num_shards)
    try:
        runtime.consume(snippets)
        runtime.drain()
        return runtime.dumps_state()
    finally:
        runtime.stop()


def killed_and_resumed_dump(snippets, num_shards, cut, wal_dir, **extra):
    first = ShardedRuntime(
        CONFIG,
        num_shards=num_shards,
        wal_dir=wal_dir,
        checkpoint_every=extra.pop("checkpoint_every", 37),
        **extra,
    )
    first.consume(snippets[:cut])
    first.drain()
    first.kill()  # no final checkpoint: recovery must replay the WAL tail

    resumed = ShardedRuntime.resume(wal_dir)
    try:
        assert resumed.accepted == cut
        resumed.consume(snippets[cut:])
        resumed.drain()
        return resumed.dumps_state()
    finally:
        resumed.stop()


@pytest.fixture(scope="module")
def stream(medium_synthetic):
    return list(medium_synthetic.snippets_by_publication())


class TestKillResume:
    @pytest.mark.parametrize("fraction", [0.1, 0.33, 0.5, 0.77, 0.95])
    def test_resume_is_byte_identical_at_cut(
        self, stream, tmp_path, fraction
    ):
        cut = int(len(stream) * fraction)
        expected = uninterrupted_dump(stream, num_shards=4)
        actual = killed_and_resumed_dump(
            stream, 4, cut, str(tmp_path / f"wal-{cut}")
        )
        assert actual == expected

    def test_resume_without_any_checkpoint_uses_wal_only(
        self, stream, tmp_path
    ):
        # cadence larger than the prefix: recovery is pure WAL replay
        cut = 60
        actual = killed_and_resumed_dump(
            stream,
            4,
            cut,
            str(tmp_path / "wal-only"),
            checkpoint_every=10_000,
        )
        assert actual == uninterrupted_dump(stream, num_shards=4)

    def test_double_kill_double_resume(self, stream, tmp_path):
        wal_dir = str(tmp_path / "wal-twice")
        cut1, cut2 = len(stream) // 4, len(stream) // 2
        first = ShardedRuntime(
            CONFIG, num_shards=4, wal_dir=wal_dir, checkpoint_every=23
        )
        first.consume(stream[:cut1])
        first.drain()
        first.kill()

        second = ShardedRuntime.resume(wal_dir)
        second.consume(stream[cut1:cut2])
        second.drain()
        second.kill()

        third = ShardedRuntime.resume(wal_dir)
        try:
            assert third.accepted == cut2
            third.consume(stream[cut2:])
            third.drain()
            actual = third.dumps_state()
        finally:
            third.stop()
        assert actual == uninterrupted_dump(stream, num_shards=4)

    def test_clean_stop_checkpoints_and_truncates_wals(
        self, stream, tmp_path
    ):
        wal_dir = str(tmp_path / "wal-clean")
        runtime = ShardedRuntime(
            CONFIG, num_shards=2, wal_dir=wal_dir, checkpoint_every=10_000
        )
        runtime.consume(stream[:80])
        runtime.drain()
        runtime.stop()  # clean stop: checkpoint + WAL truncate
        for shard_id in range(2):
            wal_path = os.path.join(wal_dir, f"shard-{shard_id:03d}.wal.jsonl")
            assert os.path.getsize(wal_path) == 0
        resumed = ShardedRuntime.resume(wal_dir)
        try:
            assert resumed.accepted == 80
        finally:
            resumed.stop()

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedRuntime.resume(str(tmp_path / "nothing-here"))

    def test_torn_wal_tail_is_skipped_not_fatal(self, stream, tmp_path):
        """Satellite acceptance: a kill mid-``write(2)`` leaves a torn
        final record; recovery must skip it with a warning and a metric,
        not refuse to start."""
        wal_dir = str(tmp_path / "wal-torn")
        cut = 50
        first = ShardedRuntime(
            CONFIG, num_shards=2, wal_dir=wal_dir, checkpoint_every=10_000
        )
        first.consume(stream[:cut])
        first.drain()
        first.kill()

        torn = 0
        for shard_id in range(2):
            path = os.path.join(wal_dir, f"shard-{shard_id:03d}.wal.jsonl")
            size = os.path.getsize(path)
            if size > 10:
                os.truncate(path, size - 9)
                torn += 1
        assert torn == 2

        resumed = ShardedRuntime.resume(wal_dir)
        try:
            # each torn tail loses at most its one unflushed record
            assert cut - torn <= resumed.accepted <= cut
            metric = resumed.metrics.snapshot()["wal.torn_records"]["value"]
            assert metric >= 1
            # the resumed runtime keeps ingesting normally
            resumed.consume(stream[cut:cut + 20])
            resumed.drain()
        finally:
            resumed.stop()

    def test_garbage_mid_wal_is_skipped(self, stream, tmp_path):
        """Corruption anywhere in the file — not just the tail — costs
        only the corrupt records."""
        wal_dir = str(tmp_path / "wal-garbage")
        first = ShardedRuntime(
            CONFIG, num_shards=1, wal_dir=wal_dir, checkpoint_every=10_000
        )
        first.consume(stream[:30])
        first.drain()
        first.kill()

        path = os.path.join(wal_dir, "shard-000.wal.jsonl")
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == 30
        lines[10] = "{not json at all\n"
        lines[20] = lines[20][: len(lines[20]) // 2] + "\n"  # torn middle
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

        resumed = ShardedRuntime.resume(wal_dir)
        try:
            assert resumed.accepted == 28
            assert (
                resumed.metrics.snapshot()["wal.torn_records"]["value"] == 2
            )
        finally:
            resumed.stop()

    def test_chaos_torn_wal_run_resumes_cleanly(self, stream, tmp_path):
        """Kill/resume under injected torn writes: everything the WAL
        still holds intact is recovered, and resume never raises."""
        from repro.resilience.faults import FaultInjector

        wal_dir = str(tmp_path / "wal-chaos")
        injector = FaultInjector(seed=13, profile="torn-wal")
        first = ShardedRuntime(
            CONFIG, num_shards=2, wal_dir=wal_dir, checkpoint_every=10_000
        )
        first.start()
        for shard in first._shards:
            shard.wal = injector.wrap_wal(shard.wal, shard.shard_id)
        first.consume(stream[:80])
        first.drain()
        accepted = first.accepted
        first.kill()
        torn_writes = len(
            [f for f in injector.faults() if f.kind == "torn-write"]
        )
        assert torn_writes >= 1

        resumed = ShardedRuntime.resume(wal_dir)
        try:
            # every torn write merges the torn prefix with the following
            # record into one garbage line: at most 2 records lost apiece
            assert resumed.accepted >= accepted - 2 * torn_writes
            assert resumed.accepted <= accepted
            assert (
                resumed.metrics.snapshot()["wal.torn_records"]["value"] >= 1
            )
        finally:
            resumed.stop()

    def test_resume_pins_shard_count_from_manifest(self, stream, tmp_path):
        wal_dir = str(tmp_path / "wal-pin")
        runtime = ShardedRuntime(CONFIG, num_shards=3, wal_dir=wal_dir)
        runtime.consume(stream[:40])
        runtime.drain()
        runtime.stop()
        resumed = ShardedRuntime.resume(
            wal_dir, options=RuntimeOptions(num_shards=8)
        )
        try:
            # routing must match the killed run, whatever the caller asks
            assert resumed.options.num_shards == 3
        finally:
            resumed.stop()

    def test_resume_keeps_numbering_when_no_segment_survives(
        self, stream, tmp_path
    ):
        # a clean stop checkpoints, seals and (keep 0) prunes every
        # segment: only the checkpoint still knows the WAL position
        wal_dir = str(tmp_path / "wal-pruned")
        runtime = ShardedRuntime(
            CONFIG, num_shards=1, wal_dir=wal_dir, wal_keep_segments=0
        )
        runtime.consume(stream[:200])
        runtime.drain()
        runtime.stop()
        resumed = ShardedRuntime.resume(wal_dir, wal_keep_segments=0)
        try:
            assert resumed.accepted == 200
            assert resumed.wal_positions() == [200]
            resumed.consume(stream[200:210])
            resumed.drain()
            seqs = [r["seq"] for r in resumed.shard_wal(0).iter_records(0)]
            # a seq names one record forever: never re-minted
            assert seqs == list(range(200, 210))
        finally:
            resumed.stop()
