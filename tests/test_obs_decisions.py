"""The structured decision log: lineage, replay, and chaos invariants."""

import json

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.obs import DecisionLog, Tracer
from repro.obs.decisions import format_event, merge_histories
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime

from conftest import make_snippet


def aligned_events(log):
    return [e for e in log.events() if e["event"] == "aligned"]


def finished_pivot():
    """A log, the pivot recording into it, and its first ``finish()``."""
    from repro.eventdata.sourcegen import synthetic_corpus

    log = DecisionLog()
    pivot = StoryPivot(StoryPivotConfig.temporal(), decision_log=log)
    for snippet in synthetic_corpus(
        total_events=30, num_sources=3, seed=5
    ).snippets_by_time():
        pivot.add_snippet(snippet)
    return log, pivot, pivot.finish()


class TestRecording:
    def test_source_derived_from_story_id(self):
        log = DecisionLog()
        entry = log.record("created", "s1/c000000", snippet_id="s1:v1")
        assert entry["source_id"] == "s1"
        assert entry["seq"] == 1

    def test_trace_id_captured_from_ambient_span(self):
        log = DecisionLog()
        tracer = Tracer(sample_rate=1.0)
        with tracer.start_trace("ingest") as root:
            entry = log.record("created", "s1/c000000")
        assert entry["trace_id"] == root.trace_id
        assert "trace_id" not in log.record("created", "s1/c000001")

    def test_merge_and_split_lineage_maps(self):
        log = DecisionLog()
        log.record("created", "s1/a")
        log.record("created", "s1/b")
        log.record("merged", "s1/a", absorbed="s1/b", score=0.9)
        log.record("split", "s1/c", from_story="s1/a", moved=2)
        history = log.history("s1/a")
        # the keeper's history includes the absorbed story's events
        assert {e["story_id"] for e in history} == {"s1/a", "s1/b"}
        assert [e["seq"] for e in history] == sorted(
            e["seq"] for e in history
        )
        assert log.history("s1/c")[0]["event"] == "split"

    def test_note_alignment_records_only_changes(self):
        class FakeAlignment:
            def __init__(self, mapping):
                self.story_to_aligned = mapping

        log = DecisionLog()
        assert log.note_alignment(FakeAlignment({"s1/a": "c'0"})) == 1
        assert log.note_alignment(FakeAlignment({"s1/a": "c'0"})) == 0
        assert log.note_alignment(FakeAlignment({"s1/a": "c'1"})) == 1
        aligned = [e for e in log.events() if e["event"] == "aligned"]
        assert len(aligned) == 2
        # every align() mints new c'N: an unchanged pivot finished twice
        # has new integrated ids everywhere, and no news
        log, pivot, first = finished_pivot()
        assert len(aligned_events(log)) == first.num_stories
        second = pivot.finish()
        assert set(second.alignment.aligned).isdisjoint(first.alignment.aligned)
        assert len(aligned_events(log)) == first.num_stories
        assert log.note_alignment(second.alignment) == 0

    def test_note_alignment_compares_membership_not_the_minted_id(self):
        log, pivot, first = finished_pivot()
        second = pivot.finish()
        # one story leaves its integrated story: that is news for its mates
        crowd = max(second.alignment.aligned.values(), key=lambda a: len(a.stories))
        mates = len(crowd.stories) - 1
        assert mates > 0
        second.alignment.story_to_aligned.pop(crowd.stories.pop().story_id)
        assert log.note_alignment(second.alignment) == mates
        # the id of the day is the payload
        assert log.events()[-1]["details"]["aligned_id"] == crowd.aligned_id

    @pytest.mark.parametrize("pinned", (False, True))
    def test_a_refresher_records_only_changes(self, pinned):
        """Also under ``pin_generations``: canonical ids are ranks by start,
        so late snippets that start a source's first story rename every
        later one — which is no news about any of them."""
        from repro.eventdata.sourcegen import synthetic_corpus
        from repro.server import ViewRefresher, ViewStore

        snippets = synthetic_corpus(
            total_events=120, num_sources=3, seed=5
        ).snippets_by_time()
        runtime = ShardedRuntime(StoryPivotConfig.temporal(), num_shards=2).start()
        try:
            refresher = ViewRefresher(runtime, ViewStore(), pin_generations=pinned)
            runtime.consume(snippets[8:]).drain()
            refresher.refresh()
            first = len(aligned_events(runtime.decisions))
            refresher.refresh(force=True)
            assert len(aligned_events(runtime.decisions)) == first
            runtime.consume(snippets[:8]).drain()
            refresher.refresh()
            assert 0 < len(aligned_events(runtime.decisions)) - first < first // 4
        finally:
            runtime.stop(checkpoint=False)

    def test_eviction_keeps_per_story_index_consistent(self):
        log = DecisionLog(capacity=4)
        for i in range(10):
            log.record("created", f"s1/c{i:06d}")
        assert len(log.events()) == 4
        # evicted stories drop out of the index entirely
        assert len(log.story_ids()) == 4

    def test_orphans_flags_midlife_first_event(self):
        log = DecisionLog()
        log.record("created", "s1/a")
        log.record("extended", "s1/b", snippet_id="s1:v9")  # no founding
        assert log.orphans() == ["s1/b"]

    def test_orphans_exempts_aged_out_foundings(self):
        log = DecisionLog(capacity=2)
        log.record("created", "s1/a")
        log.record("extended", "s1/a", snippet_id="v1")
        log.record("extended", "s1/a", snippet_id="v2")  # evicts the founding
        assert log.orphans() == []


class TestPersistence:
    def test_jsonl_roundtrip_with_torn_tail(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        log = DecisionLog(path=str(path))
        log.record("created", "s1/a", snippet_id="v1", score=0.5)
        log.record("merged", "s1/a", absorbed="s1/b")
        log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "event": "crea')  # torn final line
        loaded = DecisionLog.load(str(path))
        assert loaded.recorded == 2
        assert loaded._absorbed_into == {"s1/b": "s1/a"}
        assert loaded.history("s1/a")[0]["score"] == 0.5

    def test_format_event_and_history(self):
        log = DecisionLog()
        log.record("created", "s1/a", snippet_id="v1", score=0.1234)
        line = format_event(log.events()[0])
        assert "created" in line and "snippet=v1" in line
        assert "score=0.1234" in line
        assert "2 decision" not in log.format_history("s1/a")
        assert "no decision history" in log.format_history("s9/zzz")

    def test_merge_histories_orders_by_seq(self):
        log = DecisionLog()
        log.record("created", "s1/a")
        log.record("created", "s2/b")
        log.record("extended", "s1/a")
        merged = merge_histories([log.history("s2/b"), log.history("s1/a")])
        assert [e["seq"] for e in merged] == [1, 2, 3]


class TestPipelineIntegration:
    def test_every_demo_story_history_starts_with_a_founding(self, mh17):
        log = DecisionLog()
        pivot = StoryPivot(StoryPivotConfig(), decision_log=log)
        result = pivot.run(mh17)
        assert log.orphans() == []
        # stories only ever disappear via merges, so the surviving story
        # count is bounded by the number of founding events recorded
        foundings = [
            e for e in log.events() if e["event"] in ("created", "split")
        ]
        assert len(foundings) >= result.num_stories

    def test_runtime_always_logs_and_persists(self, tmp_path):
        runtime = ShardedRuntime(
            StoryPivotConfig(),
            RuntimeOptions(num_shards=2, wal_dir=str(tmp_path)),
        ).start()
        try:
            runtime.offer(make_snippet("s1:v1"))
            runtime.offer(make_snippet("s2:v1", source_id="s2"))
            runtime.flush()
        finally:
            runtime.stop()
        path = tmp_path / "decisions.jsonl"
        assert path.exists()
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert any(e["event"] == "created" for e in events)
        assert any(e["event"] == "aligned" for e in events)

    def test_restore_records_founding_for_recovered_stories(self, tmp_path):
        options = RuntimeOptions(
            num_shards=1, wal_dir=str(tmp_path), checkpoint_every=1
        )
        runtime = ShardedRuntime(StoryPivotConfig(), options).start()
        runtime.offer(make_snippet("s1:v1"))
        runtime.flush()
        runtime.stop()
        resumed = ShardedRuntime.resume(
            str(tmp_path), config=StoryPivotConfig(), options=options
        ).start()
        try:
            assert any(
                e["event"] == "restored" for e in resumed.decisions.events()
            )
            assert resumed.decisions.orphans() == []
        finally:
            resumed.stop()

    def test_resumed_log_continues_the_files_numbering(self, tmp_path, mh17):
        """A resumed runtime appends to the same decisions.jsonl; its
        events must extend the file's seq order, not restart it, or the
        offline ``explain`` drops and misorders them."""
        snippets = mh17.snippets_by_publication()
        half = len(snippets) // 2
        options = RuntimeOptions(num_shards=2, wal_dir=str(tmp_path))
        runtime = ShardedRuntime(StoryPivotConfig(), options).start()
        try:
            runtime.consume(snippets[:half])
            runtime.flush()
        finally:
            runtime.stop()
        resumed = ShardedRuntime.resume(
            str(tmp_path), config=StoryPivotConfig(), options=options
        ).start()
        try:
            resumed.consume(snippets[half:])
            resumed.flush()
        finally:
            resumed.stop()
        path = tmp_path / "decisions.jsonl"
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(set(seqs))
        assert any(e["event"] == "restored" for e in events)
        loaded = DecisionLog.load(str(path))
        for story_id in {e["story_id"] for e in events}:
            written = [e for e in events if e["story_id"] == story_id]
            history = loaded.history(story_id)
            assert all(e in history for e in written), story_id


class TestChaosLineage:
    @pytest.mark.parametrize("seed", [3, 17, 42])
    def test_no_orphan_story_events_under_default_chaos(
        self, small_synthetic, seed
    ):
        """Property: however chaos reorders, duplicates, or poisons the
        feed, every story id that appears in the decision log entered it
        through a founding event — faults must not create histories that
        begin mid-life."""
        from repro.eventdata.eventregistry import ResilientFeed
        from repro.resilience.faults import FaultInjector

        runtime = ShardedRuntime(
            StoryPivotConfig(), RuntimeOptions(num_shards=2)
        ).start()
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
        log = runtime.decisions
        assert log.recorded > 0
        assert log.orphans() == []
