"""Tests for the streaming processor (Section 2.4 dynamics)."""

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.core.streaming import StreamProcessor, replay_out_of_order
from repro.eventdata.handcrafted import demo_config, mh17_corpus
from repro.evaluation.metrics import pairwise_scores


class TestDeduplication:
    def test_duplicate_delivery_rejected(self, demo_cfg, mh17):
        processor = StreamProcessor(demo_cfg)
        snippet = mh17.snippets()[0]
        assert processor.offer(snippet) is True
        assert processor.offer(snippet) is False
        assert processor.stats.duplicates == 1
        assert processor.stats.accepted == 1

    def test_all_unique_accepted(self, demo_cfg, mh17):
        processor = StreamProcessor(demo_cfg)
        processor.consume_corpus(mh17)
        assert processor.stats.accepted == len(mh17)
        assert processor.stats.duplicates == 0

    def test_redelivered_batch(self, demo_cfg, mh17):
        processor = StreamProcessor(demo_cfg)
        processor.consume_corpus(mh17)
        processor.consume_corpus(mh17)  # crawl overlap: full redelivery
        assert processor.stats.accepted == len(mh17)
        assert processor.stats.duplicates == len(mh17)

    def test_failed_integration_is_not_remembered(self, demo_cfg, mh17,
                                                  monkeypatch):
        # an offer whose integration raised must not mark the id as seen,
        # or the retry would be dropped as a duplicate of the failure
        processor = StreamProcessor(demo_cfg)
        snippet = mh17.snippets()[0]
        add_snippet = processor.pivot.add_snippet
        calls = []

        def flaky(s):
            calls.append(s.snippet_id)
            if len(calls) == 1:
                raise RuntimeError("transient identification failure")
            return add_snippet(s)

        monkeypatch.setattr(processor.pivot, "add_snippet", flaky)
        with pytest.raises(RuntimeError):
            processor.offer(snippet)
        assert processor.offer(snippet) is True
        assert processor.stats.duplicates == 0
        assert processor.stats.accepted == 1
        assert processor.pivot.has_snippet(snippet.snippet_id)


class TestOutOfOrder:
    def test_disorder_measured(self, demo_cfg, mh17):
        # publication order == event order in the handcrafted corpus except
        # where dates interleave across sources; force disorder explicitly
        processor = StreamProcessor(demo_cfg)
        snippets = mh17.snippets_by_time()
        processor.offer(snippets[5])
        processor.offer(snippets[0])  # regression on the event-time axis
        assert processor.stats.max_disorder > 0

    def test_out_of_order_replay_matches_batch_quality(self, medium_synthetic):
        """Publication-order ingestion must not wreck story quality."""
        config = StoryPivotConfig.temporal()
        batch = StoryPivot(config).run(medium_synthetic, order="time")
        streamed = replay_out_of_order(medium_synthetic, config,
                                       realign_every=500)
        truth = medium_synthetic.truth.labels
        batch_f1 = pairwise_scores(batch.global_clusters(), truth).f1
        stream_f1 = pairwise_scores(streamed.global_clusters(), truth).f1
        assert stream_f1 > 0.8 * batch_f1


class TestLiveView:
    def test_periodic_realignment(self, demo_cfg, mh17):
        processor = StreamProcessor(demo_cfg, realign_every=4)
        processor.consume_corpus(mh17)
        assert processor.stats.realignments >= 3

    def test_result_refreshes_on_pending(self, demo_cfg, mh17):
        processor = StreamProcessor(demo_cfg, realign_every=1000)
        snippets = mh17.snippets_by_time()
        for snippet in snippets[:6]:
            processor.offer(snippet)
        first = processor.result()
        assert processor.pending() == 0
        for snippet in snippets[6:]:
            processor.offer(snippet)
        assert processor.pending() > 0
        second = processor.result()
        assert second is not first
        assert processor.pending() == 0

    def test_result_cached_when_idle(self, demo_cfg, mh17):
        processor = StreamProcessor(demo_cfg, realign_every=1000)
        processor.consume_corpus(mh17)
        first = processor.result()
        assert processor.result() is first

    def test_final_view_correct(self, demo_cfg, mh17):
        processor = StreamProcessor(demo_cfg, realign_every=5)
        processor.consume_corpus(mh17)
        result = processor.flush()
        clusters = {frozenset(v) for v in result.global_clusters().values()}
        assert frozenset({"s1:v4", "sn:v3"}) in clusters

    def test_invalid_realign_every(self, demo_cfg):
        with pytest.raises(ValueError):
            StreamProcessor(demo_cfg, realign_every=0)


class TestBoundedSeenSet:
    def test_add_and_membership(self):
        from repro.core.streaming import BoundedSeenSet

        seen = BoundedSeenSet(4)
        assert seen.add("a") is True
        assert seen.add("a") is False
        assert "a" in seen
        assert len(seen) == 1

    def test_evicts_oldest_beyond_capacity(self):
        from repro.core.streaming import BoundedSeenSet

        seen = BoundedSeenSet(3)
        for item in "abcd":
            seen.add(item)
        assert "a" not in seen  # oldest evicted
        assert all(item in seen for item in "bcd")
        assert len(seen) == 3

    def test_discard(self):
        from repro.core.streaming import BoundedSeenSet

        seen = BoundedSeenSet(2)
        seen.add("a")
        seen.discard("a")
        seen.discard("never-added")  # no-op
        assert "a" not in seen

    def test_invalid_capacity(self):
        from repro.core.streaming import BoundedSeenSet

        with pytest.raises(ValueError):
            BoundedSeenSet(0)

    def test_evicted_duplicate_still_caught_exactly(self, demo_cfg, mh17):
        """A re-delivery older than the dedup window falls off the fast
        path but the identifier's exact check still rejects it."""
        processor = StreamProcessor(demo_cfg, dedup_capacity=2)
        snippets = mh17.snippets_by_time()
        first = snippets[0]
        processor.offer(first)
        for snippet in snippets[1:6]:
            processor.offer(snippet)  # push `first` out of the seen-set
        assert first.snippet_id not in processor._seen
        assert processor.offer(first) is False  # DuplicateSnippetError path
        assert processor.stats.duplicates == 1
        assert processor.stats.accepted == 6

    def test_dedup_memory_stays_bounded(self, demo_cfg, mh17):
        processor = StreamProcessor(demo_cfg, dedup_capacity=3)
        processor.consume_corpus(mh17)
        assert len(processor._seen) <= 3
        assert processor.stats.accepted == len(mh17)
