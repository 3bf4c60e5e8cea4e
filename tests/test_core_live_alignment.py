"""Tests for the incremental (live) aligner."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StoryPivotConfig
from repro.core.alignment import _UnionFind
from repro.core.live_alignment import LiveAligner
from repro.core.pipeline import StoryPivot
from repro.core.stories import StorySet
from repro.core.streaming import StreamProcessor
from repro.evaluation.metrics import pairwise_scores
from repro.eventdata.handcrafted import demo_config, mh17_corpus
from tests.conftest import make_snippet


class TestUnionFind:
    def test_union_and_find(self):
        union = _UnionFind()
        assert union.union("a", "b")
        assert union.find("a") == union.find("b")
        assert not union.union("a", "b")  # already joined

    def test_components(self):
        union = _UnionFind()
        union.union("a", "b")
        union.add("c")
        groups = {frozenset(v) for v in union.components().values()}
        assert groups == {frozenset({"a", "b"}), frozenset({"c"})}

    def test_transitive(self):
        union = _UnionFind()
        union.union("a", "b")
        union.union("b", "c")
        assert union.find("a") == union.find("c")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_component_order_matches_breadth_first_sweep(self, data):
        """Components come out at their first-added node, as a breadth-first
        sweep over the nodes in insertion order finds them; the aligner's
        ``c'`` ids are minted in this order."""
        nodes = data.draw(st.lists(st.text("abcdefgh", min_size=1, max_size=2),
                                   unique=True))
        index = st.integers(0, max(len(nodes) - 1, 0))
        edges = data.draw(st.lists(st.tuples(index, index))) if nodes else []
        union = _UnionFind()
        for node in nodes:
            union.add(node)
        for a, b in edges:
            union.union(nodes[a], nodes[b])

        neighbours = {node: [] for node in nodes}
        for a, b in edges:
            neighbours[nodes[a]].append(nodes[b])
            neighbours[nodes[b]].append(nodes[a])
        expected, seen = [], set()
        for start in nodes:
            if start in seen:
                continue
            component, queue = {start}, deque([start])
            while queue:
                for other in neighbours[queue.popleft()]:
                    if other not in component:
                        component.add(other)
                        queue.append(other)
            seen |= component
            expected.append(component)

        assert list(union.components().values()) == expected


def crash(snippet_id, source_id, date):
    return make_snippet(snippet_id, source_id=source_id, date=date,
                        description="plane crash missile",
                        entities=("UKR", "MAS"),
                        keywords=("crash", "plane", "missile"))


def vote(snippet_id, source_id, date):
    return make_snippet(snippet_id, source_id=source_id, date=date,
                        description="election ballot result",
                        entities=("FRA", "EU"),
                        keywords=("election", "ballot"))


class TestLiveAligner:
    def make_sets(self):
        return {"a": StorySet("a"), "b": StorySet("b")}

    def test_edge_appears_when_stories_match(self):
        sets = self.make_sets()
        aligner = LiveAligner(StoryPivotConfig(), sets)
        story_a = sets["a"].new_story()
        sets["a"].assign(crash("a:1", "a", "2014-07-17"), story_a)
        aligner.update_story(story_a)
        story_b = sets["b"].new_story()
        sets["b"].assign(crash("b:1", "b", "2014-07-17"), story_b)
        added = aligner.update_story(story_b)
        assert added and added[0][2] >= aligner.config.align_threshold
        snapshot = aligner.snapshot()
        aligned = snapshot.aligned_of_snippet("a:1")
        assert {s.snippet_id for s in aligned.snippets()} == {"a:1", "b:1"}

    def test_unrelated_stories_stay_apart(self):
        sets = self.make_sets()
        aligner = LiveAligner(StoryPivotConfig(), sets)
        story_a = sets["a"].new_story()
        sets["a"].assign(crash("a:1", "a", "2014-07-17"), story_a)
        aligner.update_story(story_a)
        story_b = sets["b"].new_story()
        sets["b"].assign(vote("b:1", "b", "2014-07-17"), story_b)
        assert aligner.update_story(story_b) == []
        assert len(aligner.snapshot()) == 2

    def test_unattached_source_rejected(self):
        aligner = LiveAligner(StoryPivotConfig(), {"a": StorySet("a")})
        foreign = StorySet("zzz")
        story = foreign.new_story()
        foreign.assign(crash("z:1", "zzz", "2014-07-17"), story)
        with pytest.raises(KeyError):
            aligner.update_story(story)

    def test_snapshot_skips_merged_away_stories(self):
        config = StoryPivotConfig(match_threshold=0.34, merge_threshold=0.62)
        pivot = StoryPivot(config)
        aligner = LiveAligner(config)
        for snippet in mh17_corpus().snippets_by_time():
            story = pivot.add_snippet(snippet)
            if story.source_id not in aligner._story_sets:
                aligner.attach_story_set(pivot.identifier(story.source_id).stories)
            else:
                aligner.update_story(story)
        snapshot = aligner.snapshot()
        live_ids = {
            story.story_id
            for story_set in pivot.story_sets().values()
            for story in story_set
        }
        snapshot_ids = {
            story.story_id
            for aligned in snapshot.aligned.values()
            for story in aligned.stories
        }
        assert snapshot_ids == live_ids

    def test_compact_drops_stale_edges(self):
        sets = self.make_sets()
        config = StoryPivotConfig()
        aligner = LiveAligner(config, sets)
        story_a = sets["a"].new_story()
        sets["a"].assign(crash("a:1", "a", "2014-07-17"), story_a)
        aligner.update_story(story_a)
        story_b = sets["b"].new_story()
        sets["b"].assign(crash("b:1", "b", "2014-07-17"), story_b)
        aligner.update_story(story_b)
        assert aligner._edges
        # story_b drifts: its content is replaced by unrelated snippets
        sets["b"].unassign("b:1")
        story_b2 = sets["b"].new_story()
        for i in range(4):
            sets["b"].assign(vote(f"b:v{i}", "b", f"2014-07-{18 + i}"), story_b2)
        aligner.compact()
        assert not aligner._edges
        assert len(aligner.snapshot()) == 2

    def test_roles_classified_in_snapshot(self):
        sets = self.make_sets()
        aligner = LiveAligner(StoryPivotConfig(), sets)
        story_a = sets["a"].new_story()
        sets["a"].assign(crash("a:1", "a", "2014-07-17"), story_a)
        aligner.update_story(story_a)
        story_b = sets["b"].new_story()
        sets["b"].assign(crash("b:1", "b", "2014-07-17"), story_b)
        aligner.update_story(story_b)
        snapshot = aligner.snapshot()
        assert snapshot.role("a:1") == "aligning"


class TestLiveStreaming:
    def test_live_mode_matches_batch_quality(self, medium_synthetic):
        config = StoryPivotConfig.temporal(enable_refinement=False)
        batch = StoryPivot(config).run(medium_synthetic)
        live = StreamProcessor(config, realign_every=200, live_alignment=True)
        live.consume_corpus(medium_synthetic)
        view = live.flush()
        truth = medium_synthetic.truth.labels
        batch_f1 = pairwise_scores(batch.global_clusters(), truth).f1
        live_f1 = pairwise_scores(view.global_clusters(), truth).f1
        assert live_f1 > 0.75 * batch_f1

    def test_live_mode_covers_every_snippet(self, mh17):
        processor = StreamProcessor(demo_config(), live_alignment=True)
        processor.consume_corpus(mh17)
        view = processor.flush()
        global_ids = {
            sid for members in view.global_clusters().values()
            for sid in members
        }
        assert global_ids == {s.snippet_id for s in mh17.snippets()}

    def test_live_mode_produces_cross_source_story(self, mh17):
        processor = StreamProcessor(demo_config(), live_alignment=True)
        processor.consume_corpus(mh17)
        view = processor.flush()
        crash = view.alignment.aligned_of_snippet("s1:v1")
        assert set(crash.source_ids) == {"s1", "sn"}

    def test_live_mode_has_no_refinement(self, mh17):
        processor = StreamProcessor(demo_config(), live_alignment=True)
        processor.consume_corpus(mh17)
        assert processor.flush().refinement is None
