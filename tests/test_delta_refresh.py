"""A delta refresh equals a full rebuild, bit for bit, at every generation.

What alignment and refinement remember now outlives ``finish()`` — with a
``ViewRefresher`` across merged pivots, with a ``StoryPivot`` across its own
``finish()`` calls.  The oracle is a brand-new ``merged_pivot().finish()``
(or a restored fresh pivot): nothing remembered, the same code.  Everything
is compared with ``==``, floats too, and so are the ids of the stories
refinement founds: they are a function of the story set, not of a counter.
(Integrated ids ``c'N`` still come from one; both sides restart it.)
"""

import dataclasses
import itertools
import json
import threading
import time
import types

import pytest

from repro.core import alignment as alignment_module
from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.core.refinement import StoryRefiner
from repro.core.stories import StorySet
from repro.eventdata.sourcegen import synthetic_corpus
from repro.obs.store import SpanStore
from repro.obs.trace import Tracer
from repro.replication import ReplicaRuntime, ReplicationServer
from repro.runtime import ShardedRuntime
from repro.runtime.metrics import MetricsRegistry
from repro.server import ViewRefresher, ViewStore, make_etag

from test_delta_finish import everything, restored, trust_of
from test_loop import SteppedClock

SEEDS = (5, 18, 26)
GENERATIONS = 5


@pytest.fixture(scope="module")
def corpora():
    return {
        seed: synthetic_corpus(total_events=60, num_sources=4, seed=seed)
        for seed in SEEDS
    }


def batches(corpus, generations=GENERATIONS):
    """Publication order: half up front, the rest in equal arrivals."""
    snippets = corpus.snippets_by_publication()
    half = len(snippets) // 2
    step = -(-(len(snippets) - half) // (generations - 1))
    return [snippets[:half]] + [
        snippets[at:at + step] for at in range(half, len(snippets), step)
    ]


class RecordingStore(ViewStore):
    """Keeps the ``PivotResult`` a view was built from."""

    result = None

    def install(self, result, **kwargs):
        self.result = result
        return super().install(result, **kwargs)


def same_ids(monkeypatch):
    """Restart the integrated-id counter, so two passes mint the same
    ``c'N``.  The story counter is left alone: no id compared here may
    depend on it."""
    monkeypatch.setattr(alignment_module, "_aligned_counter", itertools.count())


def warm_and_cold(refresher, runtime, monkeypatch):
    """One refresh by the long-lived refresher, one rebuild from nothing."""
    same_ids(monkeypatch)
    refresher.refresh(force=True)
    warm = refresher.store.result
    same_ids(monkeypatch)
    cold = runtime.merged_pivot().finish()
    return warm, cold


def assert_same(got, expected):
    assert everything(got.story_sets, got.refinement) == everything(
        expected.story_sets, expected.refinement
    )


class TestRefresherEqualsColdRebuild:
    @pytest.mark.parametrize("trusted", (False, True), ids=("plain", "trust"))
    @pytest.mark.parametrize("strategy", ("greedy", "optimal"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_at_every_generation(
        self, corpora, monkeypatch, seed, strategy, trusted
    ):
        self.check(corpora[seed], monkeypatch, StoryPivotConfig.temporal(
            alignment_strategy=strategy, trust_weighted_alignment=trusted
        ))

    def test_when_the_last_round_still_moved(self, corpora, monkeypatch):
        """The round budget ran out on a round with moves: what is
        remembered (votes, certificates) predates them."""
        self.check(corpora[18], monkeypatch, StoryPivotConfig.temporal(
            max_refinement_rounds=1
        ))

    def check(self, corpus, monkeypatch, config):
        runtime = ShardedRuntime(config, num_shards=2).start()
        refresher = ViewRefresher(runtime, RecordingStore())
        try:
            moves = certified = 0
            for generation, batch in enumerate(batches(corpus)):
                runtime.consume(batch).drain()
                warm, cold = warm_and_cold(refresher, runtime, monkeypatch)
                assert_same(warm, cold)
                moves += warm.refinement.num_moves
                if generation:
                    # not vacuous: only a refiner that remembers the last
                    # generation has first-round votes and certificates
                    assert warm.refinement.votes_reused[0] > 0
                    assert cold.refinement.votes_reused[0] == 0
                    certified += warm.refinement.stories_certified[0]
                    assert cold.refinement.stories_certified[0] == 0
            assert moves > 0 and certified > 0
        finally:
            runtime.stop(checkpoint=False)


class TestFoundedIds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_quiet_generation_founds_the_ids_of_the_last(
        self, corpora, monkeypatch, seed
    ):
        runtime = ShardedRuntime(StoryPivotConfig.temporal(), num_shards=2).start()
        refresher = ViewRefresher(runtime, RecordingStore())
        founded = 0
        try:
            for batch in batches(corpora[seed]):
                runtime.consume(batch).drain()
                refresher.refresh(force=True)
                arrived = refresher.store.result.refinement
                warm, cold = warm_and_cold(refresher, runtime, monkeypatch)
                assert_same(warm, cold)
                assert warm.refinement.moves == arrived.moves
                founded += sum("/r0" in move.to_story for move in arrived.moves)
            assert founded > 0
        finally:
            runtime.stop(checkpoint=False)

    def test_the_next_free_id_of_the_set(self):
        story_set = StorySet("s1")
        story_set.new_story()
        assert story_set.found_story().story_id == "s1/r000000"
        assert story_set.found_story().story_id == "s1/r000001"
        # a restored set: stories arrive under the ids they were saved with
        restored_set = StorySet("s1")
        restored_set.rebind_story_id(
            restored_set.new_story().story_id, "s1/r000000"
        )
        restored_set.rebind_story_id(
            restored_set.new_story().story_id, "s1/rumours"
        )
        assert restored_set.found_story().story_id == "s1/r000001"
        assert sorted(restored_set.story_ids())[-2:] == ["s1/r000001", "s1/rumours"]

    def test_a_move_never_lands_on_the_id_it_left(self, corpora):
        """The last member of the highest founded story founds another: its
        old story is pruned, and the id must not pass to the new one."""
        snippet = corpora[18].snippets_by_time()[0]
        story_set = StorySet(snippet.source_id)
        story_set.assign(snippet, story_set.found_story())
        left = story_set.story_of(snippet.snippet_id)
        move = StoryRefiner()._apply_move(
            snippet, left, story_set, {}, {"elsewhere/c000001"}, 1.0, {}
        )
        assert move.from_story == left.story_id == f"{snippet.source_id}/r000000"
        assert move.to_story == f"{snippet.source_id}/r000001"
        assert story_set.story_ids() == [move.to_story]

    def test_a_restored_pivot_that_holds_one_founds_past_it(self, corpora):
        config = StoryPivotConfig.temporal()
        identified = StoryPivot(config)
        for snippet in corpora[18].snippets_by_time():
            identified.add_snippet(snippet)
        plain = restored(identified).finish()
        source_id = plain.refinement.moves[0].source_id
        assert plain.refinement.moves[0].to_story == f"{source_id}/r000000"
        holding = restored(identified)
        story_set = holding.story_sets()[source_id]
        # the last story of the set, so that it stays the last under its new id
        story_set.rebind_story_id(story_set.story_ids()[-1], f"{source_id}/r000000")
        got = holding.finish()
        assert got.refinement.moves[0].to_story == f"{source_id}/r000001"
        assert [
            (move.snippet_id, repr(move.evidence)) for move in got.refinement.moves
        ] == [
            (move.snippet_id, repr(move.evidence)) for move in plain.refinement.moves
        ]


def view_etag(view):
    """One strong ETag over everything the view serves."""
    body = json.dumps(
        [view.stories, view.story_details, view.story_snippets,
         view.source_stories, view.sources, view.stats],
        sort_keys=True,
    )
    return make_etag(view.generation, body.encode())


class TestPinnedGenerations:
    def test_leader_follower_and_cold_rebuild_agree(self, corpora, tmp_path):
        """``canonicalize_result_ids`` rewrites the story ids in place after
        every ``finish()``; the memory must neither follow it (a snapshot
        that aliases the live map sees no change, and saves nothing) nor
        leak its own ids into the view."""
        runtime = ShardedRuntime(
            StoryPivotConfig.temporal(), num_shards=2,
            wal_dir=str(tmp_path / "wal"),
        ).start()
        ship = ReplicationServer(runtime).start()
        replica = None
        try:
            leader = ViewRefresher(
                runtime, RecordingStore(), pin_generations=True
            )
            for generation, batch in enumerate(batches(corpora[18])):
                runtime.consume(batch).drain()
                if replica is None:
                    replica = ReplicaRuntime(
                        ship.address, poll_interval=0.01
                    ).start()
                    follower = ViewRefresher(
                        replica, RecordingStore(), pin_generations=True
                    )
                deadline = time.time() + 30
                while (replica.accepted != runtime.accepted
                       or replica.lag_records()):
                    assert time.time() < deadline, "follower never converged"
                    time.sleep(0.01)
                cold = ViewRefresher(
                    runtime, ViewStore(), pin_generations=True
                ).refresh(force=True)
                etags = {
                    view_etag(leader.refresh(force=True)),
                    view_etag(follower.refresh(force=True)),
                    view_etag(cold),
                }
                assert len(etags) == 1
                if generation:
                    for node in (leader, follower):
                        refinement = node.store.result.refinement
                        assert refinement.votes_reused[0] > 0
        finally:
            if replica is not None:
                replica.stop()
            ship.close()
            runtime.stop(checkpoint=False)


class TestLongLivedPivot:
    """The demo and ``StreamProcessor`` path: ``finish()`` over and over on
    one live pivot, which keeps refinement's moves, between edits."""

    @pytest.mark.parametrize("trusted", (False, True), ids=("plain", "trust"))
    def test_every_finish_equals_a_restored_fresh_pivot(
        self, corpora, monkeypatch, trusted
    ):
        corpus = corpora[18]
        config = StoryPivotConfig.temporal(trust_weighted_alignment=trusted)
        trust = trust_of(corpus) if trusted else {}
        snippets = corpus.snippets_by_time()
        gone_source = snippets[0].source_id
        pivot = StoryPivot(config)
        pivot.aligner.set_source_trust(trust)
        edits = [
            lambda: [pivot.add_snippet(s) for s in snippets[:-60]],
            lambda: [pivot.add_snippet(s) for s in snippets[-60:-25]],
            lambda: [pivot.remove_snippet(s.snippet_id)
                     for s in snippets[10:40:3]],
            lambda: pivot.remove_source(gone_source),
            lambda: [pivot.add_snippet(s) for s in snippets[-25:]
                     if s.source_id != gone_source],
            lambda: None,  # nothing arrived: the moves of the last finish()
            # the source comes back, now last in the pivot's source order
            lambda: [pivot.add_snippet(s) for s in snippets
                     if s.source_id == gone_source],
        ]
        reused = []
        for step, edit in enumerate(edits):
            edit()
            fresh = restored(pivot)
            fresh.aligner.set_source_trust(trust)
            same_ids(monkeypatch)
            got = pivot.finish()
            same_ids(monkeypatch)
            assert_same(got, fresh.finish())
            reused.append(got.refinement.votes_reused[0])
            # evidence is summed over a snippet's votes in their order: it
            # must be the pivot's source order, whatever is remembered
            order = list(pivot.story_sets())
            for votes in pivot.refiner._votes_of.values():
                assert list(votes) == [s for s in order if s in votes]
        assert reused[0] == 0 and all(reused[1:])

    def test_a_finish_that_raised_is_forgotten(self, corpora, monkeypatch):
        """Interrupted between the indexes and the votes, the refiner
        cannot tell what it had brought up to date: it starts over."""
        snippets = corpora[26].snippets_by_time()
        pivot = StoryPivot(StoryPivotConfig.temporal())
        for snippet in snippets[:-30]:
            pivot.add_snippet(snippet)
        pivot.finish()
        for snippet in snippets[-30:]:
            pivot.add_snippet(snippet)
        for snippet in snippets[5:60:4]:
            pivot.remove_snippet(snippet.snippet_id)
        fresh = restored(pivot)
        with monkeypatch.context() as patched:
            patched.setattr(
                StoryRefiner, "_counterpart_votes",
                lambda *args: (_ for _ in ()).throw(RuntimeError("injected")),
            )
            with pytest.raises(RuntimeError, match="injected"):
                pivot.finish()
        same_ids(monkeypatch)
        got = pivot.finish()
        same_ids(monkeypatch)
        assert_same(got, fresh.finish())
        assert got.refinement.votes_reused[0] == 0

    def test_zero_rounds_build_nothing_and_equal_no_refinement(self, corpora):
        """PR 17 built every index before looking at the round budget."""
        zero = StoryPivot(StoryPivotConfig.temporal(max_refinement_rounds=0))
        for snippet in corpora[5].snippets_by_time():
            zero.add_snippet(snippet)
        off = restored(zero)  # the same stories under the same ids
        off.config = off.aligner.config = StoryPivotConfig.temporal(
            enable_refinement=False
        )
        got, expected = zero.finish(), off.finish()
        assert expected.refinement is None
        assert got.refinement.votes_recomputed == []
        assert got.refinement.rounds == 0 and got.refinement.moves == []
        assert zero.refiner._votes_of == {} and zero.refiner._homes == {}
        assert got.alignment.edge_scores == expected.alignment.edge_scores
        assert got.alignment.links == expected.alignment.links
        assert got.alignment.roles == expected.alignment.roles
        assert sorted(map(sorted, got.global_clusters().values())) == sorted(
            map(sorted, expected.global_clusters().values())
        )


class TestReplacedSnippets:
    """A shard restart or a checkpoint restore brings every snippet back as
    a new object under its old id."""

    def adopted(self, pivot, refiner, replace):
        """``pivot``'s stories under their ids, snippets through ``replace``,
        in a new pivot that aligns and refines with ``refiner``."""
        again = StoryPivot(pivot.config)
        for source_id, story_set in pivot.story_sets().items():
            for story in story_set:
                again.restore_story(
                    source_id, story.story_id,
                    [replace(s) for s in story.snippets()],
                )
        if refiner is not None:
            again.adopt(refiner)
        return again

    def run(self, corpus, monkeypatch, replace):
        config = StoryPivotConfig.temporal()
        identified = StoryPivot(config)
        for snippet in corpus.snippets_by_time():
            identified.add_snippet(snippet)
        first = self.adopted(identified, None, lambda s: s)
        first.finish()
        copies = {}

        def once(snippet):  # the same replacement on both sides
            return copies.setdefault(snippet.snippet_id, replace(snippet))

        same_ids(monkeypatch)
        got = self.adopted(identified, first.refiner, once).finish()
        same_ids(monkeypatch)
        assert_same(got, self.adopted(identified, None, once).finish())
        return got

    def test_equal_new_objects_are_still_exact(self, corpora, monkeypatch):
        got = self.run(corpora[26], monkeypatch, dataclasses.replace)
        # equal members: no story is touched, every edge is carried
        assert got.alignment.stats.story_pairs_reused > 0

    def test_other_content_under_an_old_id_is_seen(self, corpora, monkeypatch):
        """Same ids, same stories, but every seventh snippet now says
        something else a week later: only the object tells."""
        def replace(snippet):
            if int(snippet.snippet_id[-3:], 36) % 7:
                return snippet
            return dataclasses.replace(
                snippet, timestamp=snippet.timestamp + 7 * 86400.0,
                entities=frozenset(sorted(snippet.entities)[:1]),
            )

        got = self.run(corpora[26], monkeypatch, replace)
        assert got.refinement.votes_reused[0] > 0


class TestFailedRefresh:
    def test_last_good_view_is_served_and_the_retry_is_exact(
        self, corpora, monkeypatch
    ):
        runtime = ShardedRuntime(StoryPivotConfig.temporal(), num_shards=2).start()
        refresher = ViewRefresher(runtime, RecordingStore())
        first, second, third = batches(corpora[18], generations=3)
        try:
            runtime.consume(first).drain()
            good = refresher.refresh(force=True)

            one_round = StoryRefiner._one_round
            calls = []

            def failing_second_round(self, story_sets, result):
                calls.append(1)
                if len(calls) == 2:  # after a round of moves and a re-align
                    raise RuntimeError("injected")
                return one_round(self, story_sets, result)

            monkeypatch.setattr(StoryRefiner, "_one_round", failing_second_round)
            runtime.consume(second).drain()
            with pytest.raises(RuntimeError, match="injected"):
                refresher.refresh(force=True)
            assert refresher.store.current() is good
            assert refresher.staleness() > 0.0

            warm, cold = warm_and_cold(refresher, runtime, monkeypatch)
            assert_same(warm, cold)
            assert warm.refinement.votes_reused[0] == 0  # from scratch
            runtime.consume(third).drain()
            warm, cold = warm_and_cold(refresher, runtime, monkeypatch)
            assert_same(warm, cold)
            assert warm.refinement.votes_reused[0] > 0  # and warm again
        finally:
            runtime.stop(checkpoint=False)


class SlowFirstMerge:
    """A runtime whose first ``merged_pivot`` caller is overtaken by every
    later one — unless refreshes are serialized."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.first_inside = threading.Event()
        self.release = threading.Event()
        self._calls = 0

    def __getattr__(self, name):
        return getattr(self.runtime, name)

    def merged_pivot(self):
        self._calls += 1
        merged = self.runtime.merged_pivot()
        if self._calls == 1:
            self.first_inside.set()
            self.release.wait(timeout=10)
        return merged


class TestRefreshIsSerialized:
    def test_bookkeeping_matches_the_installed_generation(self, corpora):
        """Unsynchronized, the slow *older* build finished last and wrote
        its accepted count and build time over the newer build's."""
        runtime = ShardedRuntime(StoryPivotConfig.temporal(), num_shards=2).start()
        first, second, _ = batches(corpora[5], generations=3)
        try:
            runtime.consume(first).drain()
            slow = SlowFirstMerge(runtime)
            refresher = ViewRefresher(slow, ViewStore(), pin_generations=True)
            older = threading.Thread(target=refresher.refresh)
            older.start()
            assert slow.first_inside.wait(timeout=10)
            runtime.consume(second).drain()
            newer = threading.Thread(target=refresher.refresh)
            newer.start()
            newer.join(timeout=0.3)
            assert newer.is_alive(), "the second refresh overtook the first"
            slow.release.set()
            older.join(timeout=30)
            newer.join(timeout=30)
            assert not older.is_alive() and not newer.is_alive()
            assert refresher.store.generation == runtime.accepted
            assert refresher._built_at_count == runtime.accepted
            assert refresher.staleness() == 0.0
        finally:
            runtime.stop(checkpoint=False)


class TestRefreshIsObservable:
    def test_duration_histogram_and_root_span_attributes(self, corpora):
        metrics = MetricsRegistry()
        spans = SpanStore()
        runtime = ShardedRuntime(StoryPivotConfig.temporal(), num_shards=2).start()
        refresher = ViewRefresher(
            runtime, ViewStore(), metrics=metrics,
            tracer=Tracer(store=spans, metrics=metrics),
        )
        try:
            for batch in batches(corpora[5], generations=3):
                runtime.consume(batch).drain()
                refresher.refresh()
        finally:
            runtime.stop(checkpoint=False)
        histogram = metrics.snapshot()["view.refresh_seconds"]
        assert histogram["count"] == 3 and histogram["min"] > 0.0
        roots = sorted(
            (span for trace in spans.traces() if trace["name"] == "view.refresh"
             for span in trace["spans"] if span["parent_id"] is None),
            key=lambda span: span["started_at"],
        )
        assert len(roots) == 3
        cold, warm = roots[0]["attrs"], roots[-1]["attrs"]
        for attributes in (cold, warm):
            parts = [attributes[key] for key in
                     ("merge_s", "align_s", "refine_s", "install_s")]
            assert all(part > 0.0 for part in parts)
            assert attributes["votes_recomputed"] > 0
            assert attributes["story_pairs_scored"] >= 0
        # the share of the vote passes that was carried over
        shares = [
            attributes["votes_reused"]
            / (attributes["votes_reused"] + attributes["votes_recomputed"])
            for attributes in (cold, warm)
        ]
        assert shares[0] < shares[1]
        assert warm["story_pairs_reused"] > 0
        # every alignment pass and every vote round, not the last or the sum
        for attributes in (cold, warm):
            passes = attributes["pass_story_pairs_scored"]
            assert 1 < len(passes) == len(attributes["pass_story_pairs_reused"])
            assert len(passes) == len(attributes["pass_snippet_pairs_scored"])
            assert sum(passes) == attributes["story_pairs_scored"]
            rounds = attributes["round_votes_recomputed"]
            assert len(passes) - 1 <= len(rounds) <= len(passes)
            assert sum(rounds) == attributes["votes_recomputed"]
            assert sum(attributes["round_votes_reused"]) == attributes["votes_reused"]
        assert cold["pass_story_pairs_reused"][0] == 0 < warm["pass_story_pairs_reused"][0]


class TestThePeriodIsStartToStart:
    def starts(self, durations, poke_during=(), metrics=None):
        """When each rebuild of the loop began, at ``interval=1.0``."""
        clock = SteppedClock()
        refresher = ViewRefresher(
            types.SimpleNamespace(accepted=0),  # staleness() reads no more
            ViewStore(), interval=1.0, metrics=metrics,
        )
        refresher.loop.clock = clock
        began = []

        def rebuild(force):
            began.append(clock.time)
            clock.time += durations[len(began) - 1]
            if len(began) in poke_during:
                refresher.poke()
            if len(began) == len(durations):
                refresher.stop()

        refresher._rebuild_locked = rebuild
        refresher.loop.run()
        return began

    def test_a_refresh_is_part_of_the_period(self):
        metrics = MetricsRegistry()
        assert self.starts([0.4] * 4, metrics=metrics) == pytest.approx(
            [1.0, 2.0, 3.0, 4.0]
        )
        period = metrics.snapshot()["view.refresh_period_seconds"]
        assert period["count"] == 4
        assert period["min"] == pytest.approx(1.0) == period["max"]

    def test_an_overrun_is_followed_by_half_a_period_of_quiet(self):
        assert self.starts([0.4, 1.5, 0.4, 0.4]) == pytest.approx(
            [1.0, 2.0, 2.0 + 1.5 + 0.5, 5.0]
        )

    def test_a_poke_does_not_wait(self):
        assert self.starts([0.4, 0.4, 0.4], poke_during=(1,)) == pytest.approx(
            [1.0, 1.4, 2.4]
        )


def listed(voted_by):
    """The voter lists as sets; no voter is listed twice."""
    assert all(len(set(voters)) == len(voters) for voters in voted_by.values())
    return {story_id: set(voters) for story_id, voters in voted_by.items()}


def reverse(votes_of):
    """evidence story -> the snippets voting for it, rebuilt from votes."""
    voted_by = {}
    for snippet_id, votes in votes_of.items():
        for per_source in votes.values():
            for story_id in per_source:
                voted_by.setdefault(story_id, set()).add(snippet_id)
    return voted_by


class TestVoterIndex:
    """The refiner keeps its voter index across rounds and refreshes."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_it_is_the_reverse_of_the_votes_after_every_round(
        self, corpora, monkeypatch, seed
    ):
        one_round, checked = StoryRefiner._one_round, []

        def checking_round(self, story_sets, result):
            assert listed(self._voted_by) == reverse(self._votes_of)
            moves = one_round(self, story_sets, result)
            assert listed(self._voted_by) == reverse(self._votes_of)
            checked.append(len(moves))
            return moves

        monkeypatch.setattr(StoryRefiner, "_one_round", checking_round)
        runtime = ShardedRuntime(StoryPivotConfig.temporal(), num_shards=2).start()
        refresher = ViewRefresher(runtime, RecordingStore())
        try:
            for batch in batches(corpora[seed]):
                runtime.consume(batch).drain()
                refresher.refresh(force=True)
                refiner = refresher._refiner
                assert listed(refiner._voted_by) == reverse(refiner._votes_of)
        finally:
            runtime.stop(checkpoint=False)
        # rounds with moves and rounds after them, in every generation
        assert len(checked) > GENERATIONS and sum(checked) > 0
