"""The counterpart relation: one graph behind alignment and refinement.

Two oracles.  (a) A seeded property test drives a pivot through adds,
removals and re-adds that revise a snippet under its old id, runs
``finish()`` after each step and checks the aligner's counterpart graph
against a brute-force scan and every vote the refiner casts against the
formula it had before the graph (a window scan per snippet, kept here as a
test helper).  (b) Everything the counterpart relation decides on the ledger's
``batch_density`` rungs 150 and 600 (sub-seed 0): the links in order with
their scores, the roles, ``story_to_aligned``, ``edge_scores`` and the
moves with their evidence, under the temporal preset and under weights at
which two snippets sharing no feature still clear the snippet threshold
(0.5 of the weight is temporal, the threshold is 0.35).  Floats are
digested through ``repr``: equal means bit for bit.  Recorded from the
commit before the counterpart graph::

    PYTHONPATH=<that tree>/src python tests/test_counterparts.py > \\
        tests/fixtures/counterparts_parent.json
"""

import dataclasses
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)  # the helpers below, when run as a script

from repro.core.config import StoryPivotConfig
from repro.core.matchers import SnippetMatcher, snippet_features
from repro.core.pipeline import StoryPivot
from repro.core.refinement import StoryRefiner
from repro.eventdata.models import DAY
from repro.eventdata.sourcegen import synthetic_corpus
from repro.storage.temporal_index import TemporalIndex

from test_delta_finish import everything, restored, same_ids
from test_fused_score import _digest, ledger_inputs

RECORDED = os.path.join(HERE, "fixtures", "counterparts_parent.json")
SEED = 1
RUNGS = (150, 600)
CONFIGS = {
    "temporal": {},
    "disjoint_links": {
        "weights": {"entity": 0.25, "term": 0.25, "temporal": 0.5}
    },
}


# -- (a) the graph against brute force, the votes against the window scan -------

def brute_force_pairs(config, snippets):
    """snippet id -> [(timestamp, id, score, shares a feature)] of its
    counterparts in ``(timestamp, id)`` order, by scoring every
    cross-source pair in the graph's radius."""
    matcher = SnippetMatcher(config)
    radius = config.snippet_align_tolerance + 1.0
    weights = config.weights
    disjoint_can_link = (
        weights.get("temporal", 0.0) / sum(weights.values())
        >= config.snippet_align_threshold
    )
    pairs = {s.snippet_id: [] for s in snippets}
    ordered = sorted(snippets, key=lambda s: (s.timestamp, s.snippet_id))
    for a in snippets:
        entities, terms = snippet_features(a)
        for b in ordered:
            if b.source_id == a.source_id or abs(b.timestamp - a.timestamp) > radius:
                continue
            other_entities, other_terms = snippet_features(b)
            shared = bool(entities & other_entities or terms & other_terms)
            if not shared and not disjoint_can_link:
                continue
            score = matcher.snippet_score(a, b)
            if score >= config.snippet_align_threshold:
                pairs[a.snippet_id].append((b.timestamp, b.snippet_id, score, shared))
    return pairs


def window_scan_votes(config, snippet, story_sets):
    """The votes as refinement cast them before the graph: per other source,
    a temporal-index window around the snippet, feature-sharing snippets
    only, each scored and counted when it clears the threshold."""
    matcher = SnippetMatcher(config)
    entities, terms = snippet_features(snippet)
    votes = {}
    for source_id, story_set in story_sets.items():
        if source_id == snippet.source_id:
            continue
        index, members = TemporalIndex(), {}
        for story in story_set:
            for other_id, other in story.members.items():
                index.insert(other_id, other.timestamp)
                members[other_id] = other
        for other_id in index.around(
            snippet.timestamp, config.snippet_align_tolerance
        ):
            other = members[other_id]
            other_entities, other_terms = snippet_features(other)
            if entities.isdisjoint(other_entities) and terms.isdisjoint(other_terms):
                continue
            score = matcher.snippet_score(snippet, other)
            if score < config.snippet_align_threshold:
                continue
            story_id = story_set.snippet_homes[other_id]
            per_source = votes.setdefault(source_id, {})
            per_source[story_id] = per_source.get(story_id, 0.0) + score
    return votes


POOL = synthetic_corpus(total_events=60, num_sources=4, seed=18).snippets_by_time()


def revised(snippet, rng):
    """Other content under the same id: moved in time, entities thinned."""
    entities = sorted(snippet.entities)
    return dataclasses.replace(
        snippet,
        timestamp=snippet.timestamp + rng.uniform(-4.0, 4.0) * DAY,
        entities=frozenset(rng.sample(entities, len(entities) // 2)),
    )


def churn(rng, pivot, held):
    """One step: some snippets arrive, some leave, some come back revised."""
    absent = [s for s in POOL if s.snippet_id not in held]
    for snippet in rng.sample(absent, min(len(absent), rng.randint(4, 20))):
        held[snippet.snippet_id] = snippet
        pivot.add_snippet(snippet)
    for snippet_id in rng.sample(sorted(held), min(len(held), rng.randint(0, 8))):
        pivot.remove_snippet(snippet_id)
        snippet = held.pop(snippet_id)
        if rng.random() < 0.5:
            held[snippet_id] = revised(snippet, rng)
            pivot.add_snippet(held[snippet_id])


class TestCounterpartGraphOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_graph_and_votes_after_every_step(self, config, seed):
        config = StoryPivotConfig.temporal(**CONFIGS[config])
        rng = random.Random(seed)
        pivot, held, ever = StoryPivot(config), {}, set()
        checked = []
        refresh = StoryRefiner._refresh_votes

        def checked_refresh(refiner, story_sets, result):
            refresh(refiner, story_sets, result)
            for story_set in story_sets.values():
                for story in story_set:
                    for snippet_id, snippet in story.members.items():
                        if snippet_id in refiner._votes_of:
                            assert refiner._votes_of[snippet_id] == (
                                window_scan_votes(config, snippet, story_sets)
                            )
                            checked.append(snippet_id)

        pivot.refiner._refresh_votes = checked_refresh.__get__(pivot.refiner)
        for _ in range(8):
            churn(rng, pivot, held)
            ever.update(held)
            pivot.finish()
            graph = pivot.aligner.counterparts
            expected = brute_force_pairs(config, list(held.values()))
            assert {sid: graph.pairs(sid) for sid in ever} == {
                sid: expected.get(sid, []) for sid in ever
            }
        assert checked  # not vacuous: votes were cast and compared

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_a_sync_that_raised_is_forgotten(self, monkeypatch, config):
        """The graph's scoring kernel raises once inside a warm
        ``finish()``: the next ``finish()`` equals a fresh pivot's."""
        config = StoryPivotConfig.temporal(**CONFIGS[config])
        pivot = StoryPivot(config)
        for snippet in POOL[:-12]:
            pivot.add_snippet(snippet)
        pivot.finish()
        for snippet in POOL[-12:]:
            pivot.add_snippet(snippet)
        for snippet in POOL[3:30:5]:
            pivot.remove_snippet(snippet.snippet_id)
        score = SnippetMatcher.prepared_score
        linked = []

        def raising_once(matcher, *pair):
            # right after a pair that is stored, so that the graph is
            # half-updated when the error leaves it
            if len(linked) == 1:
                linked.append("raised")
                raise RuntimeError("injected")
            result = score(matcher, *pair)
            if not linked and result >= config.snippet_align_threshold:
                linked.append("stored")
            return result

        with monkeypatch.context() as patched:
            patched.setattr(SnippetMatcher, "prepared_score", raising_once)
            with pytest.raises(RuntimeError, match="injected"):
                pivot.finish()
        fresh = restored(pivot)
        same_ids(monkeypatch)
        got = pivot.finish()
        same_ids(monkeypatch)
        expected = fresh.finish()
        assert everything(got.story_sets, got.refinement) == everything(
            expected.story_sets, expected.refinement
        )
        assert got.refinement.num_moves > 0


# -- (b) links, roles and moves, against the parent commit's -----------------------


def counterpart_fingerprint(inputs, events, overrides, reset_ids):
    """One ``finish()`` over a ``batch_density`` rung, digested."""
    corpus = inputs.make_corpus(
        "batch_density", events, 5, inputs.sub_seed(SEED, 0)
    )
    reset_ids()
    pivot = StoryPivot(StoryPivotConfig.temporal(**overrides))
    for snippet in corpus.snippets_by_time():
        pivot.add_snippet(snippet)
    result = pivot.finish()
    alignment, moves = result.alignment, result.refinement.moves
    return {
        "links": len(alignment.links),
        "moves": len(moves),
        "link_digest": _digest([
            (link.snippet_a, link.snippet_b, repr(link.score))
            for link in alignment.links
        ]),
        "roles": _digest(list(alignment.roles.items())),
        "story_to_aligned": _digest(alignment.story_to_aligned),
        "edge_scores": _digest(sorted(
            (a, b, repr(score)) for (a, b), score in alignment.edge_scores.items()
        )),
        "refinement": _digest([
            (m.snippet_id, m.source_id, m.from_story, m.to_story,
             repr(m.evidence)) for m in moves
        ]),
    }


@pytest.fixture(scope="module")
def recorded():
    with open(RECORDED, encoding="utf-8") as handle:
        return json.load(handle)


class TestCounterpartsEqualTheParentCommits:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("events", RUNGS)
    def test_batch_density_rung(self, recorded, monkeypatch, events, config):
        got = counterpart_fingerprint(
            ledger_inputs(), events, CONFIGS[config],
            lambda: same_ids(monkeypatch),
        )
        # not vacuous: counterparts were linked and refinement moved
        assert got["links"] > 0 and got["moves"] > 0
        assert got == recorded[f"batch_density/{events}/{config}"]


def _record() -> dict:
    """The fingerprints of whichever tree ``PYTHONPATH`` names."""
    import itertools

    from repro.core import alignment, stories

    def reset_ids():
        stories._story_counter = itertools.count()
        alignment._aligned_counter = itertools.count()

    inputs = ledger_inputs()
    return {
        f"batch_density/{events}/{config}": counterpart_fingerprint(
            inputs, events, CONFIGS[config], reset_ids
        )
        for events in RUNGS for config in sorted(CONFIGS)
    }


if __name__ == "__main__":
    json.dump(_record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
