"""``StoryRefiner._find_conflicts`` against the per-member scan it replaced.

The refiner folds a story's ballots once per source and reads each
member's mates' sums off that fold; the scan below re-sums the mates'
ballots for every member, O(n²·sources) per story.  It is kept here as
the oracle: every verdict must be ``==`` to it, floats included.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set, Tuple

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.core.refinement import StoryRefiner, Votes
from repro.eventdata.sourcegen import synthetic_corpus


def reference_find_conflict(
    margin: float, position: int, ballots: Tuple[Votes, ...]
) -> Optional[Tuple[Set[str], float]]:
    """The per-member scan: re-sums the mates' ballots for each source."""
    my_votes = ballots[position]
    if not my_votes:
        return None
    mates = ballots[:position] + ballots[position + 1:]
    evidence_stories: Set[str] = set()
    evidence_mass = 0.0
    agreements = 0
    conflicts = 0
    for source_id, per_source in my_votes.items():
        my_top = max(per_source, key=lambda k: (per_source[k], k))
        rest: Dict[str, float] = {}
        for votes in mates:
            for story_id, mass in votes.get(source_id, {}).items():
                rest[story_id] = rest.get(story_id, 0.0) + mass
        if not rest:
            continue
        rest_top = max(rest, key=lambda k: (rest[k], k))
        if rest_top == my_top:
            agreements += 1
            continue
        if per_source[my_top] < per_source.get(rest_top, 0.0) + margin:
            agreements += 1
            continue
        conflicts += 1
        evidence_stories.add(my_top)
        evidence_mass += per_source[my_top]
    if not evidence_stories or conflicts <= agreements:
        return None
    return evidence_stories, evidence_mass


def reference_conflicts(margin, ballots):
    return [reference_find_conflict(margin, p, ballots) for p in range(len(ballots))]


#: masses whose sums round differently in different orders, and ties
NEAR_TIES = (
    0.1, 0.2, 0.3, 0.1 + 0.2, 0.7, 0.6, 0.1 + 0.6, 1 / 3, 2 / 3, 1 / 6,
    0.5, 1.0, 1e-3, 0.25, 0.45, 0.35, 0.15,
)


def fuzzed_ballots(rng: random.Random) -> Tuple[Votes, ...]:
    sources = ["s1", "s2", "s3"][: rng.randint(1, 3)]
    stories = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    ballots = []
    for _ in range(rng.randint(2, 8)):
        votes: Votes = {}
        for source_id in sources:
            if rng.random() < 0.2:
                continue
            picked = rng.sample(stories, rng.randint(1, len(stories)))
            votes[source_id] = {s: rng.choice(NEAR_TIES) for s in picked}
        ballots.append(votes)
    return tuple(ballots)


@pytest.mark.parametrize("margin", [0.0, 0.10])
def test_fuzzed_near_ties_match_the_scan(margin):
    refiner = StoryRefiner(StoryPivotConfig(refinement_margin=margin))
    rng = random.Random(20150531)
    for _ in range(4000):
        ballots = fuzzed_ballots(rng)
        assert refiner._find_conflicts(ballots) == reference_conflicts(
            margin, ballots
        ), ballots


def test_total_minus_own_breaks_an_exact_tie():
    # member 2's mates give "a" 2/3 and "b" 2/3: a tie that "b" wins on id.
    # "a"'s total less member 2's own vote reads 1.0 − 1/3 =
    # 0.6666666666666667, one ulp above: only an exact fold breaks the tie
    ballots = (
        {},
        {"s": {"b": 2 / 3, "a": 2 / 3}},
        {"s": {"a": 1 / 3}},
    )
    assert 1.0 - 1 / 3 > 2 / 3
    refiner = StoryRefiner(StoryPivotConfig(refinement_margin=0.0))
    found = refiner._find_conflicts(ballots)
    assert found == reference_conflicts(0.0, ballots)
    assert found[2] == ({"a"}, 1 / 3)


def test_member_voting_for_the_leader_sees_its_mates_favourite():
    # "a" leads on the story's total only through member 0's own vote;
    # without it the mates favour "b", so member 0 is in conflict
    ballots = (
        {"s": {"a": 0.9}},
        {"s": {"a": 0.1, "b": 0.5}},
        {"s": {"b": 0.4}},
    )
    refiner = StoryRefiner(StoryPivotConfig(refinement_margin=0.1))
    found = refiner._find_conflicts(ballots)
    assert found == reference_conflicts(0.1, ballots)
    assert found[0] == ({"a"}, 0.9)


def test_pipeline_calls_match_the_scan(monkeypatch):
    """Every story a full run refines, verdict for verdict."""
    calls = []
    original = StoryRefiner._find_conflicts

    def checked(self, ballots):
        found = original(self, ballots)
        calls.append(found == reference_conflicts(
            self.config.refinement_margin, ballots
        ))
        return found

    monkeypatch.setattr(StoryRefiner, "_find_conflicts", checked)
    corpus = synthetic_corpus(total_events=150, num_sources=6, seed=1)
    StoryPivot().run(corpus)
    assert len(calls) > 50
    assert all(calls)
