"""Story refinement (Section 2.3, Figure 1(d)).

Alignment can reveal identification mistakes: in Figure 1, ``v^1_4`` was
assigned to story ``c^1_1`` by source s1's identification, yet its
cross-source counterparts live with *different* snippets than its
story-mates' counterparts do.  Refinement detects exactly this
irregularity: a snippet whose counterpart stories (the other-source stories
holding its counterparts) are disjoint from the counterpart stories of the
rest of its own story is in conflict, and "the decisions made during story
alignment [are] propagated back into the story sets of data sources" — the
snippet moves to the same-source story whose cross-source evidence it
shares, or founds a fresh story there.

After each round of moves the alignment is recomputed over the corrected
story sets, so transitive gluing caused by a mis-assignment (the crash and
Gaza stories fused through ``v^1_4`` in Figure 1(c)) comes apart.  The
process repeats until no snippet moves or ``max_refinement_rounds`` is
reached; every move is recorded so the demo can explain the correction.

Votes are sums over the shared aligner's counterpart graph
(:class:`repro.core.alignment.CounterpartGraph`), which scores each
cross-source pair once, when the later of its two snippets arrives.  Only
a refiner that remembers nothing sums every snippet's votes.  A snippet's
votes change only when its own pairs change or one of its counterparts
changes story, so every round — the first of a later
:meth:`StoryRefiner.refine` included — re-sums (never adjusts: float order
would differ) the votes of those snippets and keeps the rest; the
re-alignments are the shared aligner's, which re-scores only the stories
whose members changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.alignment import Alignment, AlignmentStats, StoryAligner
from repro.core.config import StoryPivotConfig
from repro.core.matchers import SnippetMatcher
from repro.core.stories import Story, StorySet
from repro.eventdata.models import Snippet


@dataclass(frozen=True)
class Move:
    """One refinement correction."""

    snippet_id: str
    source_id: str
    from_story: str
    to_story: str
    evidence: float  # counterpart vote mass supporting the move


@dataclass
class RefinementResult:
    """All corrections applied, plus the re-aligned view."""

    moves: List[Move] = field(default_factory=list)
    rounds: int = 0
    conflicts_checked: int = 0
    #: per round: snippets whose counterpart votes were computed / kept
    votes_recomputed: List[int] = field(default_factory=list)
    votes_reused: List[int] = field(default_factory=list)
    #: per round: multi-member stories not re-scanned for conflicts, their
    #: members' votes being those of an earlier conflict-free scan
    stories_certified: List[int] = field(default_factory=list)
    alignment: Optional[Alignment] = None
    #: of every alignment pass: the one handed over, then one per moving round
    passes: List[AlignmentStats] = field(default_factory=list)

    @property
    def num_moves(self) -> int:
        return len(self.moves)


Votes = Dict[str, Dict[str, float]]  # other source -> story id -> vote mass
Tally = Dict[str, List]  # story id -> [voters, vote mass summed in member order]


class StoryRefiner:
    """Resolve SI/SA conflicts by moving snippets between stories.

    The refiner remembers what its last round saw — a stamp of the
    aligner's counterpart graph, a copy of the snippet → story map, every
    snippet's votes with their voters per story, and the conflict-free
    stories — and each round brings that up to date with one diff.  A
    refiner that remembers nothing finds every snippet changed: from
    scratch is the same code.  ``config`` must not change between calls.
    """

    def __init__(
        self,
        config: Optional[StoryPivotConfig] = None,
        decisions=None,
        aligner: Optional[StoryAligner] = None,
    ) -> None:
        self.config = config if config is not None else StoryPivotConfig()
        self.matcher = SnippetMatcher(self.config)
        #: the aligner that made the alignment ``refine`` is handed, so that
        #: re-alignments diff against it (and score with its source trust);
        #: a private one has seen nothing and re-aligns from scratch once
        self.aligner = aligner if aligner is not None else StoryAligner(self.config)
        #: optional repro.obs.decisions.DecisionLog; every applied Move
        #: is recorded as a "refined" event with its evidence mass
        self.decisions = decisions
        self._forget()

    def _forget(self) -> None:
        # a stamp of the aligner's counterpart graph taken at the last round:
        # a snippet stamped later has other counterparts than its votes
        self._read_at = -1
        self._votes_of: Dict[str, Votes] = {}
        # snippet id -> story id the votes were computed under.  A copy,
        # never the story sets' own map: moves and canonicalize_result_ids
        # rewrite that in place, and the diff would see nothing
        self._homes: Dict[str, str] = {}
        # story id -> its members' votes, in time order, as of a scan that
        # found no conflict; _find_conflict reads nothing else of a story
        self._certified: Dict[str, Tuple[Votes, ...]] = {}
        # _votes_of reversed, story -> voters (lists: a fifth of sets' memory)
        self._voted_by: Dict[str, List[str]] = {}

    def refine(
        self,
        story_sets: Mapping[str, StorySet],
        alignment: Alignment,
    ) -> RefinementResult:
        """Refine ``story_sets`` in place.

        Returns the result carrying the final re-computed alignment (also
        the passed ``alignment`` object stays valid only if no moves
        happened; callers should use ``result.alignment``).
        """
        result = RefinementResult(alignment=alignment, passes=[alignment.stats])
        try:
            for _ in range(self.config.max_refinement_rounds):
                self._refresh_votes(story_sets, result)
                moves = self._one_round(story_sets, result)
                result.rounds += 1
                if not moves:
                    break
                result.alignment = self.aligner.align(story_sets)
                result.passes.append(result.alignment.stats)
        except BaseException:
            self._forget()  # half-updated: the next refine starts over
            raise
        return result

    # -- counterpart computation ------------------------------------------

    def _refresh_votes(
        self, story_sets: Mapping[str, StorySet], result: RefinementResult
    ) -> None:
        """Bring the counterpart graph, the votes and their voters up to date.

        Stale are the votes of a snippet whose pairs changed since this
        refiner's last round — whether or not an alignment synced the graph
        in between — and of every counterpart of a snippet that is new,
        gone or under another story id.  Recomputing re-sums stored scores.
        """
        stories = [story for story_set in story_sets.values() for story in story_set]
        homes: Dict[str, str] = {}
        for story_set in story_sets.values():
            homes.update(story_set.snippet_homes)
        graph = self.aligner.counterparts
        graph.sync(stories)
        since, self._read_at = self._read_at, graph.mark()
        stale: Set[str] = set()
        for snippet_id, _ in homes.items() ^ self._homes.items():
            stale.update(pair[1] for pair in graph.pairs(snippet_id))
        # only members of multi-member stories can be in (or resolve) a
        # conflict, so singleton stories carry no votes at all
        votes_of: Dict[str, Votes] = {}
        recomputed: List[str] = []
        for story in stories:
            if len(story) < 2:
                continue
            for snippet_id, snippet in story.members.items():
                votes = self._votes_of.get(snippet_id)
                if (votes is None or snippet_id in stale
                        or graph.stamp(snippet_id) > since):
                    votes = self._counterpart_votes(snippet, story_sets)
                    recomputed.append(snippet_id)
                votes_of[snippet_id] = votes
        # the voter index follows the snippets whose votes object changed
        old, voted_by = self._votes_of, self._voted_by
        for snippet_id in [*(old.keys() - votes_of.keys()), *recomputed]:
            for per_source in old.get(snippet_id, {}).values():
                for story_id in per_source:
                    voted_by[story_id].remove(snippet_id)
                    if not voted_by[story_id]:
                        del voted_by[story_id]
        for snippet_id in recomputed:
            for per_source in votes_of[snippet_id].values():
                for story_id in per_source:
                    voted_by.setdefault(story_id, []).append(snippet_id)
        self._votes_of, self._homes = votes_of, homes
        result.votes_recomputed.append(len(recomputed))
        result.votes_reused.append(len(votes_of) - len(recomputed))

    def _counterpart_votes(
        self, snippet: Snippet, story_sets: Mapping[str, StorySet]
    ) -> Votes:
        """Per other source: counterpart story id → vote mass.

        A counterpart is a cross-source snippet within the align tolerance,
        sharing a feature, whose similarity clears the snippet-align
        threshold; its vote mass is that similarity, on the story holding it.
        """
        tolerance = self.config.snippet_align_tolerance
        # TemporalIndex.around's bounds, the window the votes were cast in
        low, high = snippet.timestamp - tolerance, snippet.timestamp + tolerance
        graph = self.aligner.counterparts
        votes: Votes = {}
        for timestamp, other_id, score, shared in graph.pairs(snippet.snippet_id):
            if not shared or not low <= timestamp <= high:
                continue
            source_id = graph.source_of(other_id)
            story_id = story_sets[source_id].snippet_homes[other_id]
            per_source = votes.setdefault(source_id, {})
            per_source[story_id] = per_source.get(story_id, 0.0) + score
        # in the story sets' source order, not the graph's: the order a
        # snippet's votes are summed in must not depend on what is remembered
        return {source_id: votes[source_id] for source_id in story_sets
                if source_id in votes}

    # -- one refinement round ------------------------------------------------

    def _one_round(
        self,
        story_sets: Mapping[str, StorySet],
        result: RefinementResult,
    ) -> List[Move]:
        votes_of, voted_by = self._votes_of, self._voted_by
        moves: List[Move] = []
        # fresh stories created this round, keyed by (source, evidence
        # stories): conflicting snippets sharing evidence group together
        fresh_homes: Dict[Tuple[str, frozenset], Story] = {}
        certified, self._certified = self._certified, {}
        skipped = 0

        for source_id, story_set in sorted(story_sets.items()):
            for story in list(story_set):
                members = story.snippets()
                if len(members) < 2:
                    continue
                ballots = tuple(votes_of[s.snippet_id] for s in members)
                if certified.get(story.story_id) == ballots:
                    # the same votes in the same order: no conflict again
                    self._certified[story.story_id] = ballots
                    result.conflicts_checked += len(members)
                    skipped += 1
                    continue
                clean = True
                conflicts = self._find_conflicts(ballots)
                result.conflicts_checked += len(members)
                for snippet, conflict in zip(members, conflicts):
                    if conflict is None:
                        continue
                    clean = False
                    evidence_stories, evidence_mass = conflict
                    move = self._apply_move(
                        snippet, story, story_set, voted_by,
                        evidence_stories, evidence_mass, fresh_homes,
                    )
                    if move is not None:
                        moves.append(move)
                        result.moves.append(move)
                if clean:
                    self._certified[story.story_id] = ballots
        result.stories_certified.append(skipped)
        return moves

    def _find_conflicts(
        self, ballots: Tuple[Votes, ...]
    ) -> List[Optional[Tuple[Set[str], float]]]:
        """:meth:`_find_conflict` for every member of a story whose members'
        votes are ``ballots``, the ballots folded once for all of them."""
        tallies = _tally(ballots)
        leaders = {source_id: max(tally, key=lambda k: (tally[k][1], k))
                   for source_id, tally in tallies.items()}
        return [self._find_conflict(position, ballots, tallies, leaders)
                for position in range(len(ballots))]

    def _find_conflict(
        self, position: int, ballots: Tuple[Votes, ...],
        tallies: Dict[str, Tally], leaders: Dict[str, str],
    ) -> Optional[Tuple[Set[str], float]]:
        """Does the evidence of the member at ``position`` point elsewhere
        than its mates'?

        For each other source, compare the snippet's top-voted counterpart
        story with the story its mates collectively vote for.  A conflict
        needs the snippet's own favourite to beat its vote for the mates'
        favourite by ``refinement_margin``.  Returns the evidence stories
        (per-source favourites) and their total mass, or ``None``.
        """
        margin = self.config.refinement_margin
        my_votes = ballots[position]
        if not my_votes:
            return None
        evidence_stories: Set[str] = set()
        evidence_mass = 0.0
        agreements = 0
        conflicts = 0
        for source_id, per_source in my_votes.items():
            my_top = max(per_source, key=lambda k: (per_source[k], k))
            rest_top = _rest_top(
                position, source_id, ballots, tallies[source_id], leaders[source_id]
            )
            if rest_top is None:
                continue
            if rest_top == my_top:
                agreements += 1
                continue
            if per_source[my_top] < per_source.get(rest_top, 0.0) + margin:
                agreements += 1
                continue
            conflicts += 1
            evidence_stories.add(my_top)
            evidence_mass += per_source[my_top]
        # a single disagreeing source must not outweigh sources confirming
        # the current placement: conflicts need a strict majority of the
        # sources that expressed a preference at all
        if not evidence_stories or conflicts <= agreements:
            return None
        return evidence_stories, evidence_mass

    def _apply_move(
        self,
        snippet: Snippet,
        story: Story,
        story_set: StorySet,
        voted_by: Dict[str, List[str]],
        evidence_stories: Set[str],
        evidence: float,
        fresh_homes: Dict[Tuple[str, frozenset], Story],
    ) -> Optional[Move]:
        """Move the snippet to the same-source story sharing its evidence."""
        # candidate destinations: same-source stories holding a snippet that
        # also voted for one of the snippet's evidence stories (looked up at
        # move time, so earlier moves this round are taken into account)
        homes = story_set.snippet_homes
        candidate_ids: Set[str] = set()
        for evidence_story in evidence_stories:
            for voter_id in voted_by.get(evidence_story, ()):
                home_id = homes.get(voter_id)  # None: another source's voter
                if home_id is not None and home_id != story.story_id:
                    candidate_ids.add(home_id)
        best_story: Optional[Story] = None
        best_score = -1.0
        for candidate_id in sorted(candidate_ids):
            candidate = story_set.story(candidate_id)
            score = self.matcher.story_score(snippet, candidate)
            if score > best_score:
                best_story, best_score = candidate, score

        from_story_id = story.story_id
        founded = False
        if best_story is None:
            key = (snippet.source_id, frozenset(evidence_stories))
            best_story = fresh_homes.get(key)
            founded = best_story is None
            if founded:
                # before the snippet leaves: were it the last member of the
                # highest founded story, the id would name both stories
                best_story = fresh_homes[key] = story_set.found_story()
        story_set.unassign(snippet.snippet_id)
        story_set.assign(snippet, best_story)
        if self.decisions is not None:
            details = {"from_story": from_story_id}
            if founded:
                details["founded"] = True
            self.decisions.record(
                "refined", best_story.story_id, snippet.source_id,
                snippet_id=snippet.snippet_id, score=evidence, **details,
            )
        return Move(
            snippet_id=snippet.snippet_id,
            source_id=snippet.source_id,
            from_story=from_story_id,
            to_story=best_story.story_id,
            evidence=evidence,
        )


def _tally(ballots: Tuple[Votes, ...]) -> Dict[str, Tally]:
    """Every member's votes folded once, per source and story, in member
    order: the sum a member's mates make is this one less its own term."""
    tallies: Dict[str, Tally] = {}
    for votes in ballots:
        for source_id, per_source in votes.items():
            tally = tallies.setdefault(source_id, {})
            for story_id, mass in per_source.items():
                entry = tally.setdefault(story_id, [0, 0.0])
                entry[0] += 1
                entry[1] += mass
    return tallies


def _rest_top(
    position: int, source_id: str, ballots: Tuple[Votes, ...],
    tally: Tally, leader: str,
) -> Optional[str]:
    """The story the mates of the member at ``position`` vote for most on
    ``source_id``, ranked by ``(mass, id)`` with each mass summed in member
    order; ``None`` when no mate votes there.

    The mates' sums are the tally's, one term dropped.  A left fold of
    non-negative masses never grows when a term is dropped (rounding is
    monotone), so a member that did not vote for the ``leader`` (the
    tally's top by ``(mass, id)``) leaves it on top, with the same float.
    Otherwise ``total − own`` is within a rounding bound of each mates'
    sum, and only the stories the bound cannot separate from the best are
    summed again, exactly.
    """
    own = ballots[position][source_id]
    if leader not in own:
        return leader
    # a story only the member voted for is not among its mates' sums
    approx = {story_id: mass - own.get(story_id, 0.0)
              for story_id, (voters, mass) in tally.items()
              if voters > (story_id in own)}
    if not approx:
        return None
    # two folds and a subtraction: < 2n roundings, each off by at most
    # 2⁻⁵³ of the leader's mass; the bound is four times that
    bound = len(ballots) * 2.0 ** -50 * tally[leader][1]
    floor = max(approx.values()) - 2 * bound
    contenders = [story_id for story_id, mass in approx.items() if mass >= floor]
    if len(contenders) == 1:
        return contenders[0]
    exact = dict.fromkeys(contenders, 0.0)
    for at, votes in enumerate(ballots):
        per_source = votes.get(source_id)
        if at == position or not per_source:
            continue
        for story_id in contenders:
            if story_id in per_source:
                exact[story_id] += per_source[story_id]
    return max(exact, key=lambda k: (exact[k], k))
