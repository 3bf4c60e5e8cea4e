"""Each identification mode indexes what its lookup reads, and finds the
candidates the window-then-features scan finds.

The oracle is the lookup identification made before the time-ordered
feature postings, kept here over shadow indexes of the held snippets: the
snippet ids of a :class:`TemporalIndex` window intersected with the union
of entity and term :class:`InvertedIndex` postings (with sketches, with the
LSH's candidates), the union alone in complete mode, every story in
single-pass mode — mapped to their stories.  A seeded synthetic stream is
fed out of time order, with ids that start with ``"\\uffff"`` or with a
character that sorts after it, snippets exactly ω before and after one
they share every feature with, withdrawals and revised re-additions,
through a config loose enough that identification merges and splits
stories.
"""

import dataclasses
import random

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.core.stories import snippet_shingles
from repro.eventdata.sourcegen import synthetic_corpus
from repro.sketch.lsh import LshIndex
from repro.sketch.minhash import MinHash
from repro.storage import InvertedIndex, TemporalIndex
from repro.storage.event_store import match_terms
from tests.conftest import held_indexes

MODES = ("temporal", "complete", "single_pass")
#: sorts after "\uffff", so past any "\uffff" sentinel an index might use
HIGH = "\U0001F4F0"


class Oracle:
    """The window ∩ inverted (or LSH) lookup over shadow indexes."""

    def __init__(self, config):
        self.config = config
        self.temporal = TemporalIndex()
        self.entities, self.terms = InvertedIndex(), InvertedIndex()
        self.minhash = MinHash(config.minhash_permutations)
        self.lsh = LshIndex(config.minhash_permutations, config.lsh_bands)

    def insert(self, snippet):
        self.temporal.insert(snippet.snippet_id, snippet.timestamp)
        self.entities.insert(snippet.snippet_id, snippet.entities)
        self.terms.insert(snippet.snippet_id, match_terms(snippet))
        self.lsh.insert(snippet.snippet_id, self.signature(snippet))

    def remove(self, snippet_id):
        for index in (self.temporal, self.entities, self.terms, self.lsh):
            index.remove(snippet_id)

    def signature(self, snippet):
        return self.minhash.signature(snippet_shingles(snippet))

    def candidates(self, identifier, snippet):
        config = self.config
        if config.identification_mode == "single_pass":
            return set(identifier.stories.story_ids())
        if config.use_sketches:
            ids = {snippet_id for snippet_id, _ in self.lsh.query(
                self.signature(snippet), config.sketch_candidate_floor)}
        else:
            ids = self.entities.candidates(snippet.entities)
            ids |= self.terms.candidates(match_terms(snippet))
            ids.discard(snippet.snippet_id)
        if config.identification_mode == "temporal":
            window = set(self.temporal.around(snippet.timestamp, config.window))
            window.discard(snippet.snippet_id)
            ids &= window
        return {identifier.stories.story_of(snippet_id).story_id
                for snippet_id in ids}


def indexed_ids(identifier):
    """index name -> every snippet id any part of that index holds."""
    found = {}
    for name, index in vars(identifier).items():
        if isinstance(index, TemporalIndex):
            found[name] = set(index._positions) | {
                snippet_id for _, snippet_id in index.items()}
        elif isinstance(index, InvertedIndex):
            found[name] = set(index._features_of).union(
                *index._postings.values())
        elif isinstance(index, LshIndex):
            found[name] = set(index._signatures).union(
                *(bucket for band in index._buckets for bucket in band.values()))
        elif name == "_postings":
            for posting in index.values():
                assert posting and posting == sorted(posting)
            found[name] = {snippet_id for posting in index.values()
                           for _, snippet_id in posting}
    return found


def stream(seed):
    """One source's snippets out of time order, with awkward ids and edge
    snippets: each marked snippet gains two copies ω before and after it,
    fed right after it, so one of them finds it exactly at its window's
    upper bound and the other at its lower bound."""
    corpus = synthetic_corpus(total_events=160, num_sources=3, seed=seed)
    source_id = sorted(corpus.sources)[0]
    window = StoryPivotConfig().window
    out = []
    for index, snippet in enumerate(
            s for s in corpus.snippets_by_publication()
            if s.source_id == source_id):
        if index % 5 == 0:
            prefix = ("\uffff", HIGH, "\uffff" + HIGH)[index % 3]
            snippet = dataclasses.replace(
                snippet, snippet_id=prefix + snippet.snippet_id)
        out.append(snippet)
        if index % 4 == 0:
            for sign, tag in ((-1, "-"), (1, "+" + HIGH)):
                out.append(dataclasses.replace(
                    snippet, snippet_id=snippet.snippet_id + tag,
                    timestamp=snippet.timestamp + sign * window))
    return out


def config_for(mode, sketches):
    """Loose enough that identification merges and splits stories."""
    return StoryPivotConfig.preset(
        mode, use_sketches=sketches, match_threshold=0.3,
        merge_threshold=0.35, split_gap=10 * 86400.0,
    )


@pytest.mark.parametrize("sketches", (False, True), ids=("plain", "sketched"))
@pytest.mark.parametrize("mode", MODES)
def test_candidates_equal_the_window_and_feature_scan(mode, sketches):
    config = config_for(mode, sketches)
    snippets = stream(seed=5)
    pivot = StoryPivot(config)
    oracle = Oracle(config)
    rng = random.Random(3)
    source_id = snippets[0].source_id
    identifier = pivot.identifier(source_id)
    held = {}

    def check(snippet):
        assert identifier._candidate_story_ids(snippet) == oracle.candidates(
            identifier, snippet), snippet.snippet_id

    def consistent():
        held_indexes(identifier)  # holds the indexes its mode reads, only
        for name, ids in indexed_ids(identifier).items():
            assert ids == set(held), name

    def add(snippet):
        check(snippet)  # what add() is about to score
        pivot.add_snippet(snippet)
        oracle.insert(snippet)
        held[snippet.snippet_id] = snippet
        check(snippet)  # held now: its own id is no candidate of its own
        consistent()

    def withdraw(snippet_id):
        pivot.remove_snippet(snippet_id)
        oracle.remove(snippet_id)
        withdrawn = held.pop(snippet_id)
        consistent()  # no index holds the withdrawn id
        check(withdrawn)

    withdrawn = []
    for position, snippet in enumerate(snippets):
        add(snippet)
        if position % 7 == 6:
            victim = rng.choice(sorted(held))
            withdrawn.append(held[victim])
            withdraw(victim)
    # withdrawn documents come back revised, under their old ids
    for snippet in withdrawn[::2]:
        add(dataclasses.replace(
            snippet, timestamp=snippet.timestamp + rng.randrange(-9, 10) * 86400.0))
    for snippet in list(held.values()):
        check(snippet)

    stats = identifier.stats
    assert stats.removals == len(withdrawn) and len(identifier.stories) > 1
    if mode != "single_pass":  # the baseline neither merges nor splits
        assert stats.merges > 0 and stats.splits > 0


@pytest.mark.parametrize("sketches", (False, True), ids=("plain", "sketched"))
@pytest.mark.parametrize("mode", MODES)
def test_copied_stories_index_on_first_use(mode, sketches):
    """``copy_stories`` defers indexing; the first add builds exactly what
    adding every snippet would have built."""
    config = config_for(mode, sketches)
    snippets = stream(seed=9)
    source = StoryPivot(config)
    for snippet in snippets[:-10]:
        source.add_snippet(snippet)
    copied = StoryPivot.copy_of(source.story_sets(), config)
    identifier = copied.identifier(snippets[0].source_id)
    assert all(not ids for ids in indexed_ids(identifier).values())
    copied.add_snippet(snippets[-1])
    source.add_snippet(snippets[-1])
    assert set(indexed_ids(identifier)) == set(indexed_ids(
        source.identifier(snippets[0].source_id)))
    for ids in indexed_ids(identifier).values():
        assert ids == set(identifier._snippets)
