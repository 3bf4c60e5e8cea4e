"""What a snippet holds in memory: its fields, one memo slot, no ``__dict__``.

Every snippet seen is kept once per copy of the state (shards, merged
pivots, views), so ``Snippet`` is a slotted frozen dataclass whose only
memo is the ``match_terms`` tuple, and a story sketch holds each member's
own ``entities`` frozenset and term tuple instead of copies.  These tests
pin that layout and that results do not move with it.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.core.matchers import snippet_features
from repro.core.stories import Story
from repro.eventdata.models import Snippet
from repro.eventdata.sourcegen import synthetic_corpus
from repro.sketch.story_sketch import StorySketch
from repro.storage.event_store import match_terms


def warm_snippet() -> Snippet:
    snippet = Snippet(
        "s1:v1", "s1", 1405555200.0, "Plane crash in eastern Ukraine",
        entities=frozenset({"Ukraine", "Malaysian Airlines"}),
        keywords=("crash", "plane"), published=1405558800.0,
    )
    snippet_features(snippet)  # fills the one memo, through match_terms
    return snippet


def test_a_snippet_has_no_dict():
    snippet = warm_snippet()
    assert not hasattr(snippet, "__dict__")
    assert "__dict__" not in Snippet.__slots__
    with pytest.raises(AttributeError):
        object.__setattr__(snippet, "_undeclared_memo", 1)


def test_memos_fill_their_slots():
    """Exactly one memo slot, ``_match_terms``; scoring stores no set."""
    snippet = warm_snippet()
    memos = [f.name for f in dataclasses.fields(Snippet) if not f.init]
    assert memos == ["_match_terms"]
    assert set(Snippet.__slots__) == {f.name for f in dataclasses.fields(Snippet)}
    assert snippet._match_terms is match_terms(snippet)
    assert isinstance(snippet._match_terms, tuple)


def test_memos_are_outside_eq_hash_and_repr():
    warm = warm_snippet()
    cold = dataclasses.replace(warm)
    assert cold._match_terms is None and warm._match_terms is not None
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert "_match_terms" not in repr(warm)


def test_replace_returns_empty_memos():
    changed = dataclasses.replace(warm_snippet(), description="Plane shot down")
    assert changed._match_terms is None
    assert "shot" in match_terms(changed)


@pytest.mark.parametrize("clone", [
    *(lambda s, p=p: pickle.loads(pickle.dumps(s, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy,
    copy.deepcopy,
], ids=[*(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        "copy", "deepcopy"])
def test_copies_round_trip_equal_without_memos(clone):
    snippet = warm_snippet()
    copied = clone(snippet)
    assert copied == snippet
    assert copied.published == 1405558800.0
    assert copied._match_terms is None
    assert snippet_features(copied) == snippet_features(snippet)


def test_a_sketch_holds_the_snippets_own_entities():
    """A member is one map entry holding the snippet's own containers."""
    snippet = warm_snippet()
    story = Story("c1", "s1")
    story.add(snippet)
    for sketch in (story.sketch, story.sketch.copy(), story.copy().sketch):
        timestamp, entities, terms = sketch._members[snippet.snippet_id]
        assert timestamp == snippet.timestamp
        assert entities is snippet.entities
        assert terms is snippet._match_terms


def test_other_iterables_are_held_as_tuples():
    sketch = StorySketch()
    sketch.add("v1", 0.0, ["b", "a", "b"], ["t"])
    assert sketch._members["v1"] == (0.0, ("b", "a", "b"), ("t",))
    assert sketch.entity_counts == {"b": 2, "a": 1}


def test_frozensets_count_and_sum_as_their_tuples_do():
    """On a seeded corpus: the same Counter key order, the same floats."""
    snippets = synthetic_corpus(total_events=60, num_sources=2, seed=3).snippets()
    held, copied = StorySketch(), StorySketch()
    for snippet in snippets:
        terms = match_terms(snippet)
        held.add(snippet.snippet_id, snippet.timestamp, snippet.entities, terms)
        copied.add(
            snippet.snippet_id, snippet.timestamp, tuple(snippet.entities), terms
        )
    assert list(held.entity_counts.items()) == list(copied.entity_counts.items())
    assert held.entity_mass == copied.entity_mass
    for probe in snippets[::7]:
        at = probe.timestamp
        assert held.entity_profile(at) == copied.entity_profile(at)
        assert list(held.entity_profile(at)) == list(copied.entity_profile(at))
        assert held.decayed_shares(
            probe.entities, frozenset(match_terms(probe)), at, at + 3600.0
        ) == copied.decayed_shares(
            probe.entities, frozenset(match_terms(probe)), at, at + 3600.0
        )
    for snippet in snippets[::3]:
        held.remove(snippet.snippet_id)
        copied.remove(snippet.snippet_id)
    assert list(held.entity_counts.items()) == list(copied.entity_counts.items())
    assert list(held.copy().entity_counts.items()) == list(
        copied.copy().entity_counts.items()
    )
