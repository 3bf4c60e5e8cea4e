"""``story_score`` in one pass over members equals the dict-profile formula.

Two oracles.  (a) The formula as it stood — two whole profiles from
``StorySketch.entity_profile/term_profile`` and a timestamp sort per
call — kept here as a test helper: per-feature shared weights ``==``,
scores within 1e-12 (decayed; the profile mass is summed in another
order) and ``==`` (undecayed; integer counts).  (b) Everything
identification, alignment and refinement produce on the ledger's
``batch_density`` rungs and ``stream_volume`` corpus, three sub-seeds
each, against digests recorded from the commit before the fused pass::

    PYTHONPATH=<that tree>/src python tests/test_fused_score.py > \\
        tests/fixtures/fused_score_parent.json

Re-recorded at PR 22, which renamed refinement-founded stories
(``{source}/r000000`` …, not ids from the global counter): three digests
per ``batch_density`` corpus contain those strings.  Before re-recording,
parent and change were shown equal on all 12 corpora under digests that
replace each founded id by its rank among founded ids (DESIGN.md,
"Founded ids that repeat").
"""

import hashlib
import importlib.util
import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)  # test_delta_finish, when run as a script

from repro.core.config import StoryPivotConfig
from repro.core.matchers import SnippetMatcher, snippet_features
from repro.core.pipeline import StoryPivot
from repro.core.stories import Story
from repro.eventdata.models import DAY
from repro.eventdata.sourcegen import synthetic_corpus
from repro.obs.decisions import DecisionLog
from repro.text.similarity import combine_weighted, temporal_proximity

from test_delta_finish import same_ids

RECORDED = os.path.join(HERE, "fixtures", "fused_score_parent.json")
SEED = 1
SUB_SEEDS = (0, 1, 2)


# -- (a) the dict-profile formula ------------------------------------------------

def profile_overlap(features, profile):
    if not features or not profile:
        return 0.0
    shared = sum(min(1.0, profile.get(f, 0.0)) for f in features)
    denominator = min(float(len(features)), sum(profile.values()))
    if denominator <= 0:
        return 0.0
    return min(1.0, shared / denominator)


def profile_score(config, snippet, story, at_time=None):
    decayed = config.identification_mode == "temporal"
    reference = at_time if at_time is not None else snippet.timestamp
    sketch = story.sketch
    entities, terms = snippet_features(snippet)
    nearest = min(abs(snippet.timestamp - t) for t in sketch.timestamps())
    return combine_weighted({
        "entity": profile_overlap(
            entities, sketch.entity_profile(reference if decayed else None)),
        "term": profile_overlap(
            terms, sketch.term_profile(reference if decayed else None)),
        "temporal": temporal_proximity(0.0, nearest, config.window),
    }, config.weights)


SOURCE = "s000"
POOL = [
    s for s in synthetic_corpus(total_events=40, num_sources=2, seed=3)
    .snippets_by_time() if s.source_id == SOURCE
][:14]
CONFIGS = (
    StoryPivotConfig.temporal(),
    StoryPivotConfig.complete(),
    StoryPivotConfig.single_pass(),
)


@st.composite
def churned_stories(draw):
    """A story after adds, removals and re-adds in any order, a probe
    snippet, and an ``at_time`` (or none)."""
    story = Story(SOURCE + "/probe", SOURCE)
    toggles = draw(st.lists(
        st.integers(0, len(POOL) - 1), min_size=1, max_size=40
    ))
    for index in toggles:
        snippet = POOL[index]
        if snippet.snippet_id in story:
            story.remove(snippet.snippet_id)
        else:
            story.add(snippet)
    probe = POOL[draw(st.integers(0, len(POOL) - 1))]
    offset = draw(st.none() | st.floats(-90.0, 90.0))
    at_time = None if offset is None else probe.timestamp + offset * DAY
    return story, probe, at_time


class TestFusedPassEqualsProfileFormula:
    def test_the_pool_is_one_source_with_shared_features(self):
        assert len(POOL) == 14
        assert any(
            snippet_features(a)[0] & snippet_features(b)[0]
            for a in POOL for b in POOL if a is not b
        )

    @given(churned_stories())
    @settings(max_examples=300, deadline=None)
    def test_shared_weights_and_scores(self, drawn):
        story, probe, at_time = drawn
        sketch = story.sketch
        entities, terms = snippet_features(probe)
        if len(story):
            reference = at_time if at_time is not None else probe.timestamp
            e_shared, e_mass, t_shared, t_mass, nearest = sketch.decayed_shares(
                entities, terms, reference, probe.timestamp
            )
            e_profile = sketch.entity_profile(reference)
            t_profile = sketch.term_profile(reference)
            # bit-identical: the same adds in the same (insertion) order
            assert e_shared == {e: e_profile[e] for e in entities & set(e_profile)}
            assert t_shared == {t: t_profile[t] for t in terms & set(t_profile)}
            assert e_mass == pytest.approx(sum(e_profile.values()), rel=1e-12)
            assert t_mass == pytest.approx(sum(t_profile.values()), rel=1e-12)
            assert nearest == min(
                abs(probe.timestamp - t) for t in sketch.timestamps()
            )
        for config in CONFIGS:
            got = SnippetMatcher(config).story_score(probe, story, at_time=at_time)
            if not len(story):
                assert got == 0.0
            elif config.identification_mode == "temporal":
                assert abs(got - profile_score(config, probe, story, at_time)) <= 1e-12
            else:
                assert got == profile_score(config, probe, story, at_time)

    def test_insertion_order_differs_from_time_order(self):
        """The case the differential test must not miss by luck."""
        story = Story(SOURCE + "/probe", SOURCE)
        for snippet in (POOL[5], POOL[1], POOL[9], POOL[3]):
            story.add(snippet)
        story.remove(POOL[1].snippet_id)
        story.add(POOL[1])
        assert list(story.members) != [s.snippet_id for s in story.snippets()]
        config = CONFIGS[0]
        got = SnippetMatcher(config).story_score(POOL[2], story)
        assert abs(got - profile_score(config, POOL[2], story)) <= 1e-12


# -- (b) identification results, against the parent commit's --------------------

def ledger_inputs():
    path = os.path.join(HERE, os.pardir, "benchmarks", "ledger", "inputs.py")
    spec = importlib.util.spec_from_file_location("ledger_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _decisions(log):
    return [
        (e["event"], e["story_id"], e["snippet_id"], e["score"])
        for e in log.events()
    ]


def _clusters(story_sets):
    return {
        source: sorted(sorted(c) for c in story_set.as_clusters().values())
        for source, story_set in story_sets.items()
    }


def batch_fingerprint(inputs, events, sub, reset_ids):
    """A full temporal pass over one ``batch_density`` rung."""
    corpus = inputs.make_corpus(
        "batch_density", events, 5, inputs.sub_seed(SEED, sub)
    )
    reset_ids()
    log = DecisionLog(capacity=10**6)
    pivot = StoryPivot(StoryPivotConfig.temporal(), decision_log=log)
    for snippet in corpus.snippets_by_time():
        pivot.add_snippet(snippet)
    result = pivot.finish()
    moves = result.refinement.moves
    return {
        "snippets": len(corpus),
        "moves": len(moves),
        "per_source": _digest(_clusters(result.story_sets)),
        "refinement": _digest([
            (m.snippet_id, m.source_id, m.from_story, m.to_story,
             repr(m.evidence)) for m in moves
        ]),
        "story_to_aligned": _digest(result.alignment.story_to_aligned),
        "decisions": _digest(_decisions(log)),
    }


def stream_fingerprint(inputs, sub, reset_ids):
    """Identification over ``stream_volume``'s corpus in delivery order."""
    corpus = inputs.make_corpus(
        "stream_volume", 2400, 6, inputs.sub_seed(SEED, sub), days=366.0
    )
    reset_ids()
    log = DecisionLog(capacity=10**6)
    pivot = StoryPivot(StoryPivotConfig.temporal(), decision_log=log)
    for snippet in corpus.snippets_by_publication():
        pivot.add_snippet(snippet)
    return {
        "snippets": len(corpus),
        "stories": sum(len(s) for s in pivot.story_sets().values()),
        "per_source": _digest(_clusters(pivot.story_sets())),
        "decisions": _digest(_decisions(log)),
    }


RUNGS = (150, 300, 600)


@pytest.fixture(scope="module")
def recorded():
    with open(RECORDED, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def inputs():
    return ledger_inputs()


class TestResultsEqualTheParentCommits:
    @pytest.mark.parametrize("sub", SUB_SEEDS)
    @pytest.mark.parametrize("events", RUNGS)
    def test_batch_density_rung(self, inputs, recorded, monkeypatch, events, sub):
        got = batch_fingerprint(
            inputs, events, sub, lambda: same_ids(monkeypatch)
        )
        assert got["moves"] > 0  # refinement had something to decide
        assert got == recorded[f"batch_density/{events}/{sub}"]

    @pytest.mark.parametrize("sub", SUB_SEEDS)
    def test_stream_volume_corpus(self, inputs, recorded, monkeypatch, sub):
        got = stream_fingerprint(inputs, sub, lambda: same_ids(monkeypatch))
        assert got == recorded[f"stream_volume/{sub}"]


def _record() -> dict:
    """The fingerprints of whichever tree ``PYTHONPATH`` names."""
    import itertools

    from repro.core import alignment, stories

    def reset_ids():
        stories._story_counter = itertools.count()
        alignment._aligned_counter = itertools.count()

    inputs = ledger_inputs()
    out = {}
    for sub in SUB_SEEDS:
        for events in RUNGS:
            out[f"batch_density/{events}/{sub}"] = batch_fingerprint(
                inputs, events, sub, reset_ids
            )
        out[f"stream_volume/{sub}"] = stream_fingerprint(inputs, sub, reset_ids)
    return out


if __name__ == "__main__":
    json.dump(_record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
