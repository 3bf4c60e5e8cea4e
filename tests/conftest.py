"""Shared fixtures for the StoryPivot test suite."""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import pytest

pytest_plugins = ("repro.analysis.pytest_lockwatch",)

from repro.core.config import StoryPivotConfig
from repro.eventdata.corpus import Corpus
from repro.eventdata.handcrafted import demo_config, mh17_corpus
from repro.eventdata.models import Snippet, Source, parse_timestamp
from repro.eventdata.sourcegen import synthetic_corpus
from repro.resilience import RetryPolicy
from repro.sketch.lsh import LshIndex
from repro.storage import InvertedIndex, TemporalIndex


@pytest.fixture
def mh17():
    """The handcrafted two-source demo corpus."""
    return mh17_corpus()


@pytest.fixture
def demo_cfg():
    return demo_config()


@pytest.fixture(scope="session")
def small_synthetic():
    """A small labelled synthetic corpus (session-scoped: generation cost)."""
    return synthetic_corpus(total_events=120, num_sources=4, seed=7)


@pytest.fixture(scope="session")
def medium_synthetic():
    """A mid-size labelled synthetic corpus for integration tests."""
    return synthetic_corpus(total_events=400, num_sources=5, seed=11)


@pytest.fixture(scope="session")
def src_lint():
    """One full lint of the ``src/`` tree, shared by the whole-tree gates.

    Every rule family runs; a gate filters ``findings`` to the families it
    owns.  ``elapsed`` times the whole run and ``stats`` is the call
    graph's resolution accounting.
    """
    from repro.analysis import LintEngine

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    engine = LintEngine()
    started = time.monotonic()
    findings, checked = engine.check_paths(
        [os.path.join(repo_root, "src")], root=repo_root
    )
    return SimpleNamespace(
        findings=findings,
        checked=checked,
        elapsed=time.monotonic() - started,
        stats=engine.last_project.stats(),
    )


@pytest.fixture
def default_config():
    return StoryPivotConfig()


def make_snippet(
    snippet_id: str,
    source_id: str = "s1",
    date: str = "2014-07-17",
    description: str = "plane crash",
    entities=("UKR", "MAS"),
    keywords=("crash", "plane"),
    **kwargs,
) -> Snippet:
    """Terse snippet builder used across test modules."""
    return Snippet(
        snippet_id=snippet_id,
        source_id=source_id,
        timestamp=parse_timestamp(date),
        description=description,
        entities=frozenset(entities),
        keywords=tuple(keywords),
        **kwargs,
    )


#: no retries: a snippet that fails goes straight to the dead-letter queue
ONE_ATTEMPT = RetryPolicy(max_attempts=1)


def crash_on_dead_letter(shard, message) -> None:
    """Make every dead-letter append on ``shard`` raise.

    With the runtime on :data:`ONE_ATTEMPT`, each snippet the shard's
    ``fault_hook`` rejects is dead-lettered at once, and the append
    raises ``OSError(message(snippet_id))``: a crash that escapes the
    shard's consume and reaches its supervisor.
    """

    def append(snippet, error, attempts, shard_id=-1):
        raise OSError(message(snippet.snippet_id))

    shard.dlq.append = append


#: the candidate indexes each (mode, sketches) reads, and so holds
MODE_INDEXES = {
    ("temporal", False): {"_postings"},
    ("temporal", True): {"_temporal", "_lsh"},
    ("complete", False): {"_inverted"},
    ("complete", True): {"_lsh"},
    ("single_pass", False): set(),
    ("single_pass", True): set(),
}


def held_indexes(identifier):
    """Every candidate index ``identifier`` holds, in held order: found by
    type on the identifier, so an index its mode does not read (empty or
    not) fails here rather than passing unexamined."""
    held = {}
    for name, index in vars(identifier).items():
        if isinstance(index, TemporalIndex):
            held[name] = (list(index._positions.items()), list(index.items()))
        elif isinstance(index, InvertedIndex):
            held[name] = (list(index._features_of.items()),
                          list(index._postings.items()))
        elif isinstance(index, LshIndex):
            held[name] = (index._buckets, list(index._signatures.items()))
        elif name == "_postings":
            held[name] = [(feature, list(posting))
                          for feature, posting in index.items()]
    mode = (identifier.mode, identifier.config.use_sketches)
    assert set(held) == MODE_INDEXES[mode]
    return held


@pytest.fixture
def snippet_factory():
    return make_snippet


@pytest.fixture
def chaos():
    """Factory for seeded deterministic fault injectors.

    ``chaos(seed=7, profile="poison")`` returns a
    :class:`repro.resilience.faults.FaultInjector`; same seed + profile
    always produces the same fault sequence at each site.
    """
    from repro.resilience.faults import FaultInjector

    def make(seed: int = 0, profile="default", **kwargs) -> FaultInjector:
        return FaultInjector(seed=seed, profile=profile, **kwargs)

    return make


@pytest.fixture
def two_source_corpus():
    """A minimal fully-controlled corpus with two sources and two stories."""
    corpus = Corpus("mini")
    corpus.add_source(Source("a", "Alpha Times"))
    corpus.add_source(Source("b", "Beta Journal"))
    rows = [
        ("a:1", "a", "2014-07-01", "flood rescue", ("IND",), ("flood", "rescue"), "w1"),
        ("a:2", "a", "2014-07-03", "flood aid", ("IND", "UN"), ("flood", "aid"), "w1"),
        ("a:3", "a", "2014-07-20", "election vote", ("FRA",), ("election", "vote"), "w2"),
        ("b:1", "b", "2014-07-02", "flood rescue teams", ("IND",), ("flood", "rescue"), "w1"),
        ("b:2", "b", "2014-07-21", "election ballot", ("FRA",), ("election", "ballot"), "w2"),
    ]
    for sid, src, date, desc, ents, kws, label in rows:
        corpus.add_snippet(
            make_snippet(sid, src, date, desc, ents, kws), label
        )
    return corpus
