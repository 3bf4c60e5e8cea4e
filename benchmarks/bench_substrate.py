"""Micro-benchmarks of the substrates the pipeline is built on.

Not a paper exhibit — these bound the constants behind Figure 7: index
insert/query, match-feature extraction (stemming + stopwords), TF-IDF
vectorization, snippet scoring and the temporal identifier's candidate
retrieval (feature postings intersected with the ω-window).

    pytest benchmarks/bench_substrate.py --benchmark-only
"""

import random

import pytest

from benchmarks.conftest import corpus_for
from repro.core.identification import TemporalIdentifier
from repro.core.matchers import SnippetMatcher
from repro.eventdata.models import DAY
from repro.storage.event_store import match_terms
from repro.storage.inverted_index import InvertedIndex
from repro.storage.temporal_index import TemporalIndex
from repro.text.stem import PorterStemmer
from repro.text.vectorize import TfIdfVectorizer

_WORDS = ("investigation crashes reporting elections negotiations "
          "markets sanctions outbreak vaccines tournaments").split()


def test_porter_stemmer(benchmark):
    stemmer = PorterStemmer()

    def run():
        return [stemmer.stem(word) for word in _WORDS]

    benchmark(run)


def test_match_terms_cold(benchmark):
    corpus = corpus_for(250)
    snippets = corpus.snippets()

    def run():
        # strip the per-instance cache so the full path is measured
        for snippet in snippets[:100]:
            object.__setattr__(snippet, "_match_terms", None)
            match_terms(snippet)

    benchmark(run)


def test_tfidf_vectorize(benchmark):
    vectorizer = TfIdfVectorizer()
    texts = [f"{_WORDS[i % len(_WORDS)]} report statement {i}" for i in range(50)]
    for text in texts:
        vectorizer.observe(text)
    benchmark(lambda: [vectorizer.vector(t) for t in texts[:10]])


def test_temporal_index_window_query(benchmark):
    index = TemporalIndex()
    rng = random.Random(5)
    for i in range(5000):
        index.insert(f"v{i}", rng.uniform(0, 180 * DAY))
    benchmark(index.around, 90 * DAY, 14 * DAY)


def test_inverted_index_candidates(benchmark):
    index = InvertedIndex()
    rng = random.Random(5)
    for i in range(5000):
        index.insert(f"v{i}", rng.sample(_WORDS, 3))
    benchmark(index.candidates, _WORDS[:3])


def test_identifier_candidates(benchmark):
    corpus = corpus_for(500)
    source_id = sorted(corpus.sources)[0]
    snippets = corpus.by_source(source_id)
    identifier = TemporalIdentifier(source_id)
    identifier.identify(snippets)
    query = snippets[len(snippets) // 2]
    identifier.remove(query.snippet_id)
    benchmark(identifier._candidate_story_ids, query)


def test_snippet_pair_scoring(benchmark):
    corpus = corpus_for(250)
    matcher = SnippetMatcher()
    snippets = corpus.snippets()[:60]
    # warm the per-snippet feature caches: steady-state scoring is measured
    for snippet in snippets:
        match_terms(snippet)

    def run():
        total = 0.0
        for i, a in enumerate(snippets):
            for b in snippets[i + 1 :]:
                total += matcher.snippet_score(a, b)
        return total

    benchmark(run)
