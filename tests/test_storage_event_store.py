"""Tests for the match features every per-source index is keyed on."""

from repro.storage.event_store import match_terms
from tests.conftest import make_snippet


class TestMatchTerms:
    def test_combines_keywords_and_description(self):
        snippet = make_snippet("v", description="plane crash",
                               keywords=("investigation",))
        terms = match_terms(snippet)
        assert set(terms) == {"investig", "plane", "crash"}

    def test_stopwords_removed(self):
        snippet = make_snippet("v", description="the crash of the plane",
                               keywords=())
        assert "the" not in match_terms(snippet)

    def test_deduplicated_stable_order(self):
        snippet = make_snippet("v", description="crash crashes crashing",
                               keywords=("crash",))
        assert match_terms(snippet) == ("crash",)

    def test_memoized_on_instance(self):
        snippet = make_snippet("v")
        assert match_terms(snippet) is match_terms(snippet)
