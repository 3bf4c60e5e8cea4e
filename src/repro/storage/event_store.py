"""The match features a snippet is indexed and compared on.

Entities are a snippet's own field; the term features are computed here.
Every per-source candidate index is keyed on them: each source's
identifier keeps its own snippet map and the index its mode reads
(:class:`repro.core.identification.BaseIdentifier`), so this module holds
the feature function those indexes and the matchers share.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.eventdata.models import Snippet
from repro.text.stem import stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import word_tokens


def match_terms(snippet: Snippet) -> Tuple[str, ...]:
    """The term features a snippet is matched on.

    Keywords (annotations) plus description words, stemmed, stopword-free,
    deduplicated with stable order.  The result is memoized in the
    snippet's ``_match_terms`` slot (snippets are immutable), because
    matchers call this on every pairwise comparison.
    """
    cached = snippet._match_terms
    if cached is not None:
        return cached
    raw = list(snippet.keywords) + word_tokens(snippet.description)
    seen = []
    seen_set: Set[str] = set()
    for word in raw:
        lowered = word.lower()
        if lowered in STOPWORDS:
            continue
        stemmed = stem(lowered)
        if stemmed not in seen_set:
            seen_set.add(stemmed)
            seen.append(stemmed)
    result = tuple(seen)
    object.__setattr__(snippet, "_match_terms", result)
    return result
