"""Queries answered from the postings index equal the scan they replaced.

The scan — every integrated story's entity and term profile merged per
query, hard filters first — is kept here as the oracle: hit for hit the
same ``aligned_id``, the same float ``relevance`` (``==``; counts are
integers, so no sum depends on its order) and the same ``matched``
strings, hence the same ``/query`` bytes.  The rest pins the index's
lifetime: one per alignment instance, built by the first query, never
serving what predates a re-keyed or grown alignment.
"""

import itertools
import json
import sys
import threading
from urllib.parse import parse_qsl, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import alignment as alignment_module
from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.eventdata.models import DAY
from repro.eventdata.sourcegen import synthetic_corpus
from repro.query.engine import QueryEngine, StoryHit, story_index
from repro.query.parser import StoryQuery, parse_query
from repro.server.handlers import encode_cursor, route
from repro.server.views import ViewStore, canonicalize_result_ids
from repro.text.stem import stem

from test_fused_score import ledger_inputs

SEEDS = (5, 18, 26)


# -- the oracle: the profile-merging scan ----------------------------------------

def scan_story(aligned, query):
    if query.sources and not set(query.sources) <= set(aligned.source_ids):
        return None
    if query.after is not None and aligned.end < query.after:
        return None
    if query.before is not None and aligned.start > query.before:
        return None
    relevance = 0.0
    matched = []
    entity_profile = aligned.entity_profile()
    term_profile = aligned.term_profile()
    for entity in query.entities:
        weight = entity_profile.get(entity, 0.0)
        if weight <= 0:
            return None
        relevance += weight
        matched.append(f"entity {entity} ×{weight:g}")
    for keyword in query.keywords:
        stemmed = stem(keyword)
        weight = term_profile.get(stemmed, 0.0)
        if weight <= 0:
            return None
        relevance += weight
        matched.append(f"keyword {keyword} ({stemmed}) ×{weight:g}")
    if not query.entities and not query.keywords:
        relevance = float(len(aligned))
        matched.append("matched filters")
    return StoryHit(story=aligned, relevance=relevance, matched=tuple(matched))


def scan(alignment, query, limit=10, offset=0):
    if isinstance(query, str):
        vocabulary = set()
        for aligned in alignment.aligned.values():
            vocabulary |= set(aligned.entity_profile())
        query = parse_query(query, known_entities=vocabulary)
    hits = [
        hit for hit in (
            scan_story(aligned, query) for aligned in alignment.aligned.values()
        ) if hit is not None
    ]
    hits.sort(key=lambda h: (-h.relevance, h.story.aligned_id))
    return hits[offset:offset + limit]


def rows(hits):
    return [(h.story.aligned_id, h.relevance, h.matched) for h in hits]


def assert_same_hits(got, expected):
    assert rows(got) == rows(expected)
    # float, never an int that happens to compare equal: it is served as JSON
    assert all(type(h.relevance) is float for h in got)


# -- corpora ------------------------------------------------------------------------

def run(seed):
    corpus = synthetic_corpus(total_events=60, num_sources=4, seed=seed)
    return corpus, StoryPivot(StoryPivotConfig.temporal()).run(corpus)


WORLDS = {seed: run(seed) for seed in SEEDS}


def vocabulary(seed):
    """(entities, raw keywords, source ids, first and last timestamp)."""
    corpus, _ = WORLDS[seed]
    snippets = corpus.snippets_by_time()
    entities = sorted({e for s in snippets for e in s.entities})
    keywords = sorted({k for s in snippets for k in s.keywords})
    return (
        entities, keywords, sorted(corpus.sources),
        snippets[0].timestamp, snippets[-1].timestamp,
    )


@st.composite
def queries(draw):
    seed = draw(st.sampled_from(SEEDS))
    entities, keywords, sources, first, last = vocabulary(seed)
    # a short head of each vocabulary, so conjunctions and repeats happen
    entity = st.sampled_from(entities[:6] + ["ZZZ"])
    keyword = st.sampled_from(keywords[:8] + ["qqzzxx"])
    moment = st.none() | st.floats(first - 10 * DAY, last + 10 * DAY)
    query = StoryQuery(
        entities=tuple(draw(st.lists(entity, max_size=3))),
        keywords=tuple(draw(st.lists(keyword, max_size=3))),
        sources=tuple(draw(st.lists(
            st.sampled_from(sources + ["nobody"]), max_size=3
        ))),
        after=draw(moment),
        before=draw(moment),
    )
    return seed, query, draw(st.integers(1, 12)), draw(st.integers(0, 12))


class TestExecuteEqualsTheScan:
    @given(queries())
    @settings(max_examples=400, deadline=None)
    def test_generated_queries(self, drawn):
        seed, query, limit, offset = drawn
        alignment = WORLDS[seed][1].alignment
        engine = QueryEngine(alignment)
        if query.is_empty:
            with pytest.raises(ValueError):
                engine.execute(query, limit=limit, offset=offset)
            return
        assert_same_hits(
            engine.execute(query, limit=limit, offset=offset),
            scan(alignment, query, limit, offset),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_the_generated_queries_are_not_vacuous(self, seed):
        """Single terms, conjunctions, repeats and filters all find stories."""
        entities, keywords, sources, first, last = vocabulary(seed)
        alignment = WORLDS[seed][1].alignment
        engine = QueryEngine(alignment)
        busiest = max(alignment.aligned.values(), key=len)
        entity = busiest.top_entities(1)[0][0]
        for text in (
            f"entity:{entity}",
            f"entity:{entity} entity:{entity}",
            f"{entity} source:{sources[0]}",
            f"source:{sources[0]} source:{sources[1]}",
            f"keyword:{keywords[0]}",
        ):
            got = engine.execute(text, limit=50)
            assert got, text
            assert_same_hits(got, scan(alignment, text, limit=50))
        once = engine.execute(f"entity:{entity}", limit=1)[0]
        twice = engine.execute(f"entity:{entity} entity:{entity}", limit=1)[0]
        assert twice.relevance == 2 * once.relevance
        assert len(twice.matched) == 2
        assert engine.execute("entity:ZZZ") == []
        assert engine.execute(f"entity:{entity} keyword:qqzzxx") == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pivot_query_equals_its_scan(self, seed):
        """``StoryPivot.query``: either term suffices, counts are summed."""
        _, result = WORLDS[seed]
        alignment = result.alignment
        entities, keywords, *_ = vocabulary(seed)

        def scanned(entity, keyword, limit):
            stemmed = stem(keyword) if keyword is not None else None
            scored = []
            for aligned in alignment.aligned.values():
                relevance = 0.0
                if entity is not None:
                    relevance += aligned.entity_profile().get(entity, 0.0)
                if stemmed is not None:
                    relevance += aligned.term_profile().get(stemmed, 0.0)
                if relevance > 0:
                    scored.append((aligned, relevance))
            scored.sort(key=lambda kv: (-kv[1], kv[0].aligned_id))
            return scored[:limit]

        pivot = StoryPivot()
        for entity, keyword in itertools.product(
            [None, "ZZZ"] + entities[:4], [None, "qqzzxx"] + keywords[:4]
        ):
            if entity is None and keyword is None:
                continue
            for limit in (1, 3, 100):
                got = pivot.query(alignment, entity, keyword, limit)
                assert got == scanned(entity, keyword, limit)
                assert all(type(score) is float for _, score in got)


# -- /query payload bytes -----------------------------------------------------------

def scanned_payload(view, text, limit, offset):
    """``handlers.query``'s payload, with the scan in the engine's place."""
    hits = scan(view.alignment, text, limit + 1, offset)
    return {
        "generation": view.generation,
        "query": text,
        "results": [
            {
                "story": view.story_details[hit.story.aligned_id],
                "relevance": hit.relevance,
                "matched": list(hit.matched),
            }
            for hit in hits[:limit]
        ],
        "next_cursor": (
            encode_cursor(offset + limit) if len(hits) > limit else None
        ),
    }


class TestQueryPayloadBytes:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_over_the_ledgers_read_mix(self, seed):
        inputs = ledger_inputs()
        corpus = inputs.make_corpus("read_static", 120, 6, seed)
        view = ViewStore(dataset="read_static").install(
            StoryPivot().run(corpus), corpus=corpus
        )
        mix = inputs.ReadMix(view.stories, view.sources, seed)
        urls = sorted({
            path for path, _ in mix.requests(2500) if path.startswith("/query")
        })
        assert len(urls) > 150
        kinds = {url.split("q=")[1].split(":")[0] for url in urls}
        assert kinds == {"entity", "keyword", "source"}
        paged = 0
        for url in urls:
            params = dict(parse_qsl(urlsplit(url).query))
            # second pages too: the mix itself only asks for first ones
            for cursor in ("", encode_cursor(int(params["limit"]))):
                if cursor:
                    params["cursor"] = cursor
                served = route(view, "/query", params).payload
                expected = scanned_payload(
                    view, params["q"], int(params["limit"]),
                    int(params["limit"]) if cursor else 0,
                )
                assert json.dumps(served, sort_keys=True) == json.dumps(
                    expected, sort_keys=True
                ), url
                paged += bool(cursor and served["results"])
        assert paged  # some second page had hits on it


# -- the index's lifetime -----------------------------------------------------------

PROBES = ("source:s000", "after:2014-01-01", "entity:{entity}", "{entity}")


def probes(alignment):
    entity = max(alignment.aligned.values(), key=len).top_entities(1)[0][0]
    return [text.format(entity=entity) for text in PROBES]


def assert_index_current(alignment):
    for text in probes(alignment):
        assert_same_hits(
            QueryEngine(alignment).execute(text, limit=500),
            scan(alignment, text, limit=500),
        )


class TestIndexLifetime:
    def test_one_index_per_alignment_built_by_the_first_query(self):
        corpus = synthetic_corpus(total_events=30, num_sources=3, seed=2)
        alignment = StoryPivot().run(corpus).alignment
        index = story_index(alignment)
        assert story_index(alignment) is index
        QueryEngine(alignment).execute("source:s000")
        assert story_index(alignment) is index
        assert QueryEngine(alignment)._known_entities is index.vocabulary

    def test_the_next_finish_is_queried_through_a_fresh_index(self):
        corpus = synthetic_corpus(total_events=40, num_sources=3, seed=9)
        snippets = corpus.snippets_by_publication()
        pivot = StoryPivot(StoryPivotConfig.temporal())
        for snippet in snippets[: len(snippets) // 2]:
            pivot.add_snippet(snippet)
        first = pivot.finish().alignment
        assert_index_current(first)
        stale = story_index(first)
        sizes = rows(QueryEngine(first).execute("after:2014-01-01", limit=500))

        for snippet in snippets[len(snippets) // 2:]:
            pivot.add_snippet(snippet)
        second = pivot.finish().alignment
        assert story_index(second) is not stale
        assert_index_current(second)
        grown = rows(QueryEngine(second).execute("after:2014-01-01", limit=500))
        assert sum(r[1] for r in grown) == len(snippets) > sum(r[1] for r in sizes)

        for snippet in snippets[:5]:
            pivot.remove_snippet(snippet.snippet_id)
        third = pivot.finish().alignment
        assert_index_current(third)
        shrunk = rows(QueryEngine(third).execute("after:2014-01-01", limit=500))
        assert sum(r[1] for r in shrunk) == len(snippets) - 5

    def test_an_index_touched_before_canonicalization_serves_canonical_ids(
        self, monkeypatch
    ):
        # live ids that cannot coincide with the canonical c'000000…
        monkeypatch.setattr(
            alignment_module, "_aligned_counter", itertools.count(7000)
        )
        corpus = synthetic_corpus(total_events=40, num_sources=3, seed=4)
        result = StoryPivot(StoryPivotConfig.temporal()).run(corpus)
        alignment = result.alignment
        before = {h.story.aligned_id for h in QueryEngine(alignment).execute(
            "after:2014-01-01", limit=500
        )}
        live = set(alignment.aligned)
        assert before == live
        canonicalize_result_ids(result)
        assert not live & set(alignment.aligned)
        assert_index_current(alignment)
        after = [h.story.aligned_id for h in QueryEngine(alignment).execute(
            "after:2014-01-01", limit=500
        )]
        assert set(after) == set(alignment.aligned)
        assert all(
            alignment.aligned[aligned_id].aligned_id == aligned_id
            for aligned_id in after
        )

    def test_an_alignment_extended_in_place_is_indexed_again(self):
        corpus = synthetic_corpus(total_events=40, num_sources=4, seed=6)
        held_out = sorted(corpus.sources)[-1]
        pivot = StoryPivot(StoryPivotConfig.temporal())
        late = []
        for snippet in corpus.snippets_by_time():
            if snippet.source_id == held_out:
                late.append(snippet)
            else:
                pivot.add_snippet(snippet)
        alignment = pivot.finish().alignment
        assert QueryEngine(alignment).execute(f"source:{held_out}") == []
        assert pivot.add_source_snippets(late, alignment) is alignment
        assert QueryEngine(alignment).execute(f"source:{held_out}")
        assert_index_current(alignment)

    def test_eight_threads_issuing_the_first_query_agree(self):
        corpus = synthetic_corpus(total_events=60, num_sources=4, seed=8)
        alignment = StoryPivot(StoryPivotConfig.temporal()).run(corpus).alignment
        text = probes(alignment)[2]
        expected = rows(scan(alignment, text, limit=500))
        assert expected
        barrier = threading.Barrier(8)
        answers, indexes = [], []

        def first_query():
            barrier.wait(timeout=10)
            answers.append(rows(QueryEngine(alignment).execute(text, limit=500)))
            indexes.append(story_index(alignment))

        threads = [threading.Thread(target=first_query) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * 8
        assert all(index is indexes[0] for index in indexes)
