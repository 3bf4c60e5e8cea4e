"""Seeded inputs of the four workloads.  The program sees only these.

What ``--seed`` decides, and what it does not
---------------------------------------------
Each workload's *world* — the ground-truth story arcs of
:mod:`repro.eventdata.worldgen` — and its source roster are fixed by the
constants below; ``--seed`` decides everything that happens to that
world on its way into the program: which sources report which event,
every snippet's keyword/entity noise and publication delay (hence the
out-of-order delivery), which snippets are re-delivered, and the request
sequence of the read mix.  The world is held fixed because story sizes
are exponentially distributed, so two worlds "of 600 events" differ by
±12% in events and ±30% in pass time, which is an input-size change, not
noise a benchmark should report as spread.

Repetition ``r`` of a run draws from sub-seed :func:`sub_seed`\\ ``(seed,
r)``: the five repetitions are five independent draws, the same five
whenever the seed is the same.
"""

from __future__ import annotations

import bisect
import json
import random
from typing import Dict, List, Sequence, Tuple

from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Snippet
from repro.eventdata.sourcegen import SourceSimulator, default_profiles
from repro.eventdata.worldgen import WorldConfig, WorldGenerator
from repro.server.handlers import encode_cursor

#: world seed per workload (fixed: see module docstring)
WORLD_SEEDS = {
    "batch_density": 7,
    "stream_volume": 11,
    "live_visible": 5,
    "read_static": 3,
}

#: share of snippets the stream delivers a second time
DUPLICATE_RATE = 0.10
#: a re-delivery trails its original by at most this many positions
DUPLICATE_MAX_LAG = 256

ZIPF_EXPONENT = 1.1
PAGE_LIMITS = (2, 3, 5, 8, 10, 20)
CONDITIONAL_RATE = 0.10


def sub_seed(seed: int, repetition: int) -> int:
    return seed * 1000 + repetition


def make_corpus(
    workload: str,
    events: int,
    sources: int,
    seed: int,
    days: float = 183.0,
) -> Corpus:
    """The workload's fixed world, as reported under ``seed``."""
    world_seed = WORLD_SEEDS[workload]
    generator = WorldGenerator(
        WorldConfig.for_total_events(
            events, seed=world_seed, duration_days=days
        )
    )
    ground = generator.events(generator.generate())
    simulator = SourceSimulator(
        default_profiles(sources, seed=world_seed + 1),
        seed=seed,
        entity_universe=generator.entity_universe,
    )
    return simulator.make_corpus(ground, name=workload)


def with_redeliveries(
    snippets: Sequence[Snippet], seed: int
) -> Tuple[List[Snippet], int]:
    """(delivery sequence, duplicates sent): ~10% arrive a second time."""
    rng = random.Random(seed)
    keyed = []
    duplicates = 0
    for position, snippet in enumerate(snippets):
        keyed.append((float(position), snippet))
        if rng.random() < DUPLICATE_RATE:
            lag = rng.randrange(1, DUPLICATE_MAX_LAG + 1)
            keyed.append((position + lag + 0.5, snippet))
            duplicates += 1
    keyed.sort(key=lambda pair: pair[0])
    return [snippet for _, snippet in keyed], duplicates


def write_jsonl(corpus: Corpus, snippets: Sequence[Snippet], path: str) -> None:
    """The wire file a ``jsonl:`` connector replays, labels included."""
    with open(path, "w", encoding="utf-8") as handle:
        for snippet in snippets:
            handle.write(json.dumps({
                "id": snippet.snippet_id,
                "source": snippet.source_id,
                "timestamp": snippet.timestamp,
                "published": snippet.published,
                "description": snippet.description,
                "body": snippet.text,
                "entities": sorted(snippet.entities),
                "keywords": list(snippet.keywords),
                "event_type": snippet.event_type,
                "story_label": corpus.truth.label(snippet.snippet_id),
            }))
            handle.write("\n")


# -- the read mix ------------------------------------------------------------

def _page(rng: random.Random, total: int) -> str:
    limit = rng.choice(PAGE_LIMITS)
    pages = max(1, -(-total // limit))
    offset = rng.randrange(pages) * limit
    query = f"limit={limit}"
    if offset:
        query += f"&cursor={encode_cursor(offset)}"
    return query


class ReadMix:
    """The 8-endpoint request generator over one view's catalog.

    ``stories`` are the view's story summaries in rank order (largest
    first); a story is drawn Zipf(1.1) over that rank, then a page of it
    uniformly, so popular stories' first pages stay cached while the
    tail of pages does not fit the 512-entry response cache.
    """

    ENDPOINTS = (
        "stories", "detail", "snippets", "sources",
        "source_stories", "stats", "query", "healthz",
    )
    #: the endpoints whose URLs hold no aligned-story id.  Aligned ids
    #: are re-minted by every alignment pass, so beside a live refresher
    #: an id read from one generation may be gone (404) in the next; a
    #: reader that must never fail keeps to these.
    ID_FREE = (
        "stories", "sources", "source_stories", "stats", "query", "healthz",
    )

    def __init__(
        self,
        stories: Sequence[Dict[str, object]],
        sources: Sequence[Dict[str, object]],
        seed: int,
        endpoints: Sequence[str] = ENDPOINTS,
    ) -> None:
        if not stories or not sources:
            raise ValueError("the read mix needs a non-empty view")
        self._stories = list(stories)
        self._sources = list(sources)
        self._endpoints = tuple(endpoints)
        self._rng = random.Random(seed)
        weights = [
            1.0 / (rank + 1) ** ZIPF_EXPONENT
            for rank in range(len(self._stories))
        ]
        self._cumulative: List[float] = []
        total = 0.0
        for weight in weights:
            total += weight
            self._cumulative.append(total)

    def story_rank(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return min(
            bisect.bisect_left(self._cumulative, point),
            len(self._stories) - 1,
        )

    def path(self) -> str:
        rng = self._rng
        endpoint = rng.choice(self._endpoints)
        if endpoint == "stories":
            return "/stories?" + _page(rng, len(self._stories))
        if endpoint == "sources":
            return "/sources"
        if endpoint == "stats":
            return "/stats"
        if endpoint == "healthz":
            return "/healthz"
        if endpoint == "source_stories":
            source = rng.choice(self._sources)
            return (f"/sources/{source['id']}/stories?"
                    + _page(rng, int(source["num_stories"])))
        story = self._stories[self.story_rank()]
        if endpoint == "detail":
            return f"/stories/{story['id']}"
        if endpoint == "snippets":
            return (f"/stories/{story['id']}/snippets?"
                    + _page(rng, int(story["num_snippets"])))
        # query: something this story would be found by
        choice = rng.randrange(3)
        if choice == 0 and story["entities"]:
            term = "entity:" + rng.choice(story["entities"])
        elif choice == 1 and story["description"]:
            term = "keyword:" + rng.choice(story["description"])
        else:
            term = "source:" + rng.choice(story["sources"])
        return f"/query?q={term}&limit={rng.choice(PAGE_LIMITS)}"

    def requests(self, count: int) -> List[Tuple[str, bool]]:
        """``count`` (path, conditional) pairs; ~10% are conditional GETs."""
        return [
            (self.path(), self._rng.random() < CONDITIONAL_RATE)
            for _ in range(count)
        ]
