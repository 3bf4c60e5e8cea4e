"""Immutable materialized read views for the HTTP API.

The server never serves straight from pivot/alignment structures: every
response is rendered from a :class:`ReadView` — a frozen, fully
materialized snapshot of one :class:`~repro.core.pipeline.PivotResult`
(story listings, per-source listings, snippet rows, statistics) built
once and then only *read*.  A :class:`ViewStore` holds the current view
behind a single attribute that is swapped atomically, so request handlers
grab the view once, render everything from it, and can never observe a
torn mixture of two generations — ingestion and serving share no locks.

``generation`` is a monotonically increasing counter bumped on every
swap; it keys the response cache, feeds ETags, and is echoed in the
``X-StoryPivot-Generation`` response header.

:class:`ViewRefresher` rebuilds the view off a live
:class:`~repro.runtime.runtime.ShardedRuntime`: it polls the runtime's
accepted count every refresh interval and, when ingestion has advanced,
merges the shards (a read-only snapshot under the shard locks), runs
alignment and swaps in the fresh view.  The merged pivot is new every
generation — a published view's stories are never touched again — while
what alignment and refinement *remember* stays with the refresher, so a
refresh re-derives what arrived since the last one, not the corpus.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.alignment import AlignedStory, Alignment
from repro.core.pipeline import PivotResult
from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Snippet, format_timestamp
from repro.loop import Loop
from repro.obs.trace import NULL_TRACER


def _snippet_record(snippet: Snippet, role: str) -> Dict[str, object]:
    return {
        "id": snippet.snippet_id,
        "source": snippet.source_id,
        "timestamp": snippet.timestamp,
        "time": format_timestamp(snippet.timestamp),
        "description": snippet.description,
        "entities": sorted(snippet.entities),
        "keywords": list(snippet.keywords),
        "role": role,
        "url": snippet.url,
    }


def canonicalize_result_ids(result: PivotResult) -> Dict[str, str]:
    """Rewrite a result's story and aligned ids to content-derived ones.

    Live ids come from process-global counters, so a leader and a
    follower materializing the *same* replicated state would still label
    its stories differently — and their view payloads (hence ETags)
    would disagree.  Re-keying per-source stories through
    :func:`~repro.core.persistence.canonical_story_ids` and renumbering
    aligned stories by their smallest member id makes the ids a pure
    function of story content, so equivalent results render
    byte-identically on every node.

    Mutates ``result`` in place; call only after ``finish()``, on a
    result whose story sets are a standalone merge (never on live shard
    state).  Returns the live→canonical id mapping so callers can teach
    other components (e.g. the DecisionLog) about the rename.
    """
    from repro.core.persistence import canonical_story_ids

    mapping: Dict[str, str] = {}
    for story_set in result.story_sets.values():
        renamed = canonical_story_ids(story_set)
        mapping.update(renamed)
        # two-phase: a canonical target id may currently be held by a
        # *different* story (restored from a canonical checkpoint)
        for old_id in renamed:
            story_set.rebind_story_id(old_id, "\x00" + old_id)
        for old_id, new_id in renamed.items():
            story_set.rebind_story_id("\x00" + old_id, new_id)
    # Story objects are shared with the alignment, so member ids are
    # already canonical — renumber the aligned stories and re-key maps
    alignment = result.alignment
    ordered = sorted(
        alignment.aligned.values(),
        key=lambda a: min(a.story_ids) if a.stories else a.aligned_id,
    )
    alignment.aligned = {}
    alignment.story_to_aligned = {}
    for index, aligned in enumerate(ordered):
        aligned.aligned_id = f"c'{index:06d}"
        alignment.aligned[aligned.aligned_id] = aligned
        for story in aligned.stories:
            alignment.story_to_aligned[story.story_id] = aligned.aligned_id
    alignment.edge_scores = {
        tuple(sorted((mapping.get(a, a), mapping.get(b, b)))): score
        for (a, b), score in alignment.edge_scores.items()
    }
    return mapping


def _story_records(aligned: AlignedStory) -> Tuple[dict, dict]:
    """(listing row, detail record) of one integrated story, from one
    merge of each profile: the row's top-3 heads the record's top-5/9."""
    start_timestamp, end_timestamp = aligned.start, aligned.end
    start = format_timestamp(start_timestamp)
    end = format_timestamp(end_timestamp)
    sources = aligned.source_ids
    entities = aligned.top_entities(5)
    terms = aligned.top_terms(9)
    summary = {
        "id": aligned.aligned_id,
        "sources": sources,
        "num_sources": len(sources),
        "num_snippets": len(aligned),
        "entities": [name for name, _ in entities[:3]],
        "description": [term for term, _ in terms[:3]],
        "start": start,
        "end": end,
    }
    detail = {
        "id": aligned.aligned_id,
        "sources": sources,
        "story_ids": aligned.story_ids,
        "num_snippets": summary["num_snippets"],
        "entities": [
            {"name": name, "count": count} for name, count in entities
        ],
        "description": [
            {"term": term, "count": count} for term, count in terms
        ],
        "start": start,
        "end": end,
        "start_timestamp": start_timestamp,
        "end_timestamp": end_timestamp,
    }
    return summary, detail


class ReadView:
    """One frozen, fully materialized snapshot of the pivot state.

    Everything a handler needs is precomputed into plain lists and dicts
    at build time; after construction the view is never mutated, so any
    number of request threads can read it without synchronization.
    Built after a ``previous`` view, it reuses that view's records of
    unchanged snippets and stories (re-stamped with their new ``id``).
    """

    def __init__(
        self,
        result: PivotResult,
        generation: int,
        dataset: str = "corpus",
        corpus: Optional[Corpus] = None,
        previous: Optional["ReadView"] = None,
    ) -> None:
        self.generation = generation
        self.dataset = dataset
        self.built_at = time.time()
        #: trace id of the view.refresh that built this view (set by the
        #: refresher after install; None for static/empty views)
        self.trace_id: Optional[str] = None
        alignment = result.alignment
        self.alignment = alignment  # query engines bind to this

        ranked = sorted(
            alignment.aligned.values(),
            key=lambda a: (-len(a), a.aligned_id),
        )
        # what the next view may reuse: snippet id -> (snippet, record);
        # member story ids -> (their members, summary, detail)
        records = previous._records if previous is not None else {}
        built = previous._built if previous is not None else {}
        self._records: Dict[str, Tuple[Snippet, dict]] = {}
        self._built: Dict[tuple, tuple] = {}
        self.stories: List[Dict[str, object]] = []
        self.story_details: Dict[str, Dict[str, object]] = {}
        self.story_snippets: Dict[str, List[Dict[str, object]]] = {}
        for aligned in ranked:
            key = tuple(story.story_id for story in aligned.stories)
            entry = built.get(key)
            if entry is None or entry[0] != tuple(s.members for s in aligned.stories):
                entry = (tuple(dict(s.members) for s in aligned.stories),
                         *_story_records(aligned))
            self._built[key] = entry
            self.stories.append({**entry[1], "id": aligned.aligned_id})
            self.story_details[aligned.aligned_id] = {
                **entry[2], "id": aligned.aligned_id}
            rows = self.story_snippets[aligned.aligned_id] = []
            for snippet in aligned.snippets():
                role = alignment.role(snippet.snippet_id)
                old = records.get(snippet.snippet_id)
                self._records[snippet.snippet_id] = kept = (
                    old if old and old[0] is snippet and old[1]["role"] == role
                    else (snippet, _snippet_record(snippet, role)))
                rows.append(kept[1])

        source_meta = dict(corpus.sources) if corpus is not None else {}
        # (start, end) timestamps -> their formatted dates, for the next view
        dates = previous._dates if previous is not None else {}
        self._dates: Dict[Tuple[float, float], Tuple[str, str]] = {}
        self.source_stories: Dict[str, List[Dict[str, object]]] = {}
        self.sources: List[Dict[str, object]] = []
        for source_id in sorted(result.story_sets):
            story_set = result.story_sets[source_id]
            rows = []
            for story in story_set.stories_by_size():
                span = (story.start, story.end)
                pair = dates.get(span)
                if pair is None:
                    pair = story.date_range()
                start, end = self._dates[span] = pair
                rows.append({
                    "id": story.story_id,
                    "num_snippets": len(story),
                    "start": start,
                    "end": end,
                    "aligned_id": alignment.story_to_aligned.get(
                        story.story_id
                    ),
                })
            self.source_stories[source_id] = rows
            meta = source_meta.get(source_id)
            self.sources.append({
                "id": source_id,
                "name": meta.name if meta is not None else source_id,
                "kind": meta.kind if meta is not None else "unknown",
                "num_stories": len(story_set),
                "num_snippets": story_set.num_snippets,
            })

        entities = set()
        timestamps: List[float] = []
        for aligned in ranked:
            entities |= aligned.entity_set()
            timestamps.append(aligned.start)
            timestamps.append(aligned.end)
        self.stats: Dict[str, object] = {
            "dataset": dataset,
            "num_sources": len(result.story_sets),
            "num_snippets": sum(
                s.num_snippets for s in result.story_sets.values()
            ),
            "num_stories": result.num_stories,
            "num_integrated": result.num_integrated,
            "num_cross_source": len(alignment.cross_source_stories()),
            "num_entities": len(entities),
            "start": format_timestamp(min(timestamps)) if timestamps else None,
            "end": format_timestamp(max(timestamps)) if timestamps else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReadView(generation={self.generation}, "
            f"stories={len(self.stories)})"
        )


_EMPTY_RESULT = None


def empty_view() -> ReadView:
    """Generation-0 view served before the first build completes."""
    global _EMPTY_RESULT
    if _EMPTY_RESULT is None:
        _EMPTY_RESULT = PivotResult(
            story_sets={}, alignment=Alignment(), refinement=None
        )
    return ReadView(_EMPTY_RESULT, generation=0, dataset="empty")


class ViewStore:
    """Atomic holder of the current :class:`ReadView`.

    Readers call :meth:`current` — a single attribute read, no lock —
    while builders call :meth:`install`/:meth:`swap` under an internal
    lock that only serializes *writers*.  Generations are strictly
    monotonic: a swap never publishes an older view.
    """

    def __init__(self, dataset: str = "corpus") -> None:
        self.dataset = dataset
        self._lock = threading.Lock()
        self._view = empty_view()

    def current(self) -> ReadView:
        return self._view

    @property
    def generation(self) -> int:
        return self._view.generation

    def install(
        self,
        result: PivotResult,
        corpus: Optional[Corpus] = None,
        generation: Optional[int] = None,
    ) -> ReadView:
        """Build a view from ``result`` at the next generation and swap.

        An explicit ``generation`` pins the view to an external counter
        (replication pins it to the accepted-snippet count, so a leader
        and its followers assign the *same* generation to views built
        from the same ingested prefix — which makes their ETags
        comparable and monotonic reads possible across replicas).  A
        pinned generation that does not advance past the current view is
        a stale build: the current view is returned unchanged.
        """
        with self._lock:
            if generation is None:
                generation = self._view.generation + 1
            elif generation <= self._view.generation:
                return self._view
            view = ReadView(
                result,
                generation=generation,
                dataset=self.dataset,
                corpus=corpus,
                previous=self._view,
            )
            self._view = view
        return view

    def swap(self, view: ReadView) -> ReadView:
        """Publish a pre-built view; refuses to move generations backwards."""
        with self._lock:
            if view.generation <= self._view.generation:
                raise ValueError(
                    f"generation must advance: have "
                    f"{self._view.generation}, got {view.generation}"
                )
            self._view = view
        return view


class ViewRefresher:
    """Background rebuilds of a :class:`ViewStore` off a live runtime.

    Polls ``runtime.accepted`` every ``interval`` seconds, start to start
    (a refresh's duration is part of the period); when ingestion
    has advanced since the last build (or on :meth:`refresh` being called
    directly), takes a read-only merged snapshot of the shards, runs
    alignment/refinement on it, and swaps the result in.  The runtime is
    never blocked for longer than its own ``merged_pivot`` locking.

    Degradation contract: a rebuild failure never takes serving down —
    the last good view keeps being served, marked **stale**.
    :meth:`staleness` reports how far behind it is (0.0 when current),
    :meth:`health` summarizes it for ``/healthz``, and when a
    ``lag_budget`` is configured :meth:`should_shed` tells the server to
    answer data requests with 503 + Retry-After instead of serving
    arbitrarily old responses as if they were fresh.
    """

    def __init__(
        self,
        runtime,
        store: ViewStore,
        interval: float = 1.0,
        corpus: Optional[Corpus] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
        lag_budget: Optional[float] = None,
        metrics=None,
        tracer=None,
        decisions=None,
        pin_generations: bool = False,
        bus=None,
    ) -> None:
        self.runtime = runtime
        self.store = store
        self.interval = interval
        self.corpus = corpus
        self.on_error = on_error
        self.lag_budget = lag_budget
        self.metrics = metrics
        #: push EventBus notified after each installed view (it rebuilds
        #: its entity/alignment filter indexes and publishes a
        #: ``generation`` event to every subscriber)
        self.bus = bus
        self._notified_generation = -1
        #: pin view generations to the runtime's accepted-snippet count
        #: (replication mode: leader and followers then agree on what
        #: generation N means)
        self.pin_generations = pin_generations
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: decision log receiving "aligned"/"refined" events from rebuilds;
        #: defaults to the runtime's always-on log
        self.decisions = (
            decisions
            if decisions is not None
            else getattr(runtime, "decisions", None)
        )
        #: one refresh at a time: the memory below and the build
        #: bookkeeping are single-writer
        self._refresh_lock = threading.Lock()
        #: the StoryRefiner (with its aligner) every generation's merged
        #: pivot adopts; None = the next refresh starts from scratch
        self._refiner = None
        self._built_at_count = -1
        self._built_at_wall: Optional[float] = None
        self._started_at_wall = time.time()
        self._consecutive_failures = 0
        self._last_error: Optional[str] = None
        self._polled_at: Optional[float] = None  # start of the last poll
        self.loop = Loop("storypivot-view-refresher", step=self._poll)

    def refresh(self, force: bool = False) -> ReadView:
        """Rebuild now (if ingestion advanced, or ``force``); returns current."""
        with self._refresh_lock:
            try:
                return self._rebuild_locked(force)
            except BaseException:
                self._refiner = None  # whatever it half-remembers: start over
                raise

    def _rebuild_locked(self, force: bool) -> ReadView:
        accepted = self.runtime.accepted
        if not force and accepted == self._built_at_count:
            return self.store.current()
        started = time.perf_counter()
        root = self.tracer.start_trace("view.refresh", accepted=accepted)
        # link the ingest traces this rebuild folds in: one refresh
        # continues many traces, so it records their ids, not live spans
        recent = getattr(self.runtime, "recent_traces", None)
        if recent is not None:
            ids = recent()
            if ids:
                root.set(links=list(ids))
        try:
            with self.tracer.attach(root):
                merged = self.runtime.merged_pivot()
                merged_at = time.perf_counter()
                if self._refiner is None or self._refiner.config != merged.config:
                    self._refiner = merged.refiner  # with its own aligner
                merged.adopt(self._refiner)
                if self.decisions is not None:
                    merged.refiner.decisions = self.decisions
                result = merged.finish()
                finished_at = time.perf_counter()
                if self.decisions is not None:
                    # by live ids, which last: canonical ones are ranks
                    self.decisions.note_alignment(result.alignment)
                if self.pin_generations:
                    # replication mode: ids must be a function of story
                    # content, or leader and follower ETags diverge
                    mapping = canonicalize_result_ids(result)
                    if self.decisions is not None and mapping:
                        # history by canonical id must reach the events
                        # recorded under the live id it renamed
                        self.decisions.set_aliases(
                            {new: old for old, new in mapping.items()}
                        )
                view = self.store.install(
                    result,
                    corpus=self.corpus,
                    generation=accepted if self.pin_generations else None,
                )
                if (
                    self.bus is not None
                    and view.generation > self._notified_generation
                ):
                    self.bus.note_view(view)
                    self._notified_generation = view.generation
            refinement = result.refinement  # None: refinement is off
            passes = refinement.passes if refinement else [result.alignment.stats]
            recomputed = refinement.votes_recomputed if refinement else []
            reused = refinement.votes_reused if refinement else []
            root.set(
                generation=view.generation, stories=len(view.stories),
                merge_s=round(merged_at - started, 6),
                align_s=round(result.timings["alignment"], 6),
                refine_s=round(result.timings["refinement"], 6),
                install_s=round(time.perf_counter() - finished_at, 6),
                # totals, then each alignment pass and each vote round; a
                # pass's snippet pairs are those the counterpart graph scored
                story_pairs_scored=sum(p.story_pairs_scored for p in passes),
                story_pairs_reused=sum(p.story_pairs_reused for p in passes),
                votes_recomputed=sum(recomputed),
                votes_reused=sum(reused),
                pass_story_pairs_scored=[p.story_pairs_scored for p in passes],
                pass_story_pairs_reused=[p.story_pairs_reused for p in passes],
                pass_snippet_pairs_scored=[p.snippet_pairs_scored for p in passes],
                round_votes_recomputed=list(recomputed),
                round_votes_reused=list(reused),
            )
        finally:
            root.end()
        if self.metrics is not None:
            self.metrics.histogram("view.refresh_seconds").observe(
                time.perf_counter() - started
            )
        view.trace_id = root.trace_id or None
        self._built_at_count = accepted
        self._built_at_wall = time.time()
        self._consecutive_failures = 0
        self._last_error = None
        return view

    def _poll(self) -> float:
        """The loop's step: one poll; returns the wait until the next."""
        clock = self.loop.clock
        last, started = self._polled_at, clock.now()
        self._polled_at = started
        if last is None:  # the loop's first pass only starts the period
            return self.interval
        if self.metrics is not None:  # of the polls, rebuilt or not
            self.metrics.histogram("view.refresh_period_seconds").observe(
                started - last
            )
        try:
            self.refresh()
        except Exception as exc:  # keep serving the last good view
            self._consecutive_failures += 1
            self._last_error = f"{type(exc).__name__}: {exc}"
            if self.metrics is not None:
                self.metrics.counter("view.refresh_errors").inc()
            if self.on_error is not None:
                self.on_error(exc)
        if self.metrics is not None:
            self.metrics.gauge("view.stale_seconds").set(
                round(self.staleness(), 3)
            )
        # starts are ``interval`` apart whatever a refresh costs; one that
        # overran gets interval/2 of quiet, never a back-to-back rebuild
        due, ended = started + self.interval, clock.now()
        return due - ended if ended <= due else self.interval / 2.0

    # -- degradation signals ----------------------------------------------

    def staleness(self) -> float:
        """Seconds the served view trails the runtime (0.0 when current).

        The view is stale while ingestion has advanced past the last
        successful build, or while rebuilds are failing; the age is
        measured from that last successful build (or serving start when
        nothing was ever built).
        """
        behind = self.runtime.accepted != self._built_at_count
        if not behind and self._consecutive_failures == 0:
            return 0.0
        reference = self._built_at_wall
        if reference is None:
            reference = self._started_at_wall
        return max(0.0, time.time() - reference)

    def should_shed(self) -> bool:
        """Has the view fallen past the configured lag budget?"""
        return (
            self.lag_budget is not None
            and self.staleness() > self.lag_budget
        )

    def health(self) -> dict:
        """Refresher component health for ``/healthz``."""
        stale = self.staleness()
        if self.should_shed():
            status = "unhealthy"
        elif self._consecutive_failures > 0 or (
            stale > max(3.0 * self.interval, 1.0)
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "stale_seconds": round(stale, 3),
            "built_generation": self.store.generation,
            "consecutive_failures": self._consecutive_failures,
            "last_error": self._last_error,
            "lag_budget": self.lag_budget,
        }

    def start(self) -> "ViewRefresher":
        self.loop.start()
        return self

    def poke(self) -> None:
        """Ask the refresher to check for new data immediately."""
        self.loop.poke()

    def stop(self) -> None:
        self.loop.stop()
        self._polled_at = None
