"""The StoryPivot facade.

Ties the two phases together exactly as Figure 1 lays them out: per-source
story identification over the partitions ``V_i``, story alignment across
sources, and story refinement propagating alignment decisions back.  Both
batch (:meth:`StoryPivot.run`) and incremental (:meth:`StoryPivot.add_snippet`,
:meth:`StoryPivot.remove_snippet`, :meth:`StoryPivot.add_source_snippets`)
operation are supported — the demo's interactive module adds and removes
documents at will and new sources integrate without recomputing old ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.alignment import AlignedStory, Alignment, StoryAligner
from repro.core.config import StoryPivotConfig
from repro.core.identification import BaseIdentifier, make_identifier
from repro.core.refinement import RefinementResult, StoryRefiner
from repro.core.stories import StorySet
from repro.errors import UnknownSnippetError, UnknownSourceError
from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Snippet


@dataclass
class PivotResult:
    """Everything one full pass produces, plus wall-clock timings."""

    story_sets: Dict[str, StorySet]
    alignment: Alignment
    refinement: Optional[RefinementResult]
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def num_stories(self) -> int:
        """Total per-source stories (before integration)."""
        return sum(len(s) for s in self.story_sets.values())

    @property
    def num_integrated(self) -> int:
        return len(self.alignment)

    def source_clusters(self, source_id: str) -> Dict[str, set]:
        return self.story_sets[source_id].as_clusters()

    def global_clusters(self) -> Dict[str, set]:
        return self.alignment.as_clusters()


class StoryPivot:
    """The full system: identification + alignment + refinement."""

    def __init__(
        self,
        config: Optional[StoryPivotConfig] = None,
        decision_log=None,
    ) -> None:
        self.config = config if config is not None else StoryPivotConfig()
        self.aligner = StoryAligner(self.config)
        self.decisions = decision_log
        self.refiner = StoryRefiner(
            self.config, decisions=decision_log, aligner=self.aligner
        )
        self._identifiers: Dict[str, BaseIdentifier] = {}
        self._snippet_count = 0

    # -- incremental ingestion ---------------------------------------------

    def identifier(self, source_id: str) -> BaseIdentifier:
        """The (lazily created) identifier owning source ``source_id``."""
        identifier = self._identifiers.get(source_id)
        if identifier is None:
            identifier = make_identifier(
                source_id, self.config, decisions=self.decisions
            )
            self._identifiers[source_id] = identifier
        return identifier

    def set_decision_log(self, decision_log) -> None:
        """Attach a decision log after construction (restore path)."""
        self.decisions = decision_log
        self.refiner.decisions = decision_log
        for identifier in self._identifiers.values():
            identifier.decisions = decision_log

    def adopt(self, refiner: StoryRefiner) -> None:
        """Align and refine with a refiner that outlives this pivot.

        Installs the refiner *and* the aligner it re-aligns with — the two
        must never disagree — so that ``finish()`` re-derives only what
        differs from what they last saw (another pivot's state included:
        they compare members and snippets, not pivots).
        """
        self.refiner = refiner
        self.aligner = refiner.aligner

    def add_snippet(self, snippet: Snippet):
        """Integrate one snippet into its source's stories.

        Returns the (possibly merged/split) story now holding the snippet.
        """
        story = self.identifier(snippet.source_id).add(snippet)
        self._snippet_count += 1
        return story

    def restore_story(self, source_id: str, story_id: str,
                      snippets: Iterable[Snippet]):
        """Bulk-restore one persisted story without re-running identification.

        The public restoration entry point used by checkpoint loading and
        WAL recovery: the story keeps ``story_id`` and
        its exact snippet membership, all identifier indexes are rebuilt,
        and the snippet count is advanced.  Returns the restored story.
        """
        story = self.identifier(source_id).restore_story(story_id, snippets)
        self._snippet_count += len(story)
        return story

    @classmethod
    def copy_of(cls, story_sets: Mapping[str, StorySet],
                config: Optional[StoryPivotConfig] = None) -> "StoryPivot":
        """A pivot holding a copy of every story of ``story_sets``, sources
        sorted: what restoring each under its id builds, less the hashing,
        indexing and id minting.  Refining it leaves ``story_sets`` alone."""
        pivot = cls(config)
        for source_id in sorted(story_sets):
            identifier = pivot.identifier(source_id)
            pivot._snippet_count += identifier.copy_stories(story_sets[source_id])
        return pivot

    def has_snippet(self, snippet_id: str) -> bool:
        """Whether any source currently holds ``snippet_id``."""
        return any(
            snippet_id in identifier
            for identifier in self._identifiers.values()
        )

    def remove_snippet(self, snippet_id: str) -> Snippet:
        """Withdraw a snippet from whichever source holds it."""
        for identifier in self._identifiers.values():
            if snippet_id in identifier.stories.snippet_homes:
                self._snippet_count -= 1
                return identifier.remove(snippet_id)
        raise UnknownSnippetError(snippet_id)

    def remove_source(self, source_id: str) -> StorySet:
        """Drop a source entirely (Section 2.4: sources come and go)."""
        identifier = self._identifiers.pop(source_id, None)
        if identifier is None:
            raise UnknownSourceError(source_id)
        self._snippet_count -= identifier.stories.num_snippets
        return identifier.stories

    @property
    def num_snippets(self) -> int:
        return self._snippet_count

    @property
    def source_ids(self) -> List[str]:
        return sorted(self._identifiers)

    def story_sets(self) -> Dict[str, StorySet]:
        return {
            source_id: identifier.stories
            for source_id, identifier in self._identifiers.items()
        }

    # -- batch ---------------------------------------------------------------

    def run(self, corpus: Corpus, order: str = "time") -> PivotResult:
        """Full pass over a corpus: identify per source, align, refine.

        ``order`` chooses the ingestion order: ``"time"`` (occurrence,
        the batch setting) or ``"publication"`` (what a live feed delivers;
        exercises out-of-order integration, Section 2.4).
        """
        if order == "time":
            snippets = corpus.snippets_by_time()
        elif order == "publication":
            snippets = corpus.snippets_by_publication()
        else:
            raise ValueError(f"unknown order {order!r}")
        if self.config.trust_weighted_alignment:
            self.aligner.set_source_trust(
                {s.source_id: s.trust for s in corpus.sources.values()}
            )
        started = time.perf_counter()
        for snippet in snippets:
            self.add_snippet(snippet)
        identified = time.perf_counter()
        result = self.finish()
        result.timings["identification"] = identified - started
        result.timings["total"] = time.perf_counter() - started
        return result

    def finish(self) -> PivotResult:
        """Run alignment (and refinement, if enabled) on the current state."""
        story_sets = self.story_sets()
        align_started = time.perf_counter()
        alignment = self.aligner.align(story_sets)
        align_done = time.perf_counter()
        refinement = None
        if self.config.enable_refinement:
            refinement = self.refiner.refine(story_sets, alignment)
            if refinement.alignment is not None:
                alignment = refinement.alignment
        refine_done = time.perf_counter()
        if self.decisions is not None:
            self.decisions.note_alignment(alignment)
        return PivotResult(
            story_sets=story_sets,
            alignment=alignment,
            refinement=refinement,
            timings={
                "alignment": align_done - align_started,
                "refinement": refine_done - align_done,
            },
        )

    def add_source_snippets(
        self, snippets: Iterable[Snippet], alignment: Alignment
    ) -> Alignment:
        """Integrate a brand-new source into an existing alignment.

        Identification runs only on the new source; its stories then extend
        the alignment incrementally (Section 2.1's efficient handling of
        source additions).
        """
        snippets = list(snippets)
        if not snippets:
            return alignment
        source_ids = {s.source_id for s in snippets}
        if len(source_ids) != 1:
            raise ValueError("add_source_snippets expects a single-source batch")
        source_id = source_ids.pop()
        if source_id in self._identifiers:
            raise ValueError(f"source {source_id!r} already integrated")
        identifier = self.identifier(source_id)
        for snippet in sorted(snippets, key=lambda s: (s.timestamp, s.snippet_id)):
            identifier.add(snippet)
            self._snippet_count += 1
        return self.aligner.extend(alignment, identifier.stories)

    # -- queries (Section 4.2: "enquiries about real-world events or entities")

    def query(
        self,
        alignment: Alignment,
        entity: Optional[str] = None,
        keyword: Optional[str] = None,
        limit: int = 10,
    ) -> List[Tuple[AlignedStory, float]]:
        """Integrated stories mentioning ``entity`` and/or ``keyword``."""
        # imported here: repro.query reads repro.core.alignment
        from repro.query.engine import QueryEngine

        return QueryEngine(alignment).mentioning(entity, keyword, limit)

    # -- statistics (the Figure 7 dataset card) ------------------------------

    def statistics(self) -> Dict[str, object]:
        """Counters for the statistics module."""
        story_sets = self.story_sets()
        entities = set()
        timestamps: List[float] = []
        for story_set in story_sets.values():
            for story in story_set:
                entities |= story.sketch.entity_set()
                timestamps.extend(story.sketch.timestamps())
        identification_stats = {
            source_id: identifier.stats.snapshot()
            for source_id, identifier in self._identifiers.items()
        }
        return {
            "num_sources": len(self._identifiers),
            "num_snippets": self._snippet_count,
            "num_stories": sum(len(s) for s in story_sets.values()),
            "num_entities": len(entities),
            "start": min(timestamps) if timestamps else None,
            "end": max(timestamps) if timestamps else None,
            "identification": identification_stats,
        }
