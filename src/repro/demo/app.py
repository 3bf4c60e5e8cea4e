"""The StoryPivot demo application, scripted.

The SIGMOD demo is interactive; this module reproduces its functionality as
a scriptable session plus a CLI entry point (``storypivot-demo``).  The
session exposes exactly the demo's moves:

* select/deselect documents (Figure 3) and recompute stories;
* browse the story overview (Figure 4), stories-per-source (Figure 5) and
  snippets-per-story (Figure 6) modules;
* add or remove documents and observe how stories change (Section 4.2.1);
* run the large-scale statistics module (Figure 7, Section 4.2.2);
* query for entities/keywords ("queries will consist of enquiries about
  specified real-world events or entities").
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import PivotResult, StoryPivot
from repro.errors import UnknownSnippetError
from repro.eventdata.corpus import Corpus
from repro.eventdata.handcrafted import demo_config, mh17_corpus
from repro.nodecli import console_entry
from repro.viz.modules import (
    document_selection_view,
    snippets_per_story_view,
    statistics_view,
    stories_per_source_view,
    story_overview_view,
    story_timeline_view,
)


class DemoSession:
    """One interactive exploration over a corpus."""

    def __init__(
        self,
        corpus: Optional[Corpus] = None,
        config: Optional[StoryPivotConfig] = None,
    ) -> None:
        self.corpus = corpus if corpus is not None else mh17_corpus()
        self.config = config if config is not None else demo_config()
        self.selected: List[str] = [s.snippet_id for s in self.corpus.snippets()]
        self._result: Optional[PivotResult] = None

    # -- document selection (Figure 3) -----------------------------------

    def document_selection(self) -> str:
        documents = sorted(
            self.corpus.documents.values(), key=lambda d: d.document_id
        )
        selected_docs = {
            self.corpus.snippet(sid).document_id
            for sid in self.selected
            if self.corpus.snippet(sid).document_id
        }
        names = {s.source_id: s.name for s in self.corpus.sources.values()}
        return document_selection_view(documents, sorted(selected_docs), names)

    def deselect(self, snippet_id: str) -> None:
        """Remove a document/snippet from the working set (Figure 3 'Cancel')."""
        if snippet_id not in self.selected:
            raise UnknownSnippetError(snippet_id)
        self.selected.remove(snippet_id)
        self._result = None

    def select(self, snippet_id: str) -> None:
        """(Re-)add a previously deselected document."""
        if snippet_id in self.selected:
            return
        if snippet_id not in self.corpus:
            raise UnknownSnippetError(snippet_id)
        self.selected.append(snippet_id)
        self._result = None

    # -- computation ------------------------------------------------------------

    def compute(self) -> PivotResult:
        """(Re)run identification + alignment + refinement on the selection."""
        pivot = StoryPivot(self.config)
        subset = self.corpus.subset(self.selected)
        self._result = pivot.run(subset)
        self._pivot = pivot
        return self._result

    @property
    def result(self) -> PivotResult:
        if self._result is None:
            return self.compute()
        return self._result

    # -- modules ------------------------------------------------------------------

    def story_overview(self, focus: Optional[str] = None) -> str:
        return story_overview_view(self.result.alignment, focus=focus)

    def stories_per_source(
        self, source_id: str, focus_snippet: Optional[str] = None
    ) -> str:
        story_set = self.result.story_sets[source_id]
        return stories_per_source_view(story_set, focus_snippet=focus_snippet)

    def snippets_per_story(
        self, aligned_id: Optional[str] = None, focus_snippet: Optional[str] = None
    ) -> str:
        alignment = self.result.alignment
        if aligned_id is None:
            aligned = max(alignment.aligned.values(), key=len)
        else:
            aligned = alignment.aligned[aligned_id]
        return snippets_per_story_view(aligned, alignment, focus_snippet)

    def query(self, entity: Optional[str] = None, keyword: Optional[str] = None):
        """Integrated stories matching an entity and/or keyword."""
        return self._ensure_pivot().query(
            self.result.alignment, entity=entity, keyword=keyword
        )

    def search(self, query: str) -> str:
        """Run a query-language enquiry and render the answer panel.

        Example: ``session.search("entity:UKR keyword:crash")``.
        """
        from repro.query.engine import QueryEngine

        engine = QueryEngine(self.result.alignment, self.corpus)
        return engine.explain(query)

    def _ensure_pivot(self) -> StoryPivot:
        if self._result is None:
            self.compute()
        return self._pivot

    def statistics(self) -> str:
        pivot = self._ensure_pivot()
        return statistics_view(self.corpus.name, pivot.statistics())

    def story_timeline(self, aligned_id: Optional[str] = None) -> str:
        """Casual-reader timeline of one integrated story (Section 3)."""
        alignment = self.result.alignment
        if aligned_id is None:
            aligned = max(alignment.aligned.values(), key=len)
        else:
            aligned = alignment.aligned[aligned_id]
        return story_timeline_view(aligned, alignment)

    def story_context(self, aligned_id: Optional[str] = None) -> str:
        """Knowledge-base context card for one integrated story."""
        from repro.kb import build_default_kb, story_context

        alignment = self.result.alignment
        if aligned_id is None:
            aligned = max(alignment.aligned.values(), key=len)
        else:
            aligned = alignment.aligned[aligned_id]
        return story_context(aligned, build_default_kb()).render()


def large_scale_statistics(
    sizes: Sequence[int] = (250, 500, 1000),
    num_sources: int = 5,
    seed: int = 42,
) -> str:
    """Run the Figure 7 sweep and render the statistics module."""
    from repro.evaluation.harness import default_method_grid, sweep_events

    results = sweep_events(sizes, num_sources=num_sources, seed=seed)
    performance: Dict[str, List[Tuple[float, float]]] = {}
    quality: Dict[str, List[Tuple[float, float]]] = {}
    for result in results:
        performance.setdefault(result.method, []).append(
            (result.num_events, result.per_event_ms)
        )
        quality.setdefault(result.method, []).append(
            (result.num_events, result.global_f1 if "align" in result.method
             else result.si_f1)
        )
    stats = {
        "num_sources": num_sources,
        "num_snippets": max(r.num_snippets for r in results),
        "num_entities": "~250",
        "start": None,
        "end": None,
    }
    return statistics_view("GDELT-like synthetic", stats, performance, quality)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: walk through the demo non-interactively."""
    parser = argparse.ArgumentParser(
        prog="storypivot-demo",
        description="Scripted walkthrough of the StoryPivot demonstration.",
    )
    parser.add_argument(
        "module",
        choices=["selection", "overview", "sources", "story", "timeline",
                 "context", "stats", "all"],
        nargs="?",
        default="all",
        help="which demo module to render",
    )
    parser.add_argument("--source", default="s1", help="source for 'sources'")
    parser.add_argument("--focus", default=None, help="snippet id to focus")
    parser.add_argument(
        "--large-scale",
        action="store_true",
        help="also run the large-scale statistics sweep (slower)",
    )
    args = parser.parse_args(argv)

    session = DemoSession()
    out = sys.stdout
    if args.module in ("selection", "all"):
        print(session.document_selection(), file=out)
        print(file=out)
    if args.module in ("overview", "all"):
        print(session.story_overview(), file=out)
        print(file=out)
    if args.module in ("sources", "all"):
        focus = args.focus if args.module == "sources" else "s1:v2"
        print(session.stories_per_source(args.source, focus_snippet=focus), file=out)
        print(file=out)
    if args.module in ("story", "all"):
        focus = args.focus if args.module == "story" else "sn:v5"
        print(session.snippets_per_story(focus_snippet=focus), file=out)
        print(file=out)
    if args.module in ("timeline", "all"):
        print(session.story_timeline(), file=out)
        print(file=out)
    if args.module == "context":
        print(session.story_context(), file=out)
        print(file=out)
    if args.module in ("stats", "all"):
        print(session.statistics(), file=out)
        if args.large_scale:
            print(file=out)
            print(large_scale_statistics(), file=out)
    return 0


_console_entry = console_entry(main)


if __name__ == "__main__":
    raise SystemExit(_console_entry())
