"""Experiment harness: the machinery behind Figure 7.

The statistics module of the demo reports, per dataset and per (SI method,
SA method) combination, execution time and F-measure as functions of the
number of events.  :func:`run_experiment` measures one cell of that grid;
:func:`sweep_events` produces the full series the figure plots.
"""

from __future__ import annotations

import statistics as _stats
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.eventdata.corpus import Corpus
from repro.evaluation.alignment_metrics import alignment_scores
from repro.evaluation.metrics import (
    adjusted_rand_index,
    bcubed,
    normalized_mutual_information,
    pairwise_scores,
)


@dataclass(frozen=True)
class MethodSpec:
    """One cell of the method grid: a name plus its configuration."""

    name: str
    si_method: str  # "temporal" | "complete" | "single_pass"
    sa_method: str  # "greedy" | "optimal" | "none"
    refine: bool = True
    config_overrides: Dict[str, object] = field(default_factory=dict)

    def make_config(self) -> StoryPivotConfig:
        overrides = dict(self.config_overrides)
        overrides["alignment_strategy"] = self.sa_method
        overrides["enable_refinement"] = self.refine and self.sa_method != "none"
        return StoryPivotConfig.preset(self.si_method, **overrides)


def default_method_grid() -> List[MethodSpec]:
    """The SI×SA grid the statistics module exposes (Figure 7 selectors)."""
    return [
        MethodSpec("temporal+align", "temporal", "greedy"),
        MethodSpec("temporal", "temporal", "none"),
        MethodSpec("complete+align", "complete", "greedy"),
        MethodSpec("complete", "complete", "none"),
    ]


@dataclass
class ExperimentResult:
    """Measured outcomes of one (corpus, method) run."""

    method: str
    num_events: int
    num_snippets: int
    elapsed: float  # total seconds
    per_event_ms: float
    si_f1: float  # mean per-source pairwise F-measure
    si_precision: float
    si_recall: float
    global_f1: float  # pairwise F of the integrated clustering
    metrics: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flat dict for tabular output."""
        row: Dict[str, object] = {
            "method": self.method,
            "events": self.num_events,
            "snippets": self.num_snippets,
            "elapsed_s": round(self.elapsed, 4),
            "per_event_ms": round(self.per_event_ms, 4),
            "si_f1": round(self.si_f1, 4),
            "global_f1": round(self.global_f1, 4),
        }
        row.update({k: round(v, 4) for k, v in self.metrics.items()})
        return row


def run_experiment(
    corpus: Corpus,
    spec: MethodSpec,
    order: str = "time",
) -> ExperimentResult:
    """Run one method over one corpus and score it against ground truth."""
    config = spec.make_config()
    pivot = StoryPivot(config)
    started = time.perf_counter()
    result = pivot.run(corpus, order=order)
    elapsed = time.perf_counter() - started

    truth = corpus.truth.labels
    per_source_f1: List[float] = []
    per_source_precision: List[float] = []
    per_source_recall: List[float] = []
    for source_id, story_set in result.story_sets.items():
        scores = pairwise_scores(story_set.as_clusters(), truth)
        per_source_f1.append(scores.f1)
        per_source_precision.append(scores.precision)
        per_source_recall.append(scores.recall)

    global_clusters = result.global_clusters()
    global_scores = pairwise_scores(global_clusters, truth)
    extra: Dict[str, float] = {
        "bcubed_f1": bcubed(global_clusters, truth).f1,
        "nmi": normalized_mutual_information(global_clusters, truth),
        "ari": adjusted_rand_index(global_clusters, truth),
        "num_stories": float(result.num_stories),
        "num_integrated": float(result.num_integrated),
    }
    if spec.sa_method != "none":
        extra.update(alignment_scores(result.alignment, truth))
    if result.refinement is not None:
        extra["refinement_moves"] = float(result.refinement.num_moves)

    num_snippets = len(corpus)
    num_events = len(set(truth.values())) if truth else num_snippets
    return ExperimentResult(
        method=spec.name,
        num_events=len(corpus),
        num_snippets=num_snippets,
        elapsed=elapsed,
        per_event_ms=(elapsed / num_snippets * 1000.0) if num_snippets else 0.0,
        si_f1=_stats.fmean(per_source_f1) if per_source_f1 else 0.0,
        si_precision=_stats.fmean(per_source_precision) if per_source_precision else 0.0,
        si_recall=_stats.fmean(per_source_recall) if per_source_recall else 0.0,
        global_f1=global_scores.f1,
        metrics=extra,
        timings=result.timings,
    )


def sweep_events(
    sizes: Sequence[int],
    methods: Optional[Sequence[MethodSpec]] = None,
    num_sources: int = 5,
    seed: int = 42,
    corpus_factory: Optional[Callable[[int], Corpus]] = None,
    order: str = "time",
) -> List[ExperimentResult]:
    """The Figure 7 sweep: every method at every #events size."""
    from repro.eventdata.sourcegen import synthetic_corpus

    if methods is None:
        methods = default_method_grid()
    if corpus_factory is None:
        def corpus_factory(total: int) -> Corpus:
            return synthetic_corpus(
                total_events=total, num_sources=num_sources, seed=seed
            )
    results: List[ExperimentResult] = []
    for size in sizes:
        corpus = corpus_factory(size)
        for spec in methods:
            results.append(run_experiment(corpus, spec, order=order))
    return results


def results_table(results: Sequence[ExperimentResult]) -> str:
    """Fixed-width text table of experiment rows (benchmarks print this)."""
    if not results:
        return "(no results)"
    rows = [r.row() for r in results]
    columns = ["method", "events", "snippets", "elapsed_s", "per_event_ms",
               "si_f1", "global_f1"]
    widths = {
        column: max(len(column), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
