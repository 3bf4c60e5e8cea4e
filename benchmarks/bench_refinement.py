"""Ablation A-refine — story refinement on/off (Section 2.3, Figure 1d).

Measures what propagating alignment decisions back into the per-source
story sets costs and buys: refinement time vs the F-measure delta of the
integrated clustering, plus the number of corrections applied — and, pass
by pass inside one ``finish()``, how much was scored and how much carried
over (DESIGN.md, "What ``finish()`` costs").

    pytest benchmarks/bench_refinement.py --benchmark-only
"""

import pytest

from benchmarks.conftest import corpus_for, report
from repro.core.pipeline import StoryPivot
from repro.evaluation.harness import MethodSpec, run_experiment


@pytest.mark.parametrize("refine", (False, True), ids=("off", "on"))
def test_refinement_ablation(benchmark, refine):
    corpus = corpus_for(800)
    spec = MethodSpec("t+a", "temporal", "greedy", refine=refine)

    def run():
        return run_experiment(corpus, spec)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    report(
        benchmark,
        refinement="on" if refine else "off",
        global_f1=round(result.global_f1, 4),
        si_f1=round(result.si_f1, 4),
        moves=int(result.metrics.get("refinement_moves", 0)),
    )


def test_refinement_phase_cost(benchmark):
    """Time of the refinement phase alone (identification+alignment done)."""
    corpus = corpus_for(800)
    spec = MethodSpec("t+a", "temporal", "greedy", refine=True)
    config = spec.make_config()

    def run():
        pivot = StoryPivot(config)
        result = pivot.run(corpus)
        return result.timings["refinement"]

    refinement_seconds = benchmark.pedantic(run, rounds=1, iterations=1,
                                            warmup_rounds=0)
    report(benchmark, refinement_seconds=round(refinement_seconds, 4))


def test_refinement_work_per_pass(benchmark):
    """Scored vs carried over: every alignment and vote pass of one finish()."""
    corpus = corpus_for(800)
    config = MethodSpec("t+a", "temporal", "greedy", refine=True).make_config()

    def run():
        pivot = StoryPivot(config)
        for snippet in corpus.snippets_by_time():
            pivot.add_snippet(snippet)
        passes = []
        align = pivot.aligner.align  # the refiner re-aligns with this aligner

        def recording_align(story_sets):
            alignment = align(story_sets)
            passes.append(alignment.stats)
            return alignment

        pivot.aligner.align = recording_align
        return pivot.finish().refinement, passes

    refinement, passes = benchmark.pedantic(run, rounds=1, iterations=1,
                                            warmup_rounds=0)
    report(
        benchmark,
        rounds=refinement.rounds,
        story_pairs_scored=[stats.story_pairs_scored for stats in passes],
        story_edges_reused=[stats.story_pairs_reused for stats in passes],
        snippet_pairs_scored=[stats.snippet_pairs_scored for stats in passes],
        votes_recomputed=refinement.votes_recomputed,
        votes_reused=refinement.votes_reused,
    )
