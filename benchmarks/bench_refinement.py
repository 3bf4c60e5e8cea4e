"""Ablation A-refine — story refinement on/off (Section 2.3, Figure 1d).

Measures what propagating alignment decisions back into the per-source
story sets costs and buys: refinement time vs the F-measure delta of the
integrated clustering, plus the number of corrections applied — and, pass
by pass inside one ``finish()``, how much was scored and how much carried
over (DESIGN.md, "What ``finish()`` costs") — and, generation by generation
of the ledger's ``live_visible`` stream, what a view refresh costs warm and
cold (DESIGN.md, "What a refresh costs").

    pytest benchmarks/bench_refinement.py --benchmark-only

    # the cold-path gate, alternated with another tree (a parent checkout)
    STORYPIVOT_OTHER_SRC=/path/to/parent/src \
        pytest benchmarks/bench_refinement.py --benchmark-only -k cold_finish
"""

import os
import statistics
import subprocess
import sys
import time

import pytest

from benchmarks.conftest import corpus_for, report
from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.evaluation.harness import MethodSpec, run_experiment
from repro.runtime import ShardedRuntime
from repro.server import ViewRefresher, ViewStore

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
LEDGER = os.path.join(HERE, "ledger")  # its corpora only; nothing of it runs


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
    """Scored vs carried over: every alignment and vote pass of one finish().

    ``snippet_pairs_scored`` counts the ``snippet_score`` calls each pass
    made through the counterpart graph: the first scores every pair once,
    a re-alignment after moves scores none (moves change no snippet).
    ``votes_recomputed`` are re-sums of stored scores.
    """
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


class _KeepResult(ViewStore):
    result = None

    def install(self, result, **kwargs):
        self.result = result
        return super().install(result, **kwargs)


def _align_refine_ms(result):
    return [round(result.timings[key] * 1e3, 1)
            for key in ("alignment", "refinement")]


def test_refresh_per_generation(benchmark):
    """Warm vs cold, generation by generation of the ``live_visible`` corpus.

    Warm is ``ViewRefresher.refresh()`` by one long-lived refresher (merge +
    ``finish()`` + view install); cold is the same by a brand-new refresher,
    which remembers nothing — what every refresh cost before the refresher
    kept alignment's and refinement's memory.
    """
    sys.path.insert(0, LEDGER)
    try:
        from inputs import make_corpus
    finally:
        sys.path.remove(LEDGER)
    snippets = make_corpus("live_visible", 240, 6, 1).snippets_by_publication()
    preloaded, step = len(snippets) - 250, 25  # 0.25 s of a 100/s stream

    def run():
        runtime = ShardedRuntime(StoryPivotConfig.temporal(), num_shards=2).start()
        rows = []
        try:
            warm_store = _KeepResult()
            warm = ViewRefresher(runtime, warm_store)
            fed = 0
            for upto in range(preloaded, len(snippets) + 1, step):
                runtime.consume(snippets[fed:upto]).drain()
                fed = upto
                started = time.perf_counter()
                warm.refresh(force=True)
                warm_s = time.perf_counter() - started
                cold_store = _KeepResult()
                started = time.perf_counter()
                ViewRefresher(runtime, cold_store).refresh(force=True)
                cold_s = time.perf_counter() - started
                result = warm_store.result
                rows.append({
                    "snippets": upto,
                    "warm_ms": round(warm_s * 1e3, 1),
                    "cold_ms": round(cold_s * 1e3, 1),
                    # first alignment / refinement with its re-alignments
                    "warm_align_refine_ms": _align_refine_ms(result),
                    "cold_align_refine_ms": _align_refine_ms(cold_store.result),
                    "pairs_scored": result.alignment.stats.story_pairs_scored,
                    "pairs_reused": result.alignment.stats.story_pairs_reused,
                    "votes_recomputed": result.refinement.votes_recomputed,
                    "votes_reused": result.refinement.votes_reused,
                    "stories_certified": result.refinement.stories_certified,
                })
        finally:
            runtime.stop(checkpoint=False)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    for row in rows:
        print("    " + "  ".join(f"{key}={value}" for key, value in row.items()))
    later = rows[1:]  # the first refresh is cold on both sides
    report(
        benchmark,
        generations=len(rows),
        warm_ms_median=statistics.median(row["warm_ms"] for row in later),
        cold_ms_median=statistics.median(row["cold_ms"] for row in later),
    )


_COLD_FINISH = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from inputs import make_corpus
from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
pivot = StoryPivot(StoryPivotConfig.temporal())
for snippet in make_corpus("batch_density", 600, 5, 1).snippets_by_time():
    pivot.add_snippet(snippet)
started = time.perf_counter()
timings = pivot.finish().timings
print(time.perf_counter() - started, timings["alignment"], timings["refinement"])
"""


def test_cold_finish_densest_rung(benchmark):
    """The cold-path gate: a first ``finish()`` on ``batch_density``'s
    600-event rung, each repetition in its own interpreter.

    With ``STORYPIVOT_OTHER_SRC`` naming another tree's ``src/`` the
    repetitions alternate between the two trees, and the ratio of the
    medians is reported: memory that outlives ``finish()`` must not tax a
    pivot that calls it once.
    """
    trees = {"this": SRC}
    if os.environ.get("STORYPIVOT_OTHER_SRC"):
        trees["other"] = os.environ["STORYPIVOT_OTHER_SRC"]
    repetitions = 6

    def run():
        samples = {name: [] for name in trees}
        for repetition in range(repetitions):
            order = list(trees) if repetition % 2 == 0 else list(trees)[::-1]
            for name in order:
                out = subprocess.run(
                    [sys.executable, "-c", _COLD_FINISH, trees[name], LEDGER],
                    check=True, capture_output=True, text=True,
                    env={**os.environ, "PYTHONHASHSEED": "0"},
                ).stdout
                samples[name].append([float(x) for x in out.split()])
        return samples

    samples = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    fields = {}
    for name, rows in samples.items():
        for column, label in enumerate(("finish", "align", "refine")):
            fields[f"{name}_{label}_ms"] = round(
                statistics.median(row[column] for row in rows) * 1e3, 1
            )
    if "other" in samples:
        fields["finish_ratio"] = round(
            fields["this_finish_ms"] / fields["other_finish_ms"], 3
        )
    report(benchmark, repetitions=repetitions, **fields)
