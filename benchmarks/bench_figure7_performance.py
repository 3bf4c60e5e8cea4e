"""Figure 7 (left) — Performance: execution time vs #events.

One benchmark per (SI method, SA method, #events) cell of the statistics
module's grid.  The paper reports execution time growing with #events and
temporal identification staying cheaper than complete matching; the
absolute milliseconds are hardware-specific, the ordering is the result.

    pytest benchmarks/bench_figure7_performance.py --benchmark-only

``--benchmark-disable`` runs each cell once, untimed by the plugin, and
reports the run's own wall time.
"""

import time

import pytest

from benchmarks.conftest import corpus_for, report
from repro.core.pipeline import StoryPivot
from repro.evaluation.harness import MethodSpec

SIZES = (250, 500, 1000, 2000)
METHODS = (
    MethodSpec("temporal", "temporal", "none"),
    MethodSpec("complete", "complete", "none"),
    MethodSpec("temporal+align", "temporal", "greedy"),
    MethodSpec("complete+align", "complete", "greedy"),
)


@pytest.mark.parametrize("events", SIZES)
@pytest.mark.parametrize("spec", METHODS, ids=lambda s: s.name)
def test_figure7_performance(benchmark, spec, events):
    corpus = corpus_for(events)
    config = spec.make_config()

    def run():
        return StoryPivot(config).run(corpus)

    started = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    # under --benchmark-disable there are no stats: the one run's own time
    seconds = (benchmark.stats.stats.mean if benchmark.stats
               else time.perf_counter() - started)
    num = len(corpus)
    report(
        benchmark,
        method=spec.name,
        events=events,
        snippets=num,
        per_event_ms=round(seconds / num * 1000, 4),
        stories=result.num_stories,
        integrated=result.num_integrated,
    )
