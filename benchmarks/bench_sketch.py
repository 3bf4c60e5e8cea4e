"""Ablation A-sketch — sketch-based vs exact candidate retrieval (Sec. 2.4).

Compares identification with exact inverted-index candidates against the
MinHash/LSH sketch path, measuring time, snippet-vs-story comparisons
performed, and the quality cost of approximate retrieval.  Also times the
sketch primitives themselves.

    pytest benchmarks/bench_sketch.py --benchmark-only
"""

import pytest

from benchmarks.conftest import corpus_for, report
from repro.core.config import StoryPivotConfig
from repro.core.identification import make_identifier
from repro.evaluation.metrics import pairwise_scores
from repro.sketch.minhash import MinHash


@pytest.mark.parametrize("use_sketches", (False, True),
                         ids=("exact", "sketched"))
@pytest.mark.parametrize("mode", ("temporal", "complete"))
def test_identification_candidates(benchmark, mode, use_sketches):
    corpus = corpus_for(800)
    factory = (StoryPivotConfig.temporal if mode == "temporal"
               else StoryPivotConfig.complete)
    config = factory(use_sketches=use_sketches)
    partition = corpus.source_partition()

    def run():
        identifiers = {}
        for source_id, snippets in partition.items():
            identifier = make_identifier(source_id, config)
            identifier.identify(snippets)
            identifiers[source_id] = identifier
        return identifiers

    identifiers = benchmark.pedantic(run, rounds=1, iterations=1,
                                     warmup_rounds=0)
    comparisons = sum(i.stats.comparisons for i in identifiers.values())
    f1_values = [
        pairwise_scores(i.stories.as_clusters(), corpus.truth.labels).f1
        for i in identifiers.values()
    ]
    report(
        benchmark,
        mode=mode,
        retrieval="sketched" if use_sketches else "exact",
        comparisons=comparisons,
        mean_si_f1=round(sum(f1_values) / len(f1_values), 4),
    )


def test_minhash_signature_throughput(benchmark):
    minhash = MinHash(num_perm=64)
    elements = {f"term{i}" for i in range(30)}
    benchmark(minhash.signature, elements)


def test_minhash_similarity_throughput(benchmark):
    minhash = MinHash(num_perm=64)
    a = minhash.signature({f"a{i}" for i in range(30)})
    b = minhash.signature({f"a{i}" for i in range(15)} |
                          {f"b{i}" for i in range(15)})
    benchmark(a.similarity, b)

