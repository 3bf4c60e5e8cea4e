#!/usr/bin/env python3
"""Self-test of the ledger's own machinery (run explicitly; not tier-1).

    python3 benchmarks/ledger/selftest.py

Covers what the metrics rest on and no workload exercises by itself:
percentile maths, span self-time, the Zipf/paging URL generator, the
seed determinism of every generated input, and that ``BENCHMARK.json``
names the metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import threading
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


def test_percentile_interpolates() -> None:
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert common.percentile(values, 0) == 10.0
    assert common.percentile(values, 50) == 30.0
    assert common.percentile(values, 100) == 50.0
    assert common.percentile(values, 95) == 48.0          # 40 + 0.8 * 10
    assert common.percentile(list(reversed(values)), 25) == 20.0
    assert common.percentile([7.0], 95) == 7.0
    try:
        common.percentile([], 50)
    except ValueError:
        pass
    else:
        raise AssertionError("percentile of nothing must raise")


def test_quartiles_match_the_drivers() -> None:
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert common.quartiles(values) == (q1, q2, q3)
    assert common.relative_spread(values) == (q3 - q1) / q2
    assert common.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_host_noise_is_the_spread_of_the_spins() -> None:
    spins = [5.0, 5.2, 5.1, 5.4, 5.0, 9.0]
    noise = common.host_noise(spins)
    assert noise["host.spin_ms"] == statistics.median(spins)
    assert noise["host.noise_ratio"] == common.relative_spread(spins)


def _span(name, layer, start, end, parent=None, count=1):
    return {"name": name, "layer": layer, "start": start, "end": end,
            "parent": parent, "repetition": 0, "thread": "t", "count": count}


def test_self_time_subtracts_direct_children_only() -> None:
    tree = [
        _span("bench.pass", "bench", 0.0, 10.0),
        _span("core.refine", "core", 1.0, 7.0, parent=0),
        _span("core.align", "core", 2.0, 5.0, parent=1),   # grandchild
        _span("core.identify", "core", 7.0, 9.0, parent=0, count=4),
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 3.0, 2.0]
    assert spans.unexplained_ratio(tree) == 0.2
    rows = {row["name"]: row for row in spans.layer_table(tree)}
    assert rows["core.refine"]["total_s"] == 6.0
    assert rows["core.refine"]["self_s"] == 3.0
    assert rows["core.identify"]["items"] == 4


def test_recorder_tracks_parents_per_thread() -> None:
    rec = spans.Recorder()
    with rec.span("bench.main", "bench"):
        with rec.span("core.align", "core"):
            pass
        worker = threading.Thread(
            target=lambda: rec.span("server.http", "server").__enter__()
            .__exit__(None, None, None)
        )
        worker.start()
        worker.join()
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["bench.main"]["parent"] is None
    assert rec.spans[by_name["core.align"]["parent"]]["name"] == "bench.main"
    # another thread's span is a root of its own, not a child of main's
    assert by_name["server.http"]["parent"] is None
    assert all(s["end"] >= s["start"] > 0.0 for s in rec.spans)
    with rec.span("text.features", "text", count=50):
        pass
    assert rec.per_item_us("text.features") * 50 == (
        rec.total("text.features") * 1e6
    )
    # the untraced recorder hands back one shared no-op
    assert spans.NULL.span("a", "b") is spans.NULL.span("c", "d", count=3)
    assert not spans.NULL.enabled


STORIES = [
    {"id": f"c'{rank:06d}", "num_snippets": max(1, 120 // (rank + 1)),
     "entities": ["UKR", "RUS"], "description": ["crash", "talk"],
     "sources": ["s000", "s001"]}
    for rank in range(40)
]
SOURCES = [{"id": f"s{n:03d}", "num_stories": 30 + n} for n in range(6)]


def test_read_mix_is_zipf_paged_and_seeded() -> None:
    mix = inputs.ReadMix(STORIES, SOURCES, seed=5)
    ranks = Counter(mix.story_rank() for _ in range(20000))
    assert set(ranks) <= set(range(len(STORIES)))
    # Zipf(1.1): rank 0 is drawn 2**1.1 = 2.14 times as often as rank 1
    ratio = ranks[0] / ranks[1]
    assert 1.9 < ratio < 2.4, ratio
    assert ranks[0] > ranks[5] > ranks[30]

    requests = inputs.ReadMix(STORIES, SOURCES, seed=5).requests(4000)
    assert requests == inputs.ReadMix(STORIES, SOURCES, seed=5).requests(4000)
    assert requests != inputs.ReadMix(STORIES, SOURCES, seed=6).requests(4000)
    paths = [path for path, _ in requests]
    heads = Counter(path.split("?")[0].split("/")[1] for path in paths)
    assert set(heads) == {"stories", "sources", "stats", "query", "healthz"}
    conditional = sum(1 for _, flag in requests if flag) / len(requests)
    assert 0.07 < conditional < 0.13, conditional
    # paging: cursors decode to offsets inside the list they page
    from repro.server.handlers import decode_cursor

    top = STORIES[0]
    seen_offsets = set()
    for path in paths:
        if path.startswith(f"/stories/{top['id']}/snippets?"):
            query = dict(p.split("=", 1) for p in path.split("?")[1].split("&"))
            offset = decode_cursor(query["cursor"]) if "cursor" in query else 0
            assert 0 <= offset < top["num_snippets"]
            assert offset % int(query["limit"]) == 0
            seen_offsets.add(offset)
    assert len(seen_offsets) > 10
    # the live reader's mix never names an aligned-story id
    live = inputs.ReadMix(STORIES, SOURCES, 5, endpoints=inputs.ReadMix.ID_FREE)
    assert not any("c'" in live.path() for _ in range(2000))


def _fingerprint(corpus) -> list:
    return [
        (s.snippet_id, s.source_id, s.timestamp, s.published, s.description,
         sorted(s.entities), s.keywords, s.text)
        for s in corpus.snippets_by_publication()
    ]


def test_every_generated_input_is_a_function_of_the_seed() -> None:
    for workload in inputs.WORLD_SEEDS:
        one = inputs.make_corpus(workload, 60, 4, seed=11)
        again = inputs.make_corpus(workload, 60, 4, seed=11)
        other = inputs.make_corpus(workload, 60, 4, seed=12)
        assert _fingerprint(one) == _fingerprint(again), workload
        assert one.truth.labels == again.truth.labels
        assert _fingerprint(one) != _fingerprint(other), workload
        # the world under the reports does not move with the seed
        assert set(one.truth.story_labels()) == set(other.truth.story_labels())

    corpus = inputs.make_corpus("stream_volume", 80, 4, seed=3, days=30.0)
    ordered = corpus.snippets_by_publication()
    delivery, duplicates = inputs.with_redeliveries(ordered, seed=3)
    again, _ = inputs.with_redeliveries(ordered, seed=3)
    assert [s.snippet_id for s in delivery] == [s.snippet_id for s in again]
    assert len(delivery) == len(ordered) + duplicates
    assert duplicates > 0
    first_seen = {}
    for position, snippet in enumerate(delivery):
        first_seen.setdefault(snippet.snippet_id, position)
    # originals keep their order; a re-delivery never precedes its original
    originals = sorted(first_seen, key=first_seen.get)
    assert originals == [s.snippet_id for s in ordered]
    assert inputs.sub_seed(4, 0) != inputs.sub_seed(4, 1) != inputs.sub_seed(5, 0)

    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        paths = [os.path.join(scratch, name) for name in ("a.jsonl", "b.jsonl")]
        for path in paths:
            inputs.write_jsonl(corpus, ordered, path)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            wire = a.read()
            assert wire == b.read()
        records = [json.loads(line) for line in wire.decode().splitlines()]
        assert [r["id"] for r in records] == [s.snippet_id for s in ordered]
        assert all(r["story_label"] for r in records)


def test_contract_names_what_run_py_prints() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.workloads())
    assert spec["paths"] == [os.path.relpath(HERE, ROOT)]
    assert spec["command"][-1] == os.path.relpath(run.__file__, ROOT)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert set(run.EXACT_COUNTS) <= set(names)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def main() -> int:
    tests = [
        (name, fn) for name, fn in sorted(globals().items())
        if name.startswith("test_") and callable(fn)
    ]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
