"""Trace-export rotation and the storypivot-trace / storypivot-top CLIs."""

import json

import pytest

from repro.obs import SpanStore, Tracer
from repro.obs.propagate import parse_traceparent, span_traceparent
from repro.obs.topcli import render_cluster_table
from repro.obs.tracecli import gather_spans, main as trace_main, render_tree
from repro.runtime.metrics import MetricsRegistry


def _emit(store, count, name="work"):
    tracer = Tracer(sample_rate=1.0, store=store)
    for index in range(count):
        with tracer.start_trace(name, index=index):
            pass


class TestExportRotation:
    def test_export_rotates_and_prunes_past_retention(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        metrics = MetricsRegistry()
        store = SpanStore(
            export_path=path, export_max_bytes=2000, export_keep_files=2,
            metrics=metrics,
        )
        _emit(store, 60)
        store.close()
        files = store.export_files()
        # at most the active file plus keep_files sealed generations
        assert files and all(f.startswith(path) for f in files)
        assert len(files) <= 3
        assert store.rotations >= 3  # 60 traces at ~200 B past 2 kB
        assert metrics.gauge("obs.trace_files").value == len(files)
        # every surviving file is whole JSONL lines
        for file_path in files:
            with open(file_path, encoding="utf-8") as handle:
                for line in handle:
                    assert json.loads(line)["trace_id"]

    def test_keep_zero_retains_only_the_active_file(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        store = SpanStore(
            export_path=path, export_max_bytes=1000, export_keep_files=0,
        )
        _emit(store, 40)
        store.close()
        assert store.rotations >= 1
        assert len(store.export_files()) <= 1

    def test_unbounded_export_never_rotates(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        store = SpanStore(export_path=path, export_max_bytes=None)
        _emit(store, 40)
        store.close()
        assert store.rotations == 0
        assert store.export_files() == [path]

    def test_bind_metrics_initializes_the_gauge(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        store = SpanStore(export_path=path, export_max_bytes=500)
        _emit(store, 20)
        store.close()
        metrics = MetricsRegistry()
        store.bind_metrics(metrics)
        assert metrics.gauge("obs.trace_files").value == len(
            store.export_files()
        )


@pytest.fixture
def stitched_exports(tmp_path):
    """Leader + follower export files sharing one cross-node trace."""
    leader_path = str(tmp_path / "leader.jsonl")
    follower_path = str(tmp_path / "follower.jsonl")
    leader_store = SpanStore(export_path=leader_path)
    leader = Tracer(
        sample_rate=1.0, store=leader_store, node_id="leader@h:1"
    )
    follower_store = SpanStore(export_path=follower_path)
    follower = Tracer(
        sample_rate=1.0, store=follower_store, node_id="follower@h:2"
    )
    with leader.start_trace("replication.ship", shard=0) as ship:
        context = parse_traceparent(span_traceparent(ship))
    with follower.start_remote("replication.apply", context) as apply_span:
        with follower.attach(apply_span):
            with follower.span("wal.append"):
                pass
    leader_store.close()
    follower_store.close()
    return leader_path, follower_path, ship.trace_id


class TestTraceCli:
    def test_union_of_exports_stitches_one_tree(self, stitched_exports):
        leader_path, follower_path, trace_id = stitched_exports
        spans = gather_spans([leader_path, follower_path], trace_id)
        assert len(spans) == 3
        tree = render_tree(spans, trace_id)
        lines = tree.split("\n")
        assert "2 node(s)" in lines[0]
        ship_line = next(l for l in lines if "replication.ship" in l)
        apply_line = next(l for l in lines if "replication.apply" in l)
        wal_line = next(l for l in lines if "wal.append" in l)
        # indentation encodes parentage: ship is the root
        assert not ship_line.startswith(" ")
        assert apply_line.startswith("  ")
        assert wal_line.startswith("    ")
        assert "[leader@h:1]" in ship_line
        assert "[follower@h:2]" in apply_line
        assert "(remote parent)" in apply_line

    def test_partial_union_degrades_to_a_forest(self, stitched_exports):
        _, follower_path, trace_id = stitched_exports
        spans = gather_spans([follower_path], trace_id)
        assert len(spans) == 2
        tree = render_tree(spans, trace_id)
        # the apply span's parent is on the node we did not read: it
        # renders at the top level instead of erroring
        assert not tree.split("\n")[1].startswith(" ")
        assert "replication.apply" in tree

    def test_unknown_trace_id_exits_nonzero(self, stitched_exports, capsys):
        leader_path, _, _ = stitched_exports
        assert trace_main([leader_path, "f" * 16]) == 1
        assert "no spans found" in capsys.readouterr().out

    def test_torn_tail_lines_are_skipped(self, stitched_exports, tmp_path):
        leader_path, _, trace_id = stitched_exports
        torn = tmp_path / "torn.jsonl"
        with open(leader_path, encoding="utf-8") as fh:
            torn.write_text(fh.read() + '{"trace_id": "tr')
        assert gather_spans([str(torn)], trace_id)


class TestTopCli:
    def test_cluster_table_renders_live_and_dead_rows(self):
        table = render_cluster_table({
            "nodes": [
                {
                    "node": "leader@h:1", "role": "leader", "up": True,
                    "generation": 42, "lag_seconds": 0.0,
                    "subscribers": 0, "dlq_records": 0,
                    "error_rate": 0.0125,
                    "breakers": {"leader": 0, "push": 2},
                },
                {
                    "node": "follower@h:2", "role": "follower",
                    "up": False, "error": "connection refused",
                },
            ],
            "fleet": {
                "nodes": 2, "live": 1, "worst_lag_seconds": 0.0,
                "subscribers": 0, "dlq_records": 0,
            },
        })
        assert "leader@h:1" in table
        assert "1.25" in table  # error rate rendered as a percentage
        assert "push=2" in table and "leader=0" not in table
        assert "connection refused" in table
        assert "fleet: 1/2 up" in table
