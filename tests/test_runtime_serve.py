"""Tests for the storypivot-serve CLI (and the storypivot-run dispatch)."""

import json

import pytest

from repro.cli import main as run_main
from repro.core.persistence import load_state
from repro.runtime.serve import main as serve_main


class TestInputs:
    def test_no_input_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            serve_main([])
        assert excinfo.value.code == 2

    def test_resume_without_wal_dir_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--resume"])
        assert excinfo.value.code == 2

    def test_demo_summary_line(self, capsys):
        assert serve_main(["--demo", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out
        assert "integrated stories" in out
        assert "[2 shard(s), " in out

    @pytest.mark.parametrize("flags", [
        ["--executor", "process"],
        ["--realign-every", "5"],
    ])
    def test_removed_flags_exit_2(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--demo", *flags])
        assert excinfo.value.code == 2

    def test_synthetic_run(self, capsys):
        assert serve_main(
            ["--synthetic", "60", "--sources", "3", "--workers", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "arrived" in out
        assert "4 shard(s)" in out


class TestDispatch:
    def test_storypivot_run_serve_subcommand(self, capsys):
        assert run_main(["serve", "--demo", "--workers", "2"]) == 0
        assert "integrated stories" in capsys.readouterr().out

    def test_storypivot_run_ingest_alias(self, capsys):
        assert run_main(["ingest", "--demo", "--workers", "2"]) == 0
        assert "integrated stories" in capsys.readouterr().out


class TestMetricsOutputs:
    def test_metrics_file_has_required_keys(self, tmp_path, capsys):
        """The serve CLI emits a metrics JSON containing queue depth,
        offer-latency histogram, and the end-of-stream alignment's
        timings (recorded by flush(), the only alignment it runs)."""
        path = tmp_path / "metrics.json"
        assert serve_main(
            ["--synthetic", "80", "--sources", "4", "--workers", "4",
             "--metrics", str(path)]
        ) == 0
        assert f"metrics: {path}" in capsys.readouterr().out
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        for shard_id in range(4):
            assert f"queue.depth{{shard={shard_id}}}" in snapshot
        latency = snapshot["ingest.offer_latency_seconds"]
        assert latency["type"] == "histogram"
        assert latency["count"] > 0
        assert {"p50", "p95", "p99"} <= set(latency)
        realign = snapshot["realign.duration_seconds"]
        assert realign["type"] == "histogram"
        assert realign["count"] > 0
        assert snapshot["realign.count"]["value"] >= 1

    def test_stats_table(self, capsys):
        assert serve_main(["--demo", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "ingest.accepted" in out
        assert "ingest.offer_latency_seconds" in out
        assert "p95" in out

    def test_checkpoint_file_is_loadable(self, tmp_path, capsys):
        path = tmp_path / "state.jsonl"
        assert serve_main(["--demo", "--checkpoint", str(path)]) == 0
        assert f"checkpoint: {path}" in capsys.readouterr().out
        pivot = load_state(path.read_text(encoding="utf-8"))
        assert pivot.num_snippets > 0


class TestDurability:
    def test_wal_then_resume_continues(self, tmp_path, capsys):
        wal_dir = tmp_path / "state"
        assert serve_main(
            ["--synthetic", "50", "--sources", "3", "--workers", "2",
             "--wal-dir", str(wal_dir)]
        ) == 0
        first = capsys.readouterr().out
        assert "arrived" in first
        assert "0 dropped" in first
        # resume with no new corpus: recovered state only
        assert serve_main(
            ["--resume", "--wal-dir", str(wal_dir), "--workers", "2"]
        ) == 0
        resumed = capsys.readouterr().out
        assert "integrated stories" in resumed
