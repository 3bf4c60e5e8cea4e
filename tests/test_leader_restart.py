"""A leader restarted on its ``--wal-dir`` resumes it; a fresh runtime
refuses a directory that already holds one."""

from __future__ import annotations

import collections
import glob
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.core.config import StoryPivotConfig
from repro.errors import ConfigurationError
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime
from repro.runtime.serve import main as serve_main

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
ROWS = 40


def write_feed(path):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(ROWS):
            fh.write(json.dumps({
                "id": f"r{i}", "source": ("wire-a", "paper-b", "blog-c")[i % 3],
                "title": f"Event {i} develops in region",
                "description": f"Step {i} of the unfolding investigation story",
                "timestamp": 1405555200 + i * 3600,
                "published": 1405555200 + i * 3600 + 600,
                "entities": ["Ukraine", f"Actor{i % 5}"],
                "keywords": ["crash", f"kw{i % 4}"],
            }) + "\n")


def arrived(port):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metricz", timeout=5
    ) as response:
        return json.load(response)["ingest.arrived"]["value"]


def run_leader(feed, wal_dir, workers):
    """One ``storypivot-api --follow`` run until the whole feed arrived,
    then SIGTERM (a drained stop)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server.cli", "--source", f"jsonl:{feed}",
         "--follow", "--workers", str(workers), "--wal-dir", wal_dir,
         "--port", "0", "--refresh-interval", "0.2"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline()
        port = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        assert port, banner + proc.stderr.read()
        deadline = time.monotonic() + 30.0
        while arrived(port.group(1)) < ROWS:
            assert time.monotonic() < deadline, "the feed never arrived"
            time.sleep(0.1)
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, out + err
    assert "Traceback" not in err, err


def wal_ids(wal_dir):
    counts = collections.Counter()
    for path in glob.glob(os.path.join(wal_dir, "shard-*.wal.jsonl*")):
        with open(path, encoding="utf-8") as fh:
            counts.update(
                json.loads(line)["snippet_id"] for line in fh if line.strip()
            )
    return counts


def test_a_restarted_leader_resumes_its_wal_dir(tmp_path):
    feed, wal_dir = str(tmp_path / "feed.jsonl"), str(tmp_path / "state")
    write_feed(feed)
    run_leader(feed, wal_dir, workers=2)
    # the second run asks for 3 shards; the manifest's 2 win
    run_leader(feed, wal_dir, workers=3)

    counts = wal_ids(wal_dir)
    assert len(counts) == ROWS
    assert set(counts.values()) == {1}, counts
    assert not glob.glob(os.path.join(wal_dir, "shard-002.*"))
    with open(os.path.join(wal_dir, "decisions.jsonl"), encoding="utf-8") as fh:
        seqs = [json.loads(line)["seq"] for line in fh]
    assert seqs == list(range(1, len(seqs) + 1))


def test_a_fresh_runtime_refuses_a_used_wal_dir(tmp_path):
    wal_dir = str(tmp_path)
    assert serve_main(["--synthetic", "30", "--sources", "3",
                       "--wal-dir", wal_dir]) == 0
    with pytest.raises(ConfigurationError, match="already holds a runtime"):
        ShardedRuntime(
            StoryPivotConfig(), RuntimeOptions(num_shards=2, wal_dir=wal_dir)
        ).start()
    with pytest.raises(SystemExit) as exited:
        serve_main(["--synthetic", "30", "--sources", "3", "--wal-dir", wal_dir])
    assert exited.value.code == 2
    ShardedRuntime.resume(wal_dir).stop()
