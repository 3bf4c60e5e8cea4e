"""Pins of the bytes the append-only logs leave on disk.

One seeded single-shard run with injected clocks writes a WAL (active
file and sealed segments), checkpoints, a dead-letter file and
``decisions.jsonl``; it is killed, resumed and killed again, so the
files also carry what a reopen appends.  A span store fed fixed span
records writes a size-rotated trace export.  Every file's name, size
and SHA-256 must match ``fixtures/record_bytes.json``.

Story ids come from a process-wide counter, so each ``c<digits>`` id is
renamed by its rank among the ids the files hold (same width, same
order) before hashing; nothing else is normalized.

Re-record (only when an on-disk format is meant to change):
``PYTHONPATH=src python tests/test_record_bytes.py``.
"""

import hashlib
import json
import os
import re

from repro.core.config import StoryPivotConfig
from repro.eventdata.sourcegen import synthetic_corpus
from repro.obs.decisions import DecisionLog
from repro.obs.store import SpanStore
from repro.resilience import DeadLetterQueue, RetryPolicy
from repro.runtime import ShardedRuntime

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "record_bytes.json")
CONFIG = StoryPivotConfig.temporal()
CLOCK = 1_400_000_000.0
POISON = 7  # every 7th snippet of the first run is quarantined
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
_STORY_ID = re.compile(r"c('?)(\d{6})")


def _normalize(texts):
    """Rename story ids by rank, keeping their width and their order."""
    ranks = {}
    for prefix in ("", "'"):
        found = sorted({
            digits for text in texts.values()
            for mark, digits in _STORY_ID.findall(text) if mark == prefix
        })
        ranks.update({(prefix, d): f"{i:06d}" for i, d in enumerate(found)})
    return {
        name: _STORY_ID.sub(
            lambda m: f"c{m.group(1)}{ranks[(m.group(1), m.group(2))]}", text
        )
        for name, text in texts.items()
    }


def _digest(directory):
    texts = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            texts[name] = handle.read()
    return {
        name: [len(text.encode("utf-8")),
               hashlib.sha256(text.encode("utf-8")).hexdigest()]
        for name, text in _normalize(texts).items()
    }


def _runtime(wal_dir, resume=False):
    decisions = DecisionLog(
        path=os.path.join(wal_dir, "decisions.jsonl"), clock=lambda: CLOCK
    )
    options = dict(checkpoint_every=20, retry=FAST_RETRY, decisions=decisions)
    if resume:
        runtime = ShardedRuntime.resume(wal_dir, **options)
    else:
        runtime = ShardedRuntime(
            CONFIG, num_shards=1, wal_dir=wal_dir, **options
        ).start()
    shard = runtime._shards[0]
    shard.dlq.close()
    shard.dlq = DeadLetterQueue(
        runtime._store.dlq_path(0), clock=lambda: CLOCK
    )
    return runtime, shard


def seeded_run(wal_dir):
    """Two killed runs over one directory; returns its pinned digest."""
    snippets = synthetic_corpus(
        total_events=60, num_sources=3, seed=11
    ).snippets_by_publication()
    first, cut = snippets[:70], snippets[70:117]
    poison = {s.snippet_id for s in first[POISON - 1::POISON]}
    runtime, shard = _runtime(wal_dir)

    def hook(snippet):
        if snippet.snippet_id in poison:
            raise RuntimeError(f"poison {snippet.snippet_id}")

    shard.fault_hook = hook
    runtime.consume(first)
    runtime.drain()
    runtime.kill()
    runtime, _ = _runtime(wal_dir, resume=True)
    runtime.consume(cut)
    runtime.drain()
    runtime.kill()
    return _digest(wal_dir)


def _span(index):
    return {
        "trace_id": f"{index:016x}", "span_id": f"{index + 1:016x}",
        "parent_id": None, "name": "ingest", "node": "n1",
        "started_at": CLOCK + index, "duration": 0.001 * index,
        "attrs": {"index": index}, "events": [],
    }


def export_run(directory):
    """A size-rotated trace export of 37 fixed traces."""
    path = os.path.join(directory, "traces.jsonl")
    store = SpanStore(
        export_path=path, export_max_bytes=1500, export_keep_files=2
    )
    for index in range(37):
        store.record(_span(index))
    store.close()
    return _digest(directory)


def observe(scratch):
    wal_dir = os.path.join(scratch, "wal")
    export_dir = os.path.join(scratch, "export")
    os.makedirs(export_dir)
    return {"runtime": seeded_run(wal_dir), "export": export_run(export_dir)}


def test_on_disk_bytes_match_the_pin(tmp_path):
    with open(FIXTURE, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert observe(str(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        observed = observe(scratch)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(observed, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
