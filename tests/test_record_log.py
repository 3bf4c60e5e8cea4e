"""The record log under the WAL, the decision log, the DLQ and the export.

A kill mid-append leaves a file whose last line is torn anywhere inside
its last record, or that lost only its closing newline.  For each of
the four writers, and for every such cut, a reopened writer must read
back every intact record, number its next append above them and read
that append back too — it must never be glued onto the torn prefix.
The WAL's live tail (what replication ships) must carry it before any
rotation.  Then the same through the runtime and a replication fetch,
and the dead-letter replay's crash window.
"""

import os

import pytest

from repro.core.config import StoryPivotConfig
from repro.errors import DataFormatError
from repro.obs.decisions import DecisionLog
from repro.obs.store import SpanStore
from repro.recordlog import RecordLog
from repro.replication import ReplicationServer
from repro.replication.follower import ReplicationClient
from repro.resilience import DeadLetterQueue, RetryPolicy
from repro.runtime import ShardedRuntime
from repro.runtime.runtime import REJECTED_PREFIX
from repro.runtime.wal import ShardWal

from tests.conftest import make_snippet

CONFIG = StoryPivotConfig()
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)


def every_cut(path):
    """Yield once per cut of the last record, the file cut in place.

    Yields how many records are still intact: the last one survives
    only the cut that removes nothing but its newline.
    """
    with open(path, "rb") as handle:
        whole = handle.read()
    lines = whole.splitlines(keepends=True)
    start = len(whole) - len(lines[-1])
    for cut in range(len(lines[-1])):
        with open(path, "wb") as handle:
            handle.write(whole[:start + cut])
        yield len(lines) - (cut < len(lines[-1]) - 1)


def test_wal_reopened_after_every_cut_keeps_every_record(tmp_path):
    path = str(tmp_path / "shard-000.wal.jsonl")
    wal = ShardWal(path)
    for i in range(3):
        wal.append(make_snippet(f"a:{i}", "a"))
    wal.close()
    for intact in every_cut(path):
        resumed = ShardWal(path)
        assert resumed.position == intact
        resumed.append(make_snippet("a:new", "a"))
        tail = list(resumed.iter_records(0))
        resumed.close()
        assert [(r["snippet_id"], r["seq"]) for r in tail] == [
            (f"a:{i}", i) for i in range(intact)
        ] + [("a:new", intact)]
        assert [s.snippet_id for s in ShardWal(path).replay()] == [
            f"a:{i}" for i in range(intact)
        ] + ["a:new"]


def test_decision_log_reopened_after_every_cut_keeps_every_event(tmp_path):
    path = str(tmp_path / "decisions.jsonl")
    log = DecisionLog(path=path, clock=lambda: 1.0)
    for i in range(3):
        log.record("created", f"s1/c{i}", snippet_id=f"s1:{i}", score=0.5)
    log.close()
    for intact in every_cut(path):
        resumed = DecisionLog(path=path, clock=lambda: 1.0)
        entry = resumed.record("extended", "s1/c0", snippet_id="s1:new")
        resumed.close()
        assert entry["seq"] == intact + 1
        events = DecisionLog.load(path).events()
        assert [(e["snippet_id"], e["seq"]) for e in events] == [
            (f"s1:{i}", i + 1) for i in range(intact)
        ] + [("s1:new", intact + 1)]


def test_dlq_reopened_after_every_cut_keeps_every_letter(tmp_path):
    path = str(tmp_path / "shard-000.dlq.jsonl")
    dlq = DeadLetterQueue(path)
    for i in range(3):
        dlq.append(make_snippet(f"a:{i}", "a"), error="x", attempts=1)
    dlq.close()
    for intact in every_cut(path):
        resumed = DeadLetterQueue(path)
        assert len(resumed) == intact
        resumed.append(make_snippet("a:new", "a"), error="x", attempts=1)
        resumed.close()
        assert [l.snippet.snippet_id for l in DeadLetterQueue(path).records()] == [
            f"a:{i}" for i in range(intact)
        ] + ["a:new"]


def _root(trace_id):
    return {
        "trace_id": trace_id, "span_id": trace_id, "parent_id": None,
        "name": "ingest", "started_at": 1.0, "duration": 0.5, "events": [],
    }


def test_trace_export_reopened_after_every_cut_keeps_every_trace(tmp_path):
    path = str(tmp_path / "traces.jsonl")
    store = SpanStore(export_path=path)
    for i in range(3):
        store.record(_root(f"{i:016x}"))
    store.close()
    for intact in every_cut(path):
        resumed = SpanStore(export_path=path)
        resumed.record(_root("f" * 16))
        resumed.close()
        assert [t["trace_id"] for t in RecordLog(path).read()] == [
            f"{i:016x}" for i in range(intact)
        ] + ["f" * 16]


def test_tail_mode_stops_only_at_an_unterminated_last_line(tmp_path):
    path = str(tmp_path / "x.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"a": 1}\n{"a": \n{"a": 2}\n{"a": 3}')
    log = RecordLog(path)
    assert [r["a"] for r in log.read("tail")] == [1, 2]
    assert [r["a"] for r in log.read("lenient")] == [1, 2, 3]
    bad = []
    list(log.read("lenient", on_bad=lambda *args: bad.append(args[1])))
    assert bad == [2]
    with pytest.raises(DataFormatError, match=r"x\.jsonl:2"):
        list(log.read("strict"))


# -- through the runtime and a replication fetch ---------------------------


def _stream(prefix, count):
    return [
        make_snippet(f"{prefix}:{i}", prefix, f"2014-07-{i % 28 + 1:02d}")
        for i in range(count)
    ]


def test_resume_over_a_torn_wal_keeps_every_acknowledged_snippet(tmp_path):
    wal_dir = str(tmp_path / "wal")
    first = ShardedRuntime(
        CONFIG, num_shards=1, wal_dir=wal_dir, checkpoint_every=10_000
    ).start()
    first.consume(_stream("a", 6))
    first.drain()
    first.kill()
    wal_path = os.path.join(wal_dir, "shard-000.wal.jsonl")
    os.truncate(wal_path, os.path.getsize(wal_path) - 7)  # kill mid-append

    resumed = ShardedRuntime.resume(wal_dir)
    ship = ReplicationServer(resumed).start()
    try:
        resumed.consume(_stream("b", 4))
        resumed.drain()
        acknowledged = resumed.accepted
        assert acknowledged == 9  # a:5 was torn, before it was acked
        position = resumed.wal_positions()[0]
        payload = ReplicationClient(ship.address).fetch_wal(0, 0, 100)
        shipped = [r["snippet_id"] for r in payload["records"]]
        assert shipped == [f"a:{i}" for i in range(5)] + [
            f"b:{i}" for i in range(4)
        ]
        assert payload["records"][-1]["seq"] == position - 1
    finally:
        ship.close()
        resumed.kill()

    again = ShardedRuntime.resume(wal_dir)
    try:
        assert again.accepted == acknowledged
    finally:
        again.kill()


# -- the dead-letter replay's crash window ---------------------------------


def _quarantine(wal_dir):
    """A stopped runtime with two poisoned letters and one rejection."""
    runtime = ShardedRuntime(
        CONFIG, num_shards=1, wal_dir=wal_dir, retry=FAST_RETRY
    ).start()
    shard = runtime._shards[0]
    poison = {"a:1", "a:3"}

    def hook(snippet):
        if snippet.snippet_id in poison:
            raise RuntimeError("outage")

    shard.fault_hook = hook
    runtime.consume(_stream("a", 5))
    runtime.drain()
    shard.dlq.append(
        make_snippet("r:0", "r"), error=REJECTED_PREFIX + "no date",
        attempts=1, shard_id=0,
    )
    runtime.stop()
    return os.path.join(wal_dir, "shard-000.dlq.jsonl")


def _letters(path):
    return sorted(l.snippet.snippet_id for l in DeadLetterQueue(path).records())


def test_a_replay_that_dies_after_the_drain_keeps_every_letter(
    tmp_path, monkeypatch
):
    wal_dir = str(tmp_path / "wal")
    path = _quarantine(wal_dir)
    assert _letters(path) == ["a:1", "a:3", "r:0"]

    def crash(self, snippet):
        raise KeyboardInterrupt("killed mid-replay")

    runtime = ShardedRuntime.resume(wal_dir, retry=FAST_RETRY)
    monkeypatch.setattr(ShardedRuntime, "offer", crash)
    with pytest.raises(KeyboardInterrupt):
        runtime.replay_dlq()
    runtime.kill()
    assert _letters(path) == ["a:1", "a:3", "r:0"]

    monkeypatch.undo()
    runtime = ShardedRuntime.resume(wal_dir, retry=FAST_RETRY)
    try:
        assert runtime.replay_dlq() == {"replayed": 2, "requeued": 0, "held": 1}
    finally:
        runtime.kill()  # no checkpoint: the replayed pair lives in the WAL
    assert _letters(path) == ["r:0"]
    recovered = ShardedRuntime.resume(wal_dir)
    try:
        assert recovered.accepted == 5
    finally:
        recovered.kill()
