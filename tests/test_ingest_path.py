"""Pins of the ingest path: one stream, every tracing mode, one answer.

A seeded stream with ~10% re-deliveries (the shape of the ledger's
``stream_volume`` workload) goes through :class:`ShardedRuntime`
untraced, with an unsampled tracer and with a fully sampled one, and
through a single-threaded :class:`StreamProcessor`.  Every run must
report the counters, the accepted count, the canonical state bytes and
the identification decisions recorded in ``fixtures/ingest_path.json``;
the sampled run must also end the same root spans with the same
outcomes.  The retry schedules of a flaky connector pull and of a flaky
replication fetch are pinned the same way.

Re-record (only when an ingest result is meant to change):
``PYTHONPATH=src python tests/test_ingest_path.py``.
"""

import collections
import functools
import hashlib
import json
import os
import random

import pytest

from repro.connect import ConnectorStream, open_source
from repro.core.config import StoryPivotConfig
from repro.core.persistence import dumps_state
from repro.core.pipeline import StoryPivot
from repro.core.streaming import StreamProcessor
from repro.eventdata.sourcegen import synthetic_corpus
from repro.obs.trace import Tracer
from repro.replication import ReplicationClient
from repro.replication.protocol import MANIFEST_KIND, PROTOCOL_VERSION
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjector, FaultProfile
from repro.runtime import ShardedRuntime

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "ingest_path.json")
CONNECT_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "connect")
CONFIG = StoryPivotConfig.temporal()
SEED = 3
REDELIVERY_RATE = 0.10
MAX_LAG = 32

@functools.lru_cache(maxsize=None)
def delivery():
    """The corpus in publication order, ~10% re-delivered a little later."""
    corpus = synthetic_corpus(total_events=120, num_sources=4, seed=7)
    rng = random.Random(SEED)
    due = collections.defaultdict(list)
    out = []
    for position, snippet in enumerate(corpus.snippets_by_publication()):
        out.append(snippet)
        if rng.random() < REDELIVERY_RATE:
            due[position + rng.randint(1, MAX_LAG)].append(snippet)
        out.extend(due.pop(position, ()))
    for position in sorted(due):
        out.extend(due[position])
    return tuple(out)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def decisions_digest(events) -> str:
    """Per-source decision sequences, reproducible across runs.

    ``ts``, the log-wide ``seq`` and ``trace_id`` depend on the clock,
    the shard interleaving and the tracer; story ids come from a
    process-wide counter, so each is renamed by its first appearance in
    its source's sequence (a source is identified on one shard, in
    order).
    """
    per_source = collections.defaultdict(list)
    names = {}
    stories = collections.Counter()
    for event in events:
        event = {
            k: v for k, v in event.items() if k not in ("ts", "seq", "trace_id")
        }
        source = event["source_id"]
        story = event["story_id"]
        if story not in names:
            names[story] = f"{source}/#{stories[source]}"
            stories[source] += 1
        event["story_id"] = names[story]
        per_source[source].append(event)
    return sha(json.dumps(per_source, sort_keys=True))


class _Roots:
    """A span store that counts ended roots by ``(name, outcome)``."""

    def __init__(self) -> None:
        self.counts = collections.Counter()

    def record(self, span: dict) -> None:
        if span.get("parent_id") is None:
            outcome = span.get("attrs", {}).get("outcome")
            self.counts[f"{span['name']}:{outcome}"] += 1


def count_identifications(monkeypatch):
    """Counts calls into identification: a re-delivery caught by the
    dedup window must never reach it."""
    calls = []
    add_snippet = StoryPivot.add_snippet

    def counted(self, snippet):
        calls.append(snippet.snippet_id)
        return add_snippet(self, snippet)

    monkeypatch.setattr(StoryPivot, "add_snippet", counted)
    return calls


def observe_runtime(tracer=None):
    runtime = ShardedRuntime(CONFIG, tracer=tracer, num_shards=2).start()
    try:
        runtime.consume(delivery())
        runtime.drain()
        observed = {
            "stats": runtime.stats(),
            "accepted": runtime.accepted,
            "state_sha256": sha(runtime.dumps_state()),
            "decisions_sha256": decisions_digest(runtime.decisions.events()),
        }
    finally:
        runtime.stop()
    return observed


def observe_processor():
    processor = StreamProcessor(CONFIG, realign_every=10**9)
    processor.consume(delivery())
    return {
        "arrived": processor.stats.arrived,
        "accepted": processor.stats.accepted,
        "duplicates": processor.stats.duplicates,
        "state_sha256": sha(dumps_state(processor.pivot, canonical_ids=True)),
    }


def observe_resume(wal_dir):
    stream = delivery()
    half = len(stream) // 2
    first = ShardedRuntime(CONFIG, num_shards=2, wal_dir=wal_dir).start()
    first.consume(stream[:half])
    first.stop()
    resumed = ShardedRuntime.resume(wal_dir)
    try:
        restored = resumed.accepted
        resumed.consume(stream[half:])
        resumed.drain()
        observed = {
            "restored": restored,
            "new": resumed.stats()["accepted"],
            "accepted": resumed.accepted,
            "state_sha256": sha(resumed.dumps_state()),
        }
    finally:
        resumed.stop()
    return observed


class _FlakyPulls:
    """Pull-safe iterator that raises before the listed pulls advance."""

    def __init__(self, items, failing_pulls) -> None:
        self._items = iter(items)
        self._failing = collections.Counter(failing_pulls)
        self._pulls = 0

    def __iter__(self):
        return self

    def __next__(self):
        self._pulls += 1
        if self._failing[self._pulls]:
            raise ConnectionError(f"flaky pull {self._pulls}")
        return next(self._items)


def connector_delays(monkeypatch):
    """Sleeps of a flaky ``jsonl:`` pull: upstream errors, then chaos.

    The connector's name keys the retry jitter, so the locator is
    relative: the schedule must not depend on where the tree lives.
    """
    monkeypatch.chdir(CONNECT_FIXTURES)
    delays = []
    connector = open_source("jsonl:mangled.jsonl")
    pull = connector.pull
    connector.pull = lambda: _FlakyPulls(pull(), [3, 8, 9, 15])
    list(ConnectorStream(connector, sleep=delays.append))
    flaky = {"upstream": delays}

    delays = []
    profile = FaultProfile(
        name="pin", feed_error_rate=0.3, feed_latency_rate=0.0,
        duplicate_rate=0.0, reorder_rate=0.0,
    )
    injector = FaultInjector(seed=SEED, profile=profile, sleep=lambda s: None)
    stream = ConnectorStream(
        open_source("jsonl:mangled.jsonl"), injector=injector,
        sleep=delays.append,
    )
    flaky["chaos"] = delays
    flaky["chaos_admitted"] = sum(1 for _ in stream)
    return flaky


def replication_delays(monkeypatch):
    """Sleeps of a flaky leader: one fetch recovers, one gives up."""
    delays = []
    monkeypatch.setitem(
        CircuitBreaker.call_with_retry.__kwdefaults__, "sleep", delays.append
    )
    body = json.dumps({"kind": MANIFEST_KIND, "version": PROTOCOL_VERSION})

    def fetch(failures):
        """A fresh client whose leader fails the first ``failures`` calls."""
        left = [failures]

        def transport(url, headers):
            if left[0]:
                left[0] -= 1
                raise ConnectionError("leader blip")
            return body.encode("utf-8")

        client = ReplicationClient("http://leader.invalid", transport=transport)
        client.fetch_manifest()

    fetch(2)
    recovered = list(delays)
    with pytest.raises(ConnectionError):
        fetch(3)
    return {"recovered": recovered, "exhausted": delays[len(recovered):]}


def recorded():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestOneAnswerAcrossTracingModes:
    @pytest.mark.parametrize("sample_rate", [None, 0.0, 1.0])
    def test_runtime_matches_the_recording(self, monkeypatch, sample_rate):
        calls = count_identifications(monkeypatch)
        roots = _Roots()
        tracer = (
            None if sample_rate is None
            else Tracer(sample_rate=sample_rate, store=roots)
        )
        expected = recorded()
        observed = observe_runtime(tracer)
        assert observed == expected["runtime"]
        assert len(calls) == expected["runtime"]["accepted"]
        if sample_rate == 1.0:
            assert dict(roots.counts) == expected["roots"]
        else:
            assert not roots.counts

    def test_stream_processor_matches_the_recording(self, monkeypatch):
        calls = count_identifications(monkeypatch)
        expected = recorded()
        assert observe_processor() == expected["processor"]
        processor, runtime = expected["processor"], expected["runtime"]
        assert len(calls) == processor["accepted"]
        assert processor["accepted"] == runtime["accepted"]
        assert processor["state_sha256"] == runtime["state_sha256"]


class TestResumedAccepted:
    def test_accepted_counts_restored_and_new_arrivals(self, tmp_path):
        expected = recorded()
        observed = observe_resume(str(tmp_path / "wal"))
        assert observed == expected["resume"]
        assert observed["accepted"] == observed["restored"] + observed["new"]
        assert observed["accepted"] == expected["runtime"]["accepted"]
        assert observed["state_sha256"] == expected["runtime"]["state_sha256"]


class TestRetrySchedules:
    def test_connector_pull_delays(self, monkeypatch):
        expected = recorded()["retry"]["connector"]
        assert connector_delays(monkeypatch) == expected

    def test_replication_fetch_delays(self, monkeypatch):
        assert (replication_delays(monkeypatch)
                == recorded()["retry"]["replication"])


if __name__ == "__main__":
    import tempfile

    roots = _Roots()
    fixture = {
        "runtime": observe_runtime(),
        "processor": observe_processor(),
    }
    traced = observe_runtime(Tracer(sample_rate=1.0, store=roots))
    assert traced == fixture["runtime"], "traced run differs from untraced"
    fixture["roots"] = dict(roots.counts)
    with tempfile.TemporaryDirectory() as scratch:
        fixture["resume"] = observe_resume(os.path.join(scratch, "wal"))
    patch = pytest.MonkeyPatch()
    try:
        fixture["retry"] = {
            "connector": connector_delays(patch),
            "replication": replication_delays(patch),
        }
    finally:
        patch.undo()
    with open(FIXTURE, "w", encoding="utf-8") as out:
        json.dump(fixture, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"recorded {FIXTURE}")
