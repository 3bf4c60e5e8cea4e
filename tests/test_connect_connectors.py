"""Connector registry, the built-in connectors, and the end-to-end mount.

The end-to-end classes drive recorded hostile fixtures through a real
:class:`ShardedRuntime` and pin the extended chaos-accounting invariant:
``arrived + rejected = accepted + dup + dropped + quarantined + rejected``
— hostile inputs degrade into audited rejections, never crashes.
"""

import os

import pytest

from repro.connect import (
    ConnectorRegistry,
    ConnectorStream,
    RawItem,
    SourceConnector,
    open_source,
    source_corpus_shell,
)
from repro.core.config import StoryPivotConfig
from repro.errors import ConfigurationError
from repro.eventdata.models import DAY
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "connect")
BASE = 1405555200.0
NOW = BASE + 30 * DAY


def fixture(name):
    return os.path.join(FIXTURES, name)


class TestRegistry:
    def test_known_schemes_registered(self):
        from repro.connect import REGISTRY
        import repro.connect.connectors  # noqa: F401

        for scheme in ("jsonl", "rss", "gdelt", "sim"):
            assert scheme in REGISTRY.schemes()

    def test_unknown_scheme_is_actionable(self):
        with pytest.raises(ConfigurationError, match="registered:"):
            open_source("carrier-pigeon:coop")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            open_source("   ")

    def test_missing_file_fails_at_construction(self):
        # a typo'd path must hit the CLIs' exit-2 misuse contract, not
        # serve an eternally empty feed through the retry stack
        for spec in ("jsonl:/no/such.jsonl", "rss:/no/such.xml",
                     "gdelt:/no/such.tsv"):
            with pytest.raises(ConfigurationError, match="no such file"):
                open_source(spec)

    def test_duplicate_scheme_rejected(self):
        registry = ConnectorRegistry()

        @registry.register("x")
        class First(SourceConnector):  # noqa: F811
            scheme = "x"

        with pytest.raises(ConfigurationError):
            @registry.register("x")
            class Second(SourceConnector):
                scheme = "x"

    def test_scheme_must_be_bare_word(self):
        registry = ConnectorRegistry()
        with pytest.raises(ConfigurationError):
            registry.register("a:b")
        with pytest.raises(ConfigurationError):
            registry.register("")


class TestRssConnector:
    def test_valid_feed(self):
        connector = open_source(f"rss:{fixture('feed.xml')}")
        stream = ConnectorStream(connector, clock=lambda: NOW)
        snippets = list(stream)
        assert [s.snippet_id for s in snippets] == ["rss-1", "rss-2"]
        assert snippets[0].description.startswith("A passenger jet")
        assert "crash" in snippets[0].keywords
        # the feed's basename becomes the assumed source
        assert snippets[0].source_id == "feed"
        assert "source_assumed" in stream.normalizer.repairs

    def test_broken_markup_scavenged(self):
        connector = open_source(f"rss:{fixture('mangled.xml')}")
        stream = ConnectorStream(connector, clock=lambda: NOW)
        snippets = list(stream)
        assert [s.snippet_id for s in snippets] == ["bad-1", "bad-2"]
        assert stream.normalizer.repairs["markup_salvaged"] == 2
        # CDATA markup inside the salvaged title is still stripped
        assert "<markup>" not in snippets[1].description

    def test_repull_does_not_duplicate(self):
        connector = open_source(f"rss:{fixture('feed.xml')}")
        stream = ConnectorStream(connector, clock=lambda: NOW)
        assert len(list(stream)) == 2
        assert list(stream) == []  # same entries, already emitted


class TestGdeltConnector:
    def test_tail_with_hostile_rows(self):
        connector = open_source(f"gdelt:{fixture('feed.tsv')}")
        stream = ConnectorStream(connector, clock=lambda: NOW)
        snippets = list(stream)
        assert [s.snippet_id for s in snippets] == ["t0", "t1", "t2", "t3"]
        assert stream.rejected == 2
        assert snippets[0].event_type == "Investigate"  # CAMEO 090
        assert snippets[0].entities == frozenset({"Ukraine", "Malaysia"})
        assert stream.labels["t0"] == "mh17"

    def test_offset_tailing(self, tmp_path):
        path = tmp_path / "tail.tsv"
        with open(fixture("feed.tsv"), "rb") as handle:
            original = handle.read()
        path.write_bytes(original)
        connector = open_source(f"gdelt:{path}")
        stream = ConnectorStream(connector, clock=lambda: NOW)
        assert len(list(stream)) == 4
        extra = "\t".join([
            "t9", "20140719", "UKR", "MYS", "090", "http://g.example/9",
            "gdelt-src", "Ukraine", "probe", "A brand new report appears",
            str(BASE + 9 * 3600.0), str(BASE + 9 * 3600.0), "mh17",
        ])
        with open(path, "ab") as handle:
            handle.write((extra + "\n").encode("utf-8"))
        fresh = list(stream)
        assert [s.snippet_id for s in fresh] == ["t9"]


class TestSimConnector:
    def test_synthetic_corpus_streams_with_labels(self):
        connector = open_source("sim:40:3:7")
        stream = ConnectorStream(connector)  # wall clock: sim is historical
        snippets = list(stream)
        assert stream.pulled > 0
        assert len(snippets) == stream.admitted
        assert len(stream.labels) == stream.admitted

    def test_shell_corpus_carries_sources(self):
        connector = open_source("sim:20:2:3")
        shell = source_corpus_shell("sim:20:2:3", connector)
        assert shell.name == "connect:sim:20:2:3"


class TestEndToEnd:
    def run_runtime(self, spec, num_shards=2, **stream_kwargs):
        runtime = ShardedRuntime(
            StoryPivotConfig(), RuntimeOptions(num_shards=num_shards)
        )
        try:
            stream = ConnectorStream(
                open_source(spec), runtime=runtime,
                clock=lambda: NOW, **stream_kwargs,
            )
            runtime.consume(stream)
            result = runtime.flush()
        finally:
            runtime.stop()
        return runtime, stream, result

    def test_mangled_corpus_balances_accounting(self):
        runtime, stream, result = self.run_runtime(
            f"jsonl:{fixture('mangled.jsonl')}"
        )
        stats = runtime.stats()
        assert stats["rejected"] == 6
        total_arrived = stats["arrived"] + stats["rejected"]
        accounted = (
            stats["accepted"] + stats["duplicates"] + stats["dropped"]
            + stats["quarantined"] + stats["rejected"]
        )
        assert total_arrived == accounted == 14
        assert result.num_stories >= 1

    def test_rejects_are_auditable_in_dlq(self):
        runtime, _, _ = self.run_runtime(f"jsonl:{fixture('mangled.jsonl')}")
        records = []
        for shard in runtime._shards:
            records.extend(shard.dlq.records())
        assert len(records) == 6
        assert all(r.error.startswith("rejected: ") for r in records)
        reasons = {r.error.split()[1] for r in records}
        assert "bad_timestamp" in reasons

    def test_metrics_families_on_registry(self):
        runtime, _, _ = self.run_runtime(f"jsonl:{fixture('mangled.jsonl')}")
        names = runtime.metrics.names()
        assert any(n.startswith("connect.pulled{") for n in names)
        assert any(n.startswith("connect.admitted{") for n in names)
        rejected = runtime.metrics.children("connect.rejected")
        assert sum(m.value for m in rejected.values()) == 6
        assert any("reason=bad_timestamp" in key for key in rejected)
        repaired = runtime.metrics.children("connect.repaired")
        assert any("reason=mojibake" in key for key in repaired)

    def test_report_epilogue(self):
        _, stream, _ = self.run_runtime(f"jsonl:{fixture('mangled.jsonl')}")
        report = stream.render_report()
        assert "14 pulled" in report
        assert "8 admitted" in report
        assert "6 rejected" in report
        assert "mojibake" in report

    def test_chaos_feed_flap_never_loses_silently(self):
        from repro.resilience.faults import FaultInjector, resolve_profile

        runtime = ShardedRuntime(
            StoryPivotConfig(), RuntimeOptions(num_shards=2)
        )
        try:
            injector = FaultInjector(
                seed=11, profile=resolve_profile("feed-flap"),
                metrics=runtime.metrics,
            )
            stream = ConnectorStream(
                open_source(f"jsonl:{fixture('mangled.jsonl')}"),
                runtime=runtime, injector=injector,
                clock=lambda: NOW, sleep=lambda _: None,
            )
            runtime.consume(stream)
            runtime.flush()
        finally:
            runtime.stop()
        stats = runtime.stats()
        total_arrived = stats["arrived"] + stats["rejected"]
        accounted = (
            stats["accepted"] + stats["duplicates"] + stats["dropped"]
            + stats["quarantined"] + stats["rejected"]
        )
        assert total_arrived == accounted
        assert stats["accepted"] >= 1  # the feed survived the flapping
