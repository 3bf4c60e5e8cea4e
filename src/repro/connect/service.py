"""Connector service layer: resilient pull loop into the sharded runtime.

:class:`ConnectorStream` is the assembly the CLIs mount behind
``--source``: connector pulls ride the resilience stack (retry policy +
circuit breaker + optional deadline), every raw item runs the
normalization gauntlet, admitted snippets flow out as an ordinary
snippet iterable (so ``runtime.consume(stream)`` just works), and
rejected items are quarantined through :meth:`ShardedRuntime.reject`
with per-connector/per-reason counters on ``/metricz`` and
``connect.pull`` / ``connect.normalize`` spans on the trace.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, Optional

from repro.connect.base import RawItem, SourceConnector
from repro.connect.normalize import (
    NormalizedItem,
    Normalizer,
    NormalizerConfig,
    Rejection,
)
from repro.eventdata.corpus import Corpus
from repro.eventdata.models import Snippet, Source
from repro.obs import NULL_TRACER

#: sentinel for exhausted pulls (``next(it, default)`` keeps StopIteration
#: out of span scopes, where it would be misrecorded as a pull error)
_DONE = object()


def build_resilient_feed(
    feed,
    injector=None,
    name: str = "feed",
    retry=None,
    breaker=None,
    sleep=None,
    site: Optional[str] = None,
):
    """The one way a feed gets chaos-wrapped and made resilient.

    Corpus replays and :class:`ConnectorStream` pulls both mount here, so
    fault injection and retry/breaker defaults stay in a single place.
    ``name`` keys the retry jitter and names the breaker; faults are
    injected at ``site`` (default: ``name``).
    """
    from repro.eventdata.eventregistry import ResilientFeed

    if injector is not None:
        feed = injector.wrap_feed(feed, site=site or name)
    return ResilientFeed(feed, retry=retry, breaker=breaker, sleep=sleep,
                         name=name)


def quarantine_snippet(
    raw: RawItem,
    reason: str,
    default_source: str = "unknown",
    clock=time.time,
) -> Snippet:
    """A minimal, always-valid snippet standing in for a rejected input.

    The DLQ records full snippets; a rejected raw item may not have
    yielded one, so we synthesize the smallest honest representative:
    enough of the raw payload to audit, stamped with quarantine time.
    """
    def text_of(key: str) -> str:
        value = raw.get(key)
        if isinstance(value, bytes):
            return value.decode("utf-8", errors="replace")
        return str(value) if value is not None else ""

    description = (
        text_of("description") or text_of("title") or text_of("body")
    )[:200]
    source = text_of("source").strip()[:64] or default_source or "unknown"
    return Snippet(
        snippet_id=f"reject:{raw.connector}:{raw.seq}",
        source_id=source,
        timestamp=float(clock()),
        description=description or f"rejected raw item ({reason})",
        event_type="rejected",
    )


class ConnectorStream:
    """Iterate a connector's admitted snippets; account for the rest.

    The stream is an ordinary ``Iterable[Snippet]``: pass it straight to
    :meth:`ShardedRuntime.consume`.  Internally the pull is a
    :func:`build_resilient_feed` (retries on the policy schedule behind a
    circuit breaker, so hard-down upstreams trip open instead of being
    hammered), optionally bounded by a deadline, and each survivor of the
    gauntlet is admitted exactly once.
    """

    def __init__(
        self,
        connector: SourceConnector,
        runtime=None,
        normalizer: Optional[Normalizer] = None,
        config: Optional[NormalizerConfig] = None,
        metrics=None,
        tracer=None,
        retry=None,
        breaker=None,
        sleep=None,
        deadline_seconds: Optional[float] = None,
        clock=time.time,
        injector=None,
    ) -> None:
        self.connector = connector
        self.runtime = runtime
        self.normalizer = normalizer if normalizer is not None else Normalizer(
            config=config, clock=clock,
            default_source=connector.default_source(),
        )
        if metrics is None and runtime is not None:
            metrics = runtime.metrics
        self.metrics = metrics
        if tracer is None and runtime is not None:
            tracer = runtime.tracer
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._retry = retry
        self._breaker = breaker
        self._sleep = sleep
        self.deadline_seconds = deadline_seconds
        self._clock = clock
        self._injector = injector
        self.pulled = 0
        self.admitted = 0
        self.rejected = 0
        self.labels: Dict[str, str] = {}

    # -- iteration ---------------------------------------------------------

    def __iter__(self) -> Iterator[Snippet]:
        from repro.resilience.deadline import Deadline

        feed = build_resilient_feed(
            self.connector.pull(), self._injector, name=self.connector.name,
            retry=self._retry, breaker=self._breaker, sleep=self._sleep,
            site=f"connect.{self.connector.scheme}",
        )
        pulls = feed.pulls(
            Deadline.after(self.deadline_seconds)
            if self.deadline_seconds is not None else None
        )
        scheme = self.connector.scheme or "raw"
        while True:
            with self.tracer.span("connect.pull", connector=scheme):
                raw = next(pulls, _DONE)
            if raw is _DONE:
                break
            self.pulled += 1
            if self.metrics is not None:
                self.metrics.counter("connect.pulled", connector=scheme).inc()
            with self.tracer.span("connect.normalize", connector=scheme) as span:
                verdict = self.normalizer.normalize(raw)
                snippet = self._account(verdict, span)
            if snippet is not None:
                yield snippet

    def _account(self, verdict, span) -> Optional[Snippet]:
        scheme = self.connector.scheme or "raw"
        if isinstance(verdict, Rejection):
            self.rejected += 1
            span.set(outcome="rejected", reason=verdict.reason)
            if self.metrics is not None:
                self.metrics.counter(
                    "connect.rejected", connector=scheme,
                    reason=verdict.reason,
                ).inc()
            if self.runtime is not None:
                self.runtime.reject(
                    quarantine_snippet(
                        verdict.raw, verdict.reason,
                        default_source=self.normalizer.default_source
                        or "unknown",
                        clock=self._clock,
                    ),
                    verdict.reason,
                    verdict.detail,
                )
            return None
        assert isinstance(verdict, NormalizedItem)
        self.admitted += 1
        span.set(outcome="admitted", repairs=len(verdict.repairs))
        if verdict.story_label:
            self.labels[verdict.snippet.snippet_id] = verdict.story_label
        if self.metrics is not None:
            self.metrics.counter("connect.admitted", connector=scheme).inc()
            for reason in verdict.repairs:
                self.metrics.counter(
                    "connect.repaired", connector=scheme, reason=reason
                ).inc()
            if verdict.gap_seconds:
                self.metrics.counter("connect.gaps", connector=scheme).inc()
                self.metrics.histogram(
                    "connect.gap_seconds", connector=scheme
                ).observe(verdict.gap_seconds)
        return verdict.snippet

    # -- reporting ---------------------------------------------------------

    def counts(self) -> Dict[str, object]:
        summary = self.normalizer.counts()
        summary["stream"] = {
            "pulled": self.pulled,
            "admitted": self.admitted,
            "rejected": self.rejected,
        }
        return summary

    def render_report(self) -> str:
        """One human line per category, for the serve CLI's epilogue."""
        counts = self.normalizer.counts()
        repaired = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(counts["repaired"].items())
        ) or "none"
        rejected = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(counts["rejected"].items())
        ) or "none"
        return (
            f"connect[{self.connector.name}]: {self.pulled} pulled, "
            f"{self.admitted} admitted, {self.rejected} rejected; "
            f"repairs: {repaired}; rejections: {rejected}; "
            f"gaps: {self.normalizer.gaps}"
        )


def source_corpus_shell(spec: str, connector=None) -> Corpus:
    """An empty corpus shell naming a live connector as its provenance.

    The API server's view refresher wants a corpus for source metadata;
    a live connector has no corpus, so it gets a shell carrying just the
    connector's default source.
    """
    corpus = Corpus(f"connect:{spec}")
    default = connector.default_source() if connector is not None else None
    if default:
        corpus.add_source(Source(default, default, kind="feed"))
    return corpus
