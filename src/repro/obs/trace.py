"""Spans, trace contexts, and the head-sampling tracer.

A *trace* follows one unit of work — a snippet from feed pull to shard
integration, one HTTP request, one view refresh — as a tree of *spans*,
each carrying wall and (same-thread) CPU timings, attributes, and point
events.  Everything is dependency-free stdlib, like the rest of the
runtime.

Design decisions, in the order they matter:

* **Ambient propagation.**  The current span lives in a ``contextvars``
  variable, exactly like :func:`repro.resilience.deadline.deadline_scope`
  does for deadlines — the two compose because each uses its own var.
  Code deep in the pipeline calls :func:`add_event` or
  ``tracer.span(...)`` without any plumbed-through argument.
* **Explicit hand-off across threads.**  Context variables do not cross
  the bounded-queue boundary, so producers wrap queue items in an
  :class:`Envelope` carrying the root span; the consumer re-binds it
  with :meth:`Tracer.attach`.  Work that continues many traces at once
  — a view refresh folding in recent ingests, a replication batch —
  starts its own root and records the trace ids it continues in a
  ``links`` attribute.
* **Head sampling, error override.**  The keep/drop decision is made
  once, at the root, from a hash of the trace id — deterministic, so a
  trace is never half-sampled.  Spans of *unsampled* traces still exist
  (they are cheap: a slotted object and two clock reads) so that a span
  that records an error can always be exported: errors are the traces
  you most want, and they are promoted regardless of the sampling
  decision.
* **Null object, not ``if tracing:``.**  Call sites are unconditional;
  a disabled tracer hands out a shared no-op span whose context-manager
  protocol does nothing.  The ingest path too: an untraced snippet rides
  an :class:`Envelope` carrying the no-op span, through the same code.
"""

from __future__ import annotations

import contextvars
import random
import threading
import time
import zlib
from typing import Dict, List, Optional, Tuple

_SPAN_LIMIT_EVENTS = 64
_SPAN_LIMIT_ATTRS = 32

_CURRENT: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "storypivot_span", default=None
)

_id_local = threading.local()


class TraceContext:
    """The frozen, picklable coordinates of a span.

    This is what crosses boundaries a live :class:`Span` cannot — a
    ``traceparent`` header parses into one; tests and external callers
    can assert on it without holding the mutable span.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool) -> None:
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "span_id", span_id)
        object.__setattr__(self, "sampled", sampled)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TraceContext is immutable")

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, sampled={self.sampled})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.sampled))


def new_id() -> str:
    """A 16-hex-digit random id (per-thread RNG: no lock, no syscall)."""
    rng = getattr(_id_local, "rng", None)
    if rng is None:
        rng = _id_local.rng = random.Random()
    return f"{rng.getrandbits(64):016x}"


def head_sampled(trace_id: str, rate: float) -> bool:
    """Deterministic keep/drop for a trace id at ``rate``.

    Exact at the endpoints (0.0 never samples, 1.0 always does) and a
    pure function of the id in between, so every participant in a trace
    reaches the same verdict without coordination.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return (zlib.crc32(trace_id.encode("ascii")) & 0xFFFFFFFF) < rate * 2**32


def current_span() -> Optional["Span"]:
    """The ambient span of the calling context, if any."""
    span = _CURRENT.get()
    return span if isinstance(span, Span) else None


def current_trace_id() -> Optional[str]:
    span = _CURRENT.get()
    return span.trace_id if span is not None else None


def add_event(name: str, **attrs) -> None:
    """Annotate the ambient span with a point event; no-op outside one.

    This is the hook resilience machinery uses (breaker transitions,
    retry attempts, DLQ quarantines, torn-WAL skips): the modules stay
    ignorant of tracing and simply describe what happened.
    """
    span = _CURRENT.get()
    if span is not None:
        span.add_event(name, **attrs)


class Span:
    """One timed operation inside a trace.

    Usable as a context manager (binds itself as the ambient span) or
    via explicit :meth:`end` for spans that finish on another thread.
    CPU time is recorded only when a span starts and ends on the same
    thread — cross-thread CPU attribution would be a lie.
    """

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent_id", "name", "sampled",
        "started_at", "_started", "_started_cpu", "_thread", "duration",
        "cpu_time", "attrs", "events", "error", "ended", "_token", "remote",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        parent_id: Optional[str],
        name: str,
        sampled: bool,
        start: Optional[float] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.sampled = sampled
        self._started = time.perf_counter() if start is None else start
        self.duration: Optional[float] = None
        self.cpu_time: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.events: List[Tuple[float, str, dict]] = []
        self.error: Optional[str] = None
        self.ended = False
        self._token = None
        # True for spans whose parent lives in another process (see
        # Tracer.start_remote): the local span store treats them as
        # finalization roots, since the real root never arrives here
        self.remote = False
        if sampled:
            self.span_id: Optional[str] = new_id()
            self.started_at = time.time()
            self._started_cpu: Optional[float] = time.thread_time()
            self._thread: Optional[int] = threading.get_ident()
        else:
            # Unsampled spans exist to time their stage; ids, wall-clock
            # stamps and CPU clocks are export concerns, minted lazily if
            # an error promotes the span past the sampling decision.
            self.span_id = None
            self.started_at = 0.0
            self._started_cpu = None
            self._thread = None

    # -- annotation --------------------------------------------------------

    def set(self, **attrs) -> "Span":
        if len(self.attrs) < _SPAN_LIMIT_ATTRS:
            self.attrs.update(attrs)
        return self

    def add_event(self, name: str, **attrs) -> None:
        if len(self.events) < _SPAN_LIMIT_EVENTS:
            self.events.append((time.time(), name, attrs))

    def record_error(self, exc: BaseException) -> None:
        self.error = f"{type(exc).__name__}: {exc}"
        if not self.started_at:  # promoted past sampling: backfill stamp
            self.started_at = time.time()

    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id, self.sampled)

    # -- lifecycle ---------------------------------------------------------

    def end(self) -> None:
        """Finish the span; idempotent (cross-thread roots end exactly once
        wherever processing completes, but belt-and-braces callers exist)."""
        if self.ended:
            return
        self.ended = True
        self.duration = time.perf_counter() - self._started
        if self._thread is not None and threading.get_ident() == self._thread:
            self.cpu_time = time.thread_time() - self._started_cpu
        self.tracer._on_end(self)

    def discard(self) -> None:
        """Abandon an unstarted unit of work (e.g. feed exhaustion)."""
        self.ended = True

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # StopIteration/GeneratorExit are control flow, not failures
        if (
            exc is not None
            and self.error is None
            and not isinstance(exc, (StopIteration, GeneratorExit))
        ):
            self.record_error(exc)
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.end()

    # -- export ------------------------------------------------------------

    def to_record(self) -> dict:
        if self.span_id is None:
            self.span_id = new_id()
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_at": round(self.started_at, 6),
            "duration": round(self.duration, 9) if self.duration is not None else None,
            "cpu_time": round(self.cpu_time, 9) if self.cpu_time is not None else None,
            "sampled": self.sampled,
        }
        node_id = getattr(self.tracer, "node_id", None)
        if node_id:
            record["node"] = node_id
        if self.remote:
            record["remote"] = True
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.events:
            record["events"] = [
                {"ts": round(ts, 6), "name": name, **attrs}
                for ts, name, attrs in self.events
            ]
        if self.error:
            record["error"] = self.error
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"sampled={self.sampled}, ended={self.ended})"
        )


class _NoopSpan:
    """Shared do-nothing span handed out by the null tracer."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    sampled = False
    error = None
    duration = None
    ended = True

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def add_event(self, name: str, **attrs) -> None:
        pass

    def record_error(self, exc: BaseException) -> None:
        pass

    def context(self) -> TraceContext:
        return TraceContext("", "", False)

    def end(self) -> None:
        pass

    def discard(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _Attached:
    """Context manager binding an existing span as the ambient one."""

    __slots__ = ("_span", "_token")

    def __init__(self, span) -> None:
        self._span = span
        self._token = None

    def __enter__(self):
        if isinstance(self._span, Span):
            self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if (
            exc is not None
            and isinstance(self._span, Span)
            and self._span.error is None
        ):
            self._span.record_error(exc)
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None


class Tracer:
    """Span factory with head-based probabilistic sampling.

    ``sample_rate`` is the fraction of traces kept end to end; error
    spans are exported regardless (see module docstring).  Ended spans
    flow to the :class:`~repro.obs.store.SpanStore` (sampled or error
    only) and, when a metrics registry is bound, feed per-stage latency
    histograms.  Root spans are always real — every trace has an id, an
    outcome, and an entry in the root-stage histogram — but child spans
    below an unsampled root are no-ops, so the interior stage
    histograms describe the sampled subset.  At 1% sampling that subset
    is still an unbiased latency sample; what it buys is an off-sample
    hot path that costs one span per trace instead of one per stage.
    """

    enabled = True

    def __init__(
        self,
        sample_rate: float = 1.0,
        store=None,
        metrics=None,
        slow_spans: int = 16,
        node_id: Optional[str] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        self.store = store
        self.metrics = metrics
        #: per-process identity stamped on every exported span so a
        #: stitched cross-node tree can attribute each stage to the
        #: process that ran it (see repro.obs.propagate.make_node_id)
        self.node_id = node_id
        from repro.obs.profile import SlowSpanBoard  # local: avoid cycle

        self.slow = SlowSpanBoard(slow_spans)
        # per-stage histogram cache: _on_end runs for every span, and the
        # registry's get-or-create (lock + label formatting) is too slow
        # for that path.  A benign race just resolves to the same child.
        self._stage_hist: Dict[str, object] = {}
        self._stage_cpu_hist: Dict[str, object] = {}

    # -- span creation -----------------------------------------------------

    def start_trace(self, name: str, **attrs) -> Span:
        """A new root span (and trace); the sampling decision is made here."""
        trace_id = new_id()
        return Span(
            self, trace_id, None, name,
            sampled=head_sampled(trace_id, self.sample_rate),
            attrs=attrs or None,
        )

    def start_remote(self, name: str, context, **attrs) -> Span:
        """A span continuing a trace that arrived from another process.

        ``context`` is the :class:`TraceContext` extracted from a
        ``traceparent`` header (or a replication payload): the new span
        shares the remote trace id, parents under the remote span id,
        and — crucially — inherits the remote *sampling decision*, so a
        trace is kept or dropped consistently across every node it
        touches regardless of local sample rates.
        """
        span = Span(
            self, context.trace_id, context.span_id, name,
            sampled=bool(context.sampled), attrs=attrs or None,
        )
        span.remote = True
        return span

    def span(self, name: str, start: Optional[float] = None, **attrs):
        """A child of the ambient span — or a fresh root when there is none.

        ``start`` backdates the span to an earlier ``perf_counter`` value
        (queue-wait spans start when the item was *enqueued*).

        The head decision governs the whole trace: children of an
        unsampled parent are the shared no-op span, so an off-sample
        request costs one root span and nothing per stage.  Errors below
        an unsampled root are still surfaced — the instrumentation sites
        record them on the root (see ``_Attached``), which promotes it.
        """
        parent = _CURRENT.get()
        if parent is None:
            root = self.start_trace(name, **attrs)
            if start is not None:
                root._started = start
            return root
        if not parent.sampled:
            return NOOP_SPAN
        return Span(
            self, parent.trace_id, parent.span_id, name,
            sampled=True, start=start, attrs=attrs or None,
        )

    def attach(self, span) -> _Attached:
        """Bind ``span`` as ambient for a block (cross-thread hand-off)."""
        return _Attached(span)

    def mint_trace_id(self) -> str:
        return new_id()

    # -- sink --------------------------------------------------------------

    def _on_end(self, span: Span) -> None:
        if self.metrics is not None and span.duration is not None:
            hist = self._stage_hist.get(span.name)
            if hist is None:
                hist = self._stage_hist[span.name] = self.metrics.histogram(
                    "trace.stage_seconds", stage=span.name
                )
            hist.observe(span.duration)
            if span.cpu_time is not None:
                cpu_hist = self._stage_cpu_hist.get(span.name)
                if cpu_hist is None:
                    cpu_hist = self._stage_cpu_hist[span.name] = (
                        self.metrics.histogram(
                            "trace.stage_cpu_seconds", stage=span.name
                        )
                    )
                cpu_hist.observe(span.cpu_time)
        if span.duration is not None:
            self.slow.offer(span.name, span.trace_id, span.duration)
        if self.store is not None and (span.sampled or span.error):
            self.store.record(span.to_record())


class NullTracer:
    """Disabled tracing: every span is the shared no-op span."""

    enabled = False
    sample_rate = 0.0
    store = None
    metrics = None
    node_id = None

    def start_trace(self, name: str, **attrs) -> _NoopSpan:
        return NOOP_SPAN

    def start_remote(self, name: str, context, **attrs) -> _NoopSpan:
        return NOOP_SPAN

    def span(self, name: str, start: Optional[float] = None, **attrs) -> _NoopSpan:
        return NOOP_SPAN

    def attach(self, span) -> _Attached:
        return _Attached(span)

    def mint_trace_id(self) -> str:
        return ""


NULL_TRACER = NullTracer()


class Envelope:
    """A queue item plus the trace baggage that must cross the boundary.

    Context variables are thread-local; the bounded queues are exactly
    where work changes threads.  The producer freezes the root span and
    the enqueue instant into the envelope, the shard worker re-attaches
    them — `queue.wait` is then measured producer-clock to
    consumer-clock on the shared monotonic ``perf_counter``.
    """

    __slots__ = ("item", "span", "enqueued_at")

    def __init__(self, item, span: Span) -> None:
        self.item = item
        self.span = span
        self.enqueued_at = time.perf_counter()
