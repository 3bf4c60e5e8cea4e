"""`repro.obs`: dependency-free tracing, decision logging, profiling.

The observability layer for the production runtime: distributed-style
tracing across threads and queues (:mod:`repro.obs.trace`), a bounded
span store behind ``/tracez`` (:mod:`repro.obs.store`), the story
lifecycle decision log behind ``/storyz`` and ``storypivot explain``
(:mod:`repro.obs.decisions`), and low-overhead profiling hooks
(:mod:`repro.obs.profile`).
"""

from repro.obs.decisions import DecisionLog, format_event
from repro.obs.profile import SlowSpanBoard
from repro.obs.propagate import (
    extract_context,
    format_traceparent,
    inject_headers,
    make_node_id,
    parse_traceparent,
    span_traceparent,
)
from repro.obs.slo import (
    Objective,
    RatioObjective,
    SLOEngine,
    ThresholdObjective,
    default_objectives,
    render_slo_table,
)
from repro.obs.store import SpanStore
from repro.obs.trace import (
    NOOP_SPAN,
    NULL_TRACER,
    Envelope,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    add_event,
    current_span,
    current_trace_id,
    head_sampled,
)

__all__ = [
    "DecisionLog",
    "format_event",
    "SlowSpanBoard",
    "extract_context",
    "format_traceparent",
    "inject_headers",
    "make_node_id",
    "parse_traceparent",
    "span_traceparent",
    "Objective",
    "RatioObjective",
    "SLOEngine",
    "ThresholdObjective",
    "default_objectives",
    "render_slo_table",
    "SpanStore",
    "NOOP_SPAN",
    "NULL_TRACER",
    "Envelope",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "add_event",
    "current_span",
    "current_trace_id",
    "head_sampled",
]
