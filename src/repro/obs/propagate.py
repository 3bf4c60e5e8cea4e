"""Cross-process trace propagation: the ``traceparent`` header.

PR 4 gave every process an in-process trace tree; since then the fleet
grew followers, subscribers and connectors, and a trace that stops at an
HTTP hop cannot answer the question operators actually ask ("why was
*this follower read* slow?").  This module carries the three facts a
trace needs across a hop — trace id, parent span id, and the sampling
decision — in the W3C Trace Context wire shape::

    traceparent: 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>

Design notes (see DESIGN.md "Fleet observability"):

* **The header decides sampling.**  Head sampling is a pure function of
  the trace id, so every node would reach the same verdict anyway — but
  carrying the decision bit makes the contract explicit and keeps a
  remote child honest even if its local sample rate differs.
* **Foreign traces are ignored, not adopted.**  Our ids are 64-bit;
  they ride in the low half of the 128-bit field with a zero high half.
  A traceparent whose high half is non-zero was minted by some other
  system — joining it would produce a trace no node of ours can
  finalize, so extraction treats it like no header at all and starts a
  fresh root.  Same for malformed values: propagation must never be
  able to break request handling.
* **node_id is ambient, not propagated.**  Each process stamps its own
  identity (``role@host:pid``) on the spans *it* exports; the stitched
  tree gets per-node attribution by union-ing exports, not by shipping
  identities around.
"""

from __future__ import annotations

import os
import re
import socket
from typing import Dict, Mapping, Optional

from repro.obs.trace import Span, TraceContext, current_span

#: the one header name, lowercase (http.client titlecases on the wire;
#: BaseHTTPRequestHandler's headers are case-insensitive on read)
TRACEPARENT_HEADER = "traceparent"

_VERSION = "00"
_FLAG_SAMPLED = 0x01

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)

#: our 64-bit ids occupy the low half of the 128-bit wire field
_HIGH_ZERO = "0" * 16


def format_traceparent(
    trace_id: str, span_id: str, sampled: bool
) -> str:
    """Wire form of a span's coordinates.

    ``trace_id``/``span_id`` are this runtime's 16-hex ids; the trace id
    is zero-extended to the 128-bit wire width.
    """
    flags = _FLAG_SAMPLED if sampled else 0x00
    return f"{_VERSION}-{_HIGH_ZERO}{trace_id}-{span_id}-{flags:02x}"


def span_traceparent(span) -> Optional[str]:
    """The traceparent value for ``span``, or None for a no-op span.

    Unsampled spans mint their (lazy) span id here: an unsampled root
    still propagates, so the remote side keeps the same trace id and the
    same keep/drop verdict — the round trip is lossless either way.
    """
    if not isinstance(span, Span):
        return None
    if span.span_id is None:
        from repro.obs.trace import new_id

        span.span_id = new_id()
    return format_traceparent(span.trace_id, span.span_id, span.sampled)


# sp-taint: sanitizer -- malformed or foreign headers become None
def parse_traceparent(value: Optional[str]) -> Optional[TraceContext]:
    """A :class:`TraceContext` from a header value — or None.

    None means "pretend there was no header": malformed values, versions
    we do not speak, all-zero ids, and foreign 128-bit trace ids all
    land here, so a hostile or merely different upstream can never
    corrupt local tracing.
    """
    if not value or not isinstance(value, str):
        return None
    match = _TRACEPARENT_RE.match(value.strip().lower())
    if match is None:
        return None
    version, trace_wire, span_id, flags = match.groups()
    if version != _VERSION:
        return None
    if not trace_wire.startswith(_HIGH_ZERO):
        return None  # foreign 128-bit id: not minted by this fleet
    trace_id = trace_wire[16:]
    if trace_id == "0" * 16 or span_id == "0" * 16:
        return None
    try:
        sampled = bool(int(flags, 16) & _FLAG_SAMPLED)
    except ValueError:  # pragma: no cover - regex already guarantees hex
        return None
    return TraceContext(trace_id, span_id, sampled)


def inject_headers(
    headers: Optional[Dict[str, str]] = None, span=None
) -> Dict[str, str]:
    """Add ``traceparent`` for ``span`` (default: the ambient span).

    Returns ``headers`` (creating a dict when None) so call sites can
    write ``urlopen(Request(url, headers=inject_headers()))``.  Without
    an ambient real span this is a no-op — background loops that are not
    tracing send clean requests.
    """
    if headers is None:
        headers = {}
    value = span_traceparent(span if span is not None else current_span())
    if value is not None:
        headers[TRACEPARENT_HEADER] = value
    return headers


def extract_context(headers: Mapping[str, str]) -> Optional[TraceContext]:
    """The remote parent context of an incoming request, if any.

    ``headers`` may be any case-insensitive-ish mapping; both the
    lowercase wire name and ``Traceparent`` are tried so plain dicts
    from tests work too.
    """
    value = headers.get(TRACEPARENT_HEADER)
    if value is None:
        getter = getattr(headers, "get", None)
        if getter is not None:
            value = getter("Traceparent")
    return parse_traceparent(value)


def make_node_id(role: str = "node", port: Optional[int] = None) -> str:
    """A human-scannable per-process node identity.

    ``role@host:pid`` (plus the serving port when known) — unique per
    process lifetime, stable across spans, and meaningful in a
    stitched trace tree without a lookup.  Restarts mint a new identity
    on purpose: a restarted follower is a *different* participant whose
    spans must not be conflated with its previous life's.
    """
    host = socket.gethostname().split(".")[0] or "localhost"
    suffix = f":{port}" if port else f":{os.getpid()}"
    return f"{role}@{host}{suffix}"
