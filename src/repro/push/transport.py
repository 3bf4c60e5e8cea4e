"""Wire formats for push delivery: SSE framing and resume-id parsing.

Server-Sent Events is the native browser streaming format that fits a
stdlib ``ThreadingHTTPServer``: one long-lived chunked-ish response per
client (we use ``Connection: close`` framing — the stream *is* the rest
of the response), ``id:`` lines giving every event a resume coordinate,
and the browser's ``EventSource`` reconnecting with ``Last-Event-ID``
automatically.  No upgrade handshake, no frame masking, no second
protocol state machine — see DESIGN.md for the SSE-vs-WebSocket
rationale.

The event id is ``<generation>-<cursor>``: the cursor is the
decision's ``seq`` in the decision log (a control frame carries the
last delivered one), so it addresses the log for exact resume, across
a restart too; the generation names the ReadView snapshot to re-fetch
if the server answers with a ``reset`` event instead.
``parse_last_event_id`` accepts either the full form or a bare cursor.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from repro.obs.trace import NULL_TRACER
from repro.runtime.queues import QueueClosed

#: comment frame keeping idle connections alive through proxies and
#: letting the server notice a dead client between events
HEARTBEAT_FRAME = b": heartbeat\n\n"

DEFAULT_HEARTBEAT_SECONDS = 15.0

SSE_TYPE = "text/event-stream; charset=utf-8"

#: sent beside ``SSE_TYPE`` and ``Connection: close``
SSE_HEADERS = {"Cache-Control": "no-cache", "X-Accel-Buffering": "no"}


def event_id(event: dict) -> str:
    """``<generation>-<cursor>`` — the client's resume coordinate."""
    return f"{event.get('generation', 0)}-{event.get('cursor', 0)}"


# sp-taint: sanitizer -- returns a validated non-negative int or None
def parse_last_event_id(value: Optional[str]) -> Optional[int]:
    """Cursor from a ``Last-Event-ID`` header (or ``cursor`` param).

    Accepts ``<generation>-<cursor>`` or a bare cursor; returns None for
    a missing or malformed value (treated as a fresh subscription — the
    safe reading of an id we cannot interpret).
    """
    if not value:
        return None
    tail = value.strip().rsplit("-", 1)[-1]
    try:
        cursor = int(tail)
    except ValueError:
        return None
    return cursor if cursor >= 0 else None


#: SSE framing is line-oriented: a CR/LF smuggled into a field value
#: would terminate the line early and forge extra frames
_FRAME_UNSAFE = re.compile(r"[\r\n\x00]")


def _frame_field(value: object) -> str:
    return _FRAME_UNSAFE.sub("", str(value))


# sp-taint: sanitizer -- data is JSON-encoded, framing fields escaped
def format_sse(event: dict) -> bytes:
    """One SSE frame: id, event name, and the payload as one data line.

    The payload is JSON (newline-free by construction with compact
    separators); the ``id:`` and ``event:`` framing fields are stripped
    of CR/LF so no value that ultimately came off the wire — a resumed
    cursor, a subscription filter echoed in a hello frame — can
    terminate a line early and inject frames into the stream.
    """
    data = json.dumps(
        event, separators=(",", ":"), sort_keys=True, default=str
    )
    return (
        f"id: {_frame_field(event_id(event))}\n"
        f"event: {_frame_field(event.get('event', 'message'))}\n"
        f"data: {data}\n\n"
    ).encode("utf-8")


def stream(
    sub,
    wfile,
    heartbeat: float = DEFAULT_HEARTBEAT_SECONDS,
    tracer=None,
    max_events: Optional[int] = None,
) -> str:
    """Pump a subscription's queue into an SSE response until it ends.

    Returns why the stream ended: ``"goodbye"`` (server drain),
    ``"closed"`` (subscription torn down), or ``"limit"`` (client asked
    for at most ``max_events`` data events — handy for curl and CI).
    Write failures (client went away) propagate as ``OSError`` for the
    caller to unsubscribe on.

    Every write is flushed immediately: the request handler's buffered
    ``wfile`` would otherwise sit on frames until 64 KiB accumulate,
    which is the opposite of a push channel.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    sent = 0
    while True:
        try:
            event = sub.pop(timeout=heartbeat)
        except QueueClosed:
            return "closed"
        if event is None:
            wfile.write(HEARTBEAT_FRAME)
            wfile.flush()
            continue
        kind = event.get("event", "message")
        with tracer.span(
            "push.deliver",
            kind=kind,
            cursor=event.get("cursor", 0),
            subscription=sub.name,
            source_trace=event.get("trace_id", ""),
        ):
            wfile.write(format_sse(event))
            wfile.flush()
        if kind == "goodbye":
            return "goodbye"
        if kind not in ("hello", "reset", "generation"):
            sent += 1
            if max_events is not None and sent >= max_events:
                return "limit"
