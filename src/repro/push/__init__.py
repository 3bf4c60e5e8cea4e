"""repro.push — real-time story-evolution subscriptions.

An :class:`EventBus` tails the structured DecisionLog and fans
created/extended/split/merged/aligned/refined events out to subscribers
over Server-Sent Events (long-poll fallback).  A decision's ``seq`` is
its cursor, and resume replays from the log itself: its ring, or for
an older gap its file, so a cursor outlives a restart.  Each
subscriber owns a bounded queue reusing the runtime backpressure
policies, so a slow client sheds its own events instead of convoying
the pipeline.
"""

from repro.push.bus import (
    CONTROL_EVENTS,
    EventBus,
    PushError,
    Subscription,
)
from repro.push.transport import (
    HEARTBEAT_FRAME,
    SSE_HEADERS,
    event_id,
    format_sse,
    parse_last_event_id,
    stream,
)

__all__ = [
    "CONTROL_EVENTS",
    "EventBus",
    "HEARTBEAT_FRAME",
    "PushError",
    "SSE_HEADERS",
    "Subscription",
    "event_id",
    "format_sse",
    "parse_last_event_id",
    "stream",
]
