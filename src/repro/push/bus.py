"""The story-evolution event bus: DecisionLog tail → subscriber fan-out.

The :class:`~repro.obs.decisions.DecisionLog` already records exactly
the events a watcher of an evolving story wants — ``created``,
``extended``, ``split``, ``merged``, ``aligned``, ``refined`` — so the
push layer does not invent a second event stream: the bus registers a
listener on the log and republishes every recorded decision, stamped
with a monotonic *cursor* and the current ReadView *generation*, to
every matching subscriber.

Fan-out discipline (the part that keeps one slow client from convoying
everything else):

* every subscriber owns a **bounded**
  :class:`~repro.runtime.queues.BoundedQueue` reusing the runtime's
  backpressure policies — ``drop`` (default: overflow is shed and
  counted), ``sample`` (a representative trickle survives overload), or
  ``block`` with a short mandatory ``put_timeout`` so even the lossless
  policy bounds how long a publish can stall;
* the publisher holds the bus lock only to stamp the cursor, append to
  the replay ring, and snapshot the subscriber list — queue puts happen
  outside it, so subscribers only contend on their own queue;
* delivery failures are *accounting*, never errors: drops show up in
  per-subscriber and aggregate metrics and the client can detect the
  gap from the cursor sequence and resume through the replay ring.

Resume rides :class:`~repro.push.ring.ReplayRing`: a subscriber that
reconnects with its last cursor replays exactly the missed events, or
receives a ``reset`` event (gap pruned, or the gap would overflow its
queue) telling it to re-snapshot via the read API at the carried
generation.  Control events (``hello``/``generation``/``reset``/
``goodbye``) bypass filters — they are the protocol, not the data.

Entity filters match against the *aligned story* entity profiles of the
most recent ReadView (fed by :meth:`EventBus.note_view` from the view
refresher), so "subscribe to everything about MH17" follows stories
across merges and alignment without the ingest path ever paying for
entity extraction twice.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from repro.errors import StoryPivotError
from repro.obs.trace import NULL_TRACER, add_event
from repro.push.ring import DEFAULT_RING_CAPACITY, ReplayRing
from repro.runtime.queues import (
    BACKPRESSURE_POLICIES,
    BoundedQueue,
    Empty,
    QueueClosed,
)

#: events delivered to every subscriber regardless of filters: they are
#: the subscription protocol itself (stream position, lifecycle).
CONTROL_EVENTS = ("hello", "generation", "reset", "goodbye")

#: ceiling on how long one slow blocking subscriber may stall a publish
#: — the convoy bound.  Applies to the ``block`` policy; ``drop`` and
#: ``sample`` never wait at all.
DEFAULT_PUT_TIMEOUT = 0.1

DEFAULT_QUEUE_CAPACITY = 256


class PushError(StoryPivotError):
    """A subscription request the bus refused (HTTP-mappable)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Subscription:
    """One subscriber: filters, a bounded queue, and delivery accounting."""

    def __init__(
        self,
        sub_id: int,
        queue: BoundedQueue,
        story: Optional[str] = None,
        entity: Optional[str] = None,
        source: Optional[str] = None,
        created_at: float = 0.0,
    ) -> None:
        self.id = sub_id
        self.name = f"sub-{sub_id}"
        self.queue = queue
        self.story = story
        self.entity = entity.lower() if entity else None
        self.source = source
        self.created_at = created_at
        self.delivered = 0  # events that made it into the queue
        self.read = 0  # events the client actually consumed
        self.read_cursor = 0  # cursor of the last event the client read
        self.resumed = False

    # -- delivery (bus side) ----------------------------------------------

    def offer(self, event: dict) -> bool:
        """Enqueue one event under the queue's backpressure policy."""
        try:
            enqueued = self.queue.put(event)
        except QueueClosed:
            return False
        if enqueued:
            self.delivered += 1
        return enqueued

    def finish(self, goodbye: dict) -> None:
        """Force the goodbye in (evicting backlog if needed) and close.

        A full queue means a slow client — it may lose queued data
        events (already counted as drops), but it must still learn the
        stream is over rather than time out on a dead connection.
        """
        try:
            if not self.queue.put(goodbye):
                self.queue.purge()
                self.queue.put(goodbye)
        except QueueClosed:
            return
        self.queue.close()

    # -- consumption (transport side) --------------------------------------

    def pop(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Next event for the client; None on timeout.

        Raises :class:`~repro.runtime.queues.QueueClosed` once the
        subscription is finished and fully drained.
        """
        try:
            event = self.queue.get(timeout=timeout)
        except Empty:
            return None
        self.queue.task_done()
        self.read += 1
        cursor = event.get("cursor")
        if isinstance(cursor, int) and cursor > self.read_cursor:
            self.read_cursor = cursor
        return event

    @property
    def dropped(self) -> int:
        return self.queue.dropped

    @property
    def depth(self) -> int:
        return len(self.queue)

    def describe(self) -> Dict[str, object]:
        return {
            "id": self.name,
            "story": self.story,
            "entity": self.entity,
            "source": self.source,
            "policy": self.queue.policy,
            "capacity": self.queue.capacity,
            "depth": self.depth,
            "delivered": self.delivered,
            "read": self.read,
            "dropped": self.dropped,
            "read_cursor": self.read_cursor,
            "resumed": self.resumed,
        }


class EventBus:
    """Fan story-evolution events out to bounded subscriber queues."""

    def __init__(
        self,
        replay_capacity: int = DEFAULT_RING_CAPACITY,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        policy: str = "drop",
        sample_every: int = 10,
        put_timeout: float = DEFAULT_PUT_TIMEOUT,
        max_subscribers: int = 4096,
        metrics=None,
        tracer=None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from "
                f"{BACKPRESSURE_POLICIES}"
            )
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.sample_every = sample_every
        self.put_timeout = put_timeout
        self.max_subscribers = max_subscribers
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)  # long-poll waiters
        self._ring = ReplayRing(replay_capacity)
        self._subs: Dict[int, Subscription] = {}
        self._next_sub_id = 0
        self._cursor = 0
        self._generation = 0
        self._closed = False
        self._decisions = None
        #: story id -> frozenset of lowercased entity names, rebuilt from
        #: each installed ReadView (aligned profiles cover every member)
        self._entity_index: Dict[str, frozenset] = {}
        #: per-source story id -> aligned story id, same provenance
        self._aligned_of: Dict[str, str] = {}
        self.published = 0
        if metrics is not None:
            metrics.counter("push.events")
            metrics.counter("push.delivered")
            metrics.counter("push.dropped")
            metrics.counter("push.subscribed")
            metrics.counter("push.unsubscribed")
            metrics.counter("push.resumes")
            metrics.counter("push.resets")
            metrics.counter("push.rejected")
            metrics.counter("push.publish_errors")
            metrics.gauge("push.subscribers")
            metrics.gauge("push.ring.size")
            metrics.histogram("push.fanout_seconds")

    # -- DecisionLog tail ---------------------------------------------------

    def attach(self, decisions) -> "EventBus":
        """Tail ``decisions``: every recorded entry is republished."""
        decisions.add_listener(self.on_decision)
        self._decisions = decisions
        return self

    def detach(self) -> None:
        if self._decisions is not None:
            self._decisions.remove_listener(self.on_decision)
            self._decisions = None

    # sp-contract: never-raises
    def on_decision(self, entry: dict) -> None:
        """DecisionLog listener — must never raise into the ingest path."""
        try:
            self._publish(dict(entry))
        except Exception as exc:
            # fan-out failure is an observability loss, not an ingest
            # failure: account it and keep the recorder alive
            if self.metrics is not None:
                self.metrics.counter("push.publish_errors").inc()
            add_event("push.publish_error", error=str(exc))

    # -- view refresh hook --------------------------------------------------

    def note_view(self, view) -> None:
        """Adopt a freshly installed ReadView.

        Rebuilds the entity/alignment indexes the filters match against
        and publishes a ``generation`` event so every subscriber learns
        the new snapshot generation (their re-snapshot coordinate).
        """
        entity_index: Dict[str, frozenset] = {}
        aligned_of: Dict[str, str] = {}
        for aligned in view.alignment.aligned.values():
            entities = frozenset(
                name.lower() for name in aligned.entity_set()
            )
            entity_index[aligned.aligned_id] = entities
            for story_id in aligned.story_ids:
                aligned_of[story_id] = aligned.aligned_id
                entity_index[story_id] = entities
        with self._lock:
            self._entity_index = entity_index
            self._aligned_of = aligned_of
            self._generation = view.generation
        self._publish({
            "event": "generation",
            "generation": view.generation,
            "stories": len(view.stories),
        })

    # -- publishing ---------------------------------------------------------

    def _publish(self, payload: dict) -> Optional[dict]:
        """Stamp, ring, and fan out one event; returns the stamped event.

        Runs in whichever thread recorded the decision, so the ambient
        span (the ingest trace that caused the event) becomes the parent
        of the ``push.publish`` span — publish latency is attributed to
        the trace that paid it.
        """
        kind = payload.get("event", "?")
        with self.tracer.span("push.publish", kind=kind) as span:
            started = time.perf_counter()
            with self._lock:
                if self._closed:
                    return None
                self._cursor += 1
                event = dict(payload)
                event["cursor"] = self._cursor
                event.setdefault("generation", self._generation)
                self._ring.append(event)
                subs = list(self._subs.values())
                entity_index = self._entity_index
                aligned_of = self._aligned_of
                self.published += 1
                self._cond.notify_all()
            delivered = dropped = 0
            for sub in subs:
                if not _matches(
                    sub.story, sub.entity, sub.source, event,
                    entity_index, aligned_of,
                ):
                    continue
                if sub.offer(event):
                    delivered += 1
                else:
                    dropped += 1
            span.set(
                cursor=event["cursor"], subscribers=len(subs),
                delivered=delivered, dropped=dropped,
            )
            if self.metrics is not None:
                self.metrics.counter("push.events").inc()
                if delivered:
                    self.metrics.counter("push.delivered").inc(delivered)
                if dropped:
                    self.metrics.counter("push.dropped").inc(dropped)
                self.metrics.histogram("push.fanout_seconds").observe(
                    time.perf_counter() - started
                )
        return event

    # -- subscriptions ------------------------------------------------------

    def subscribe(
        self,
        story: Optional[str] = None,
        entity: Optional[str] = None,
        source: Optional[str] = None,
        queue_capacity: Optional[int] = None,
        policy: Optional[str] = None,
        last_cursor: Optional[int] = None,
    ) -> Subscription:
        """Admit one subscriber; preloads hello + any resume replay.

        ``last_cursor`` is the resume protocol: events after it still in
        the replay ring are preloaded into the queue (exactly the gap),
        a pruned or bogus cursor preloads a ``reset`` event instead.
        Raises :class:`PushError` when the bus is draining or full.
        """
        policy = policy if policy is not None else self.policy
        if policy not in BACKPRESSURE_POLICIES:
            raise PushError(
                400,
                f"unknown policy {policy!r}; choose from "
                f"{BACKPRESSURE_POLICIES}",
            )
        capacity = (
            queue_capacity if queue_capacity is not None
            else self.queue_capacity
        )
        if capacity <= 0:
            raise PushError(400, "queue capacity must be positive")
        queue = BoundedQueue(
            capacity=capacity,
            policy=policy,
            sample_every=self.sample_every,
            put_timeout=self.put_timeout,
        )
        with self._lock:
            if self._closed:
                self._count("push.rejected")
                raise PushError(503, "server is shutting down")
            if len(self._subs) >= self.max_subscribers:
                self._count("push.rejected")
                raise PushError(
                    503,
                    f"subscriber limit reached ({self.max_subscribers})",
                )
            self._next_sub_id += 1
            sub = Subscription(
                self._next_sub_id, queue,
                story=story, entity=entity, source=source,
                created_at=self._clock(),
            )
            preload: List[dict] = [self._control_locked("hello", sub)]
            if last_cursor is not None:
                sub.resumed = True
                replayed, reset = self._ring.replay(last_cursor)
                if not reset and last_cursor > self._cursor:
                    reset = True  # a cursor from another bus lifetime
                matched = [
                    e for e in replayed
                    if _matches(
                        sub.story, sub.entity, sub.source, e,
                        self._entity_index, self._aligned_of,
                    )
                ]
                # a gap wider than the queue cannot be replayed losslessly
                # — same contract as pruning: tell the client to re-snapshot
                if reset or len(matched) > capacity - len(preload):
                    preload.append(self._control_locked("reset", sub))
                    self._count("push.resets")
                else:
                    preload.extend(matched)
                    self._count("push.resumes")
            # preload under the bus lock: publishers snapshot the registry
            # under this lock too, so replay and live delivery can neither
            # overlap nor leave a gap
            for event in preload:
                sub.offer(event)
            self._subs[sub.id] = sub
            count = len(self._subs)
        self._count("push.subscribed")
        self._gauge("push.subscribers", count)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Drop one subscriber (client went away); closes its queue."""
        with self._lock:
            existed = self._subs.pop(sub.id, None) is not None
            count = len(self._subs)
        if not existed:
            return
        sub.queue.close()
        self._count("push.unsubscribed")
        self._gauge("push.subscribers", count)
        if self.metrics is not None:
            self.metrics.remove("push.queue_depth", sub=sub.id)
            self.metrics.remove("push.lag_events", sub=sub.id)
            self.metrics.remove("push.dropped_events", sub=sub.id)

    # -- long-poll ----------------------------------------------------------

    def poll(
        self,
        cursor: int,
        story: Optional[str] = None,
        entity: Optional[str] = None,
        source: Optional[str] = None,
        timeout: float = 0.0,
        limit: int = 100,
    ) -> Dict[str, object]:
        """Stateless long-poll against the replay ring.

        Returns events after ``cursor`` matching the filters, waiting up
        to ``timeout`` seconds for the first one.  ``reset: true`` means
        the cursor is unresumable (pruned or from another lifetime) and
        carries the generation to re-snapshot at.  The client's next
        request quotes ``next_cursor``.
        """
        entity = entity.lower() if entity else None
        limit = max(1, min(int(limit), 1000))
        deadline = time.monotonic() + max(0.0, timeout)
        with self._lock:
            while True:
                replayed, reset = self._ring.replay(cursor)
                if not reset and cursor > self._cursor:
                    reset = True
                if reset:
                    self._count("push.resets")
                    return {
                        "reset": True,
                        "events": [],
                        "next_cursor": self._cursor,
                        "generation": self._generation,
                    }
                matched = [
                    e for e in replayed
                    if _matches(
                        story, entity, source, e,
                        self._entity_index, self._aligned_of,
                    )
                ][:limit]
                if matched:
                    return {
                        "reset": False,
                        "events": matched,
                        "next_cursor": matched[-1]["cursor"],
                        "generation": self._generation,
                    }
                remaining = deadline - time.monotonic()
                if self._closed or remaining <= 0:
                    return {
                        "reset": False,
                        "events": [],
                        "next_cursor": max(cursor, 0),
                        "generation": self._generation,
                    }
                self._cond.wait(min(remaining, 0.25))

    # -- shutdown -----------------------------------------------------------

    def drain(self) -> None:
        """Goodbye every subscriber and refuse new work (idempotent).

        Part of the server's graceful-drain sequence: streams end with
        an explicit ``goodbye`` event (clients distinguish shutdown from
        a dead connection) and their queues close, which wakes every
        transport thread blocked in :meth:`Subscription.pop`.
        """
        self.detach()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subs = list(self._subs.values())
            self._subs.clear()
            goodbye = {
                "event": "goodbye",
                "cursor": self._cursor,
                "generation": self._generation,
                "reason": "drain",
            }
            self._cond.notify_all()
        for sub in subs:
            sub.finish(dict(goodbye))
        self._count("push.unsubscribed", len(subs))
        self._gauge("push.subscribers", 0)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- introspection ------------------------------------------------------

    @property
    def latest_cursor(self) -> int:
        return self._cursor

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def num_subscribers(self) -> int:
        with self._lock:
            return len(self._subs)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            subs = list(self._subs.values())
            payload = {
                "published": self.published,
                "cursor": self._cursor,
                "generation": self._generation,
                "ring": {
                    "size": len(self._ring),
                    "capacity": self._ring.capacity,
                    "earliest": self._ring.earliest_cursor,
                    "latest": self._ring.latest_cursor,
                    "pruned": self._ring.pruned,
                },
                "subscribers": [sub.describe() for sub in subs],
            }
        return payload

    def refresh_metrics(self) -> None:
        """Export per-subscriber lag/depth/drops as labeled gauges.

        Called from the ``/metricz`` render path rather than on every
        publish: fan-out stays O(matching queue puts) and the gauges are
        exactly as fresh as the scrape that reads them.
        """
        if self.metrics is None:
            return
        with self._lock:
            subs = list(self._subs.values())
            cursor = self._cursor
            ring_size = len(self._ring)
        self.metrics.gauge("push.ring.size").set(ring_size)
        self.metrics.gauge("push.subscribers").set(len(subs))
        for sub in subs:
            self.metrics.gauge("push.queue_depth", sub=sub.id).set(sub.depth)
            self.metrics.gauge("push.lag_events", sub=sub.id).set(
                max(0, cursor - sub.read_cursor)
            )
            self.metrics.gauge("push.dropped_events", sub=sub.id).set(
                sub.dropped
            )

    # -- internals ----------------------------------------------------------

    def _control_locked(self, kind: str, sub: Subscription) -> dict:
        return {
            "event": kind,
            "cursor": self._cursor,
            "generation": self._generation,
            "subscription": sub.name,
            "earliest": self._ring.earliest_cursor,
        }

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)


def _matches(
    story: Optional[str],
    entity: Optional[str],
    source: Optional[str],
    event: dict,
    entity_index: Dict[str, frozenset],
    aligned_of: Dict[str, str],
) -> bool:
    """Does an event pass a (story, entity, source) filter set?

    Filters AND together; a subscription with none matches everything.
    The story filter accepts per-source ids, the aligned id the story
    maps to in the latest view, and the absorbed side of a merge (so a
    watcher of either story sees the merge that ends one of them).
    """
    if event.get("event") in CONTROL_EVENTS:
        return True
    story_id = event.get("story_id")
    if story is not None:
        details = event.get("details") or {}
        if (
            story_id != story
            and aligned_of.get(story_id) != story
            and details.get("absorbed") != story
            and details.get("aligned_id") != story
            and event.get("aligned_id") != story
        ):
            return False
    if source is not None and event.get("source_id") != source:
        return False
    if entity is not None:
        entities = entity_index.get(story_id)
        if not entities or entity not in entities:
            return False
    return True
