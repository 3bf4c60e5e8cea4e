"""The story-evolution event bus: DecisionLog tail → subscriber fan-out.

The :class:`~repro.obs.decisions.DecisionLog` already records exactly
the events a watcher of an evolving story wants — ``created``,
``extended``, ``split``, ``merged``, ``aligned``, ``refined`` — so the
push layer does not invent a second event stream: a decision's ``seq``
is its cursor, and the log is the only replay store.  The bus registers
a listener on the log and takes each call as a wake-up: it reads every
decision numbered after the last one it delivered from the log's ring
and fans them out, stamped with the current ReadView *generation*, to
every matching subscriber.

Fan-out discipline (the part that keeps one slow client from convoying
everything else):

* every subscriber owns a **bounded**
  :class:`~repro.runtime.queues.BoundedQueue` reusing the runtime's
  backpressure policies — ``drop`` (default: overflow is shed and
  counted), ``sample`` (a representative trickle survives overload), or
  ``block`` with a short mandatory ``put_timeout`` so even the lossless
  policy bounds how long a publish can stall;
* one delivery lock serializes fan-out, so every queue receives
  decisions in ascending ``seq`` order whichever recording thread
  wakes the bus; the registry lock is held only to snapshot the
  subscriber list;
* delivery failures are *accounting*, never errors: drops show up in
  per-subscriber and aggregate metrics and the client can detect the
  gap from the cursor sequence and resume.

Resume reads the log: a subscriber that reconnects with its last cursor
replays exactly the missed decisions — from the log's ring, or, for a
gap the ring no longer holds, from ``decisions.jsonl``, so a cursor
stays valid across a restart on the same state directory.  A cursor
ahead of the log, a gap with no file behind it, or a gap wider than the
subscriber's queue gets a ``reset`` event telling it to re-snapshot via
the read API at the carried generation.  Control events
(``hello``/``generation``/``reset``/``goodbye``) bypass filters and
consume no cursor: each carries the last delivered ``seq``.

Entity filters match against the *aligned story* entity profiles of the
most recent ReadView (fed by :meth:`EventBus.note_view` from the view
refresher), so "subscribe to everything about MH17" follows stories
across merges and alignment without the ingest path ever paying for
entity extraction twice.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import StoryPivotError
from repro.obs.trace import NULL_TRACER, add_event
from repro.recordlog import TAIL, RecordLog
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
        #: one fan-out at a time, so queues fill in seq order; taken
        #: before ``_lock``, never inside it
        self._deliver = threading.Lock()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)  # long-poll waiters
        self._subs: Dict[int, Subscription] = {}
        self._next_sub_id = 0
        self._last = 0  # seq of the last decision fanned out
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
            metrics.histogram("push.fanout_seconds")

    # -- DecisionLog tail ---------------------------------------------------

    def attach(self, decisions) -> "EventBus":
        """Tail ``decisions`` from its newest entry on."""
        with self._deliver:
            self._decisions = decisions
            # an infinite bound returns no entries, only the newest seq
            _, newest = decisions.since(float("inf"))
            with self._lock:
                self._last = newest
        decisions.add_listener(self.on_decision)
        return self

    def detach(self) -> None:
        if self._decisions is not None:
            self._decisions.remove_listener(self.on_decision)
            self._decisions = None

    def on_decision(self, entry: dict) -> None:
        """DecisionLog listener — must never raise into the ingest path."""
        try:
            self._publish(entry)
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
        and sends every subscriber a ``generation`` control frame (their
        re-snapshot coordinate), which consumes no cursor.
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
        with self._deliver:
            with self._lock:
                self._entity_index = entity_index
                self._aligned_of = aligned_of
                self._generation = view.generation
                if self._closed:
                    return
                subs = list(self._subs.values())
            self._fan_out({
                "event": "generation",
                "cursor": self._last,
                "generation": view.generation,
                "stories": len(view.stories),
            }, subs)

    # -- publishing ---------------------------------------------------------

    def _publish(self, entry: dict) -> None:
        """Fan out ``entry`` and whatever else is not delivered yet.

        Whichever recording thread gets the delivery lock first delivers
        every decision the log holds past the last one delivered, in
        ``seq`` order; a wake-up for a decision already delivered that
        way does nothing.
        """
        with self._deliver:
            if entry["seq"] > self._last:
                self._pump()

    def _pump(self) -> None:
        """Deliver the log's decisions after ``_last``; holds ``_deliver``."""
        entries, _ = self._since(self._last)
        if not entries:
            return
        with self._lock:
            if self._closed:
                return
            self._last = entries[-1]["seq"]
            subs = list(self._subs.values())
            self._cond.notify_all()
        for entry in entries:
            self._fan_out(self._stamp(entry), subs)

    def _stamp(self, entry: dict) -> dict:
        return dict(entry, cursor=entry["seq"], generation=self._generation)

    def _fan_out(self, event: dict, subs: List[Subscription]) -> None:
        """Offer one event to every matching subscriber; holds ``_deliver``.

        Runs in whichever thread woke the bus, so the ambient span (the
        ingest trace that recorded the decision) becomes the parent of
        the ``push.publish`` span — publish latency is attributed to the
        trace that paid it.
        """
        kind = event.get("event", "?")
        with self.tracer.span("push.publish", kind=kind) as span:
            started = time.perf_counter()
            entity_index = self._entity_index
            aligned_of = self._aligned_of
            self.published += 1
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

    # -- replay -------------------------------------------------------------

    def _older(
        self, after: int, matches: Callable[[dict], bool], most: int
    ) -> Optional[Tuple[List[dict], int]]:
        """The part of the gap after ``after`` that the log's ring lost.

        Returns ``(found, through)``: up to ``most`` decisions ``matches``
        accepts, read from the log's file, and the last ``seq`` read —
        ``([], after)`` when the ring still reaches back to ``after + 1``.
        None means the gap cannot be served: a cursor ahead of the log,
        or a gap with no file (or no line) behind it.  Never called
        under a bus lock: the file may be long.
        """
        held, newest = self._since(after)
        if after > newest:
            return None
        if (held[0]["seq"] if held else newest + 1) == after + 1:
            return [], after
        found, through = [], after
        log = RecordLog(getattr(self._decisions, "path", None))
        for entry in log.read(TAIL, start=log.offset_after(after)):
            seq = entry.get("seq", 0)
            if seq <= after:
                continue
            if seq != through + 1:
                return None
            through = seq
            if matches(entry):
                found.append(entry)
                if len(found) >= most:
                    break
        return (found, through) if through > after else None

    def _newer(
        self,
        part: Optional[Tuple[List[dict], int]],
        upto: Optional[int],
        matches: Callable[[dict], bool],
        most: int,
    ) -> Optional[List[dict]]:
        """``part`` joined to the ring's decisions after it, through
        ``upto`` (the newest when None); None if the two do not meet.
        A part that already holds ``most`` decisions needs no join."""
        if part is None:
            return None
        found, through = part
        if len(found) >= most:
            return found
        held, newest = self._since(through)
        last = newest if upto is None else upto
        held = [e for e in held if e["seq"] <= last]
        if through < last and (not held or held[0]["seq"] != through + 1):
            return None
        return found + [e for e in held if matches(e)]

    def _since(self, seq: int) -> Tuple[List[dict], int]:
        decisions = self._decisions
        return decisions.since(seq) if decisions is not None else ([], 0)

    def _matcher(self, story, entity, source) -> Callable[[dict], bool]:
        return lambda event: _matches(
            story, entity, source, event,
            self._entity_index, self._aligned_of,
        )

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

        ``last_cursor`` is the resume protocol: the decisions after it
        are preloaded into the queue (exactly the gap); a gap that
        cannot be served, or would not fit the queue, preloads a
        ``reset`` event instead.  Raises :class:`PushError` when the bus
        is draining or full.
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
        entity = entity.lower() if entity else None
        matches = self._matcher(story, entity, source)
        room = capacity - 1  # the hello frame takes one slot
        part = (
            self._older(last_cursor, matches, room + 1)
            if last_cursor is not None else None
        )
        with self._deliver:
            # everything recorded so far goes out first, so the replay
            # ends where live delivery to this subscriber starts
            self._pump()
            replay = (
                self._newer(part, self._last, matches, room + 1)
                if last_cursor is not None else None
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
                    if replay is None or len(replay) > room:
                        preload.append(self._control_locked("reset", sub))
                        self._count("push.resets")
                    else:
                        preload.extend(self._stamp(e) for e in replay)
                        self._count("push.resumes")
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
        """Stateless long-poll against the decision log.

        Returns decisions after ``cursor`` matching the filters, waiting
        up to ``timeout`` seconds for the first one.  ``reset: true``
        means the cursor is unresumable (see :meth:`subscribe`) and
        carries the generation to re-snapshot at.  The client's next
        request quotes ``next_cursor``; with no match that is the last
        decision read, so the same decisions are not read again.
        """
        matches = self._matcher(story, entity.lower() if entity else None,
                                source)
        limit = max(1, min(int(limit), 1000))
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            mark = self._last
            events = self._newer(
                self._older(cursor, matches, limit), None, matches, limit
            )
            with self._lock:
                if events is None:
                    self._count("push.resets")
                    return {
                        "reset": True,
                        "events": [],
                        "next_cursor": self._last,
                        "generation": self._generation,
                    }
                if events:
                    events = [self._stamp(e) for e in events[:limit]]
                    return {
                        "reset": False,
                        "events": events,
                        "next_cursor": events[-1]["cursor"],
                        "generation": self._generation,
                    }
                # the read covered every decision through the mark and
                # none matched: read on from there, not from the file again
                cursor = max(cursor, mark)
                remaining = deadline - time.monotonic()
                if self._closed or remaining <= 0:
                    return {
                        "reset": False,
                        "events": [],
                        "next_cursor": cursor,
                        "generation": self._generation,
                    }
                if self._last == mark:  # nothing delivered since the read
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
        with self._deliver, self._lock:
            if self._closed:
                return
            self._closed = True
            subs = list(self._subs.values())
            self._subs.clear()
            goodbye = {
                "event": "goodbye",
                "cursor": self._last,
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
        return self._last

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
                "cursor": self._last,
                "generation": self._generation,
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
            cursor = self._last
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
            "cursor": self._last,
            "generation": self._generation,
            "subscription": sub.name,
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
