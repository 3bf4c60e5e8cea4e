"""``/subscribez`` answers one fixed scenario as the pinned recording says.

The fixture holds the SSE frames (``id``, ``event``, ``data``) and the
long-poll payloads of the scenario below, recorded from the commit
before the decision ``seq`` became the only cursor with the script at
the bottom of this file::

    PYTHONPATH=<that tree>/src python tests/test_push_parity.py

The scenario runs over real sockets against one API, one decision log
and one bus, with the log's clock fixed:

* ``fresh`` — a new stream sees three decisions;
* ``resume`` — a reconnect quoting cursor 3 replays exactly 4..6;
* ``filtered`` / ``filtered_poll`` — a ``source=b`` stream and poll;
* ``pruned`` / ``pruned_poll`` — cursor 2 after the ring of 8 moved
  past it gets a ``reset``;
* ``install`` / ``install_poll`` / ``install_resume`` — a view install
  sends a ``generation`` frame, then a poll and a resume reach across it;
* ``stats`` — the bus's own summary at the end.

:func:`with_deltas` applies the changes that made, one rule each.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)  # the helpers below, when run as a script

from repro.core.pipeline import StoryPivot
from repro.eventdata.handcrafted import demo_config, mh17_corpus
from repro.obs.decisions import DecisionLog
from repro.push import CONTROL_EVENTS, EventBus
from repro.server import StoryPivotAPI, ViewStore

from test_push_server import _get, parse_sse, subscribe_async, wait_for

RECORDED = os.path.join(HERE, "fixtures", "push_parent.json")
#: decisions the ring retains: small enough for the ``pruned`` leg
RING = 8


#: the scenarios whose frames are delivered live, not replayed
LIVE = ("fresh", "filtered", "pruned", "install")


def make_bus():
    log = DecisionLog(capacity=RING, clock=lambda: 1000.0)
    return log, EventBus().attach(log)


def with_deltas(recorded):
    """The recording as the stream answers with ``cursor == seq``.

    1. Control frames carry no ``earliest``: no second ring bounds them.
    2. A ``generation`` frame consumes no cursor: it carries the last
       delivered ``seq``, so every cursor from it on is one lower.
    3. A replay or a poll holds decisions only: a ``generation`` frame
       is sent live and kept nowhere.
    4. A replayed or polled decision carries the current generation.
    5. ``stats()`` has no ``ring`` block.
    """
    expected = copy.deepcopy(recorded)
    [first] = [frame["data"]["cursor"] for frame in recorded["install"]
               if frame["event"] == "generation"]

    def shift(cursor):
        return cursor - 1 if cursor >= first else cursor

    def redo(events, generation, replayed):
        kept = []
        for data in events:
            if replayed and data["event"] == "generation":
                continue
            data.pop("earliest", None)
            data["cursor"] = shift(data["cursor"])
            if replayed and data["event"] not in CONTROL_EVENTS:
                data["generation"] = generation
            kept.append(data)
        return kept

    for name, value in expected.items():
        if name == "stats":
            del value["ring"]
            value["cursor"] = shift(value["cursor"])
        elif name.endswith("_poll"):
            value["events"] = redo(value["events"], value["generation"], True)
            value["next_cursor"] = shift(value["next_cursor"])
        else:
            hello = value[0]["data"]
            expected[name] = [
                {"id": f"{data['generation']}-{data['cursor']}",
                 "event": data["event"], "data": data}
                for data in redo([frame["data"] for frame in value],
                                 hello["generation"], name not in LIVE)
            ]
    return expected


def observe():
    corpus = mh17_corpus()
    result = StoryPivot(demo_config()).run(corpus)
    store = ViewStore(dataset=corpus.name)
    store.install(result, corpus=corpus)
    log, bus = make_bus()
    counter = iter(range(1, 1000))

    def record(source="a", event="created"):
        n = next(counter)
        log.record(event, f"{source}/c{n:06d}", snippet_id=f"{source}:{n}",
                   score=0.5)

    def stream(api, path, during=()):
        """Frames of a live stream that ``during`` publishes into."""
        pending = subscribe_async(api.port, path)
        assert wait_for(lambda: bus.num_subscribers == 1)
        for step in during:
            step()
        pending["thread"].join(timeout=10)
        assert wait_for(lambda: bus.num_subscribers == 0)
        return pending["frames"]

    def poll(api, query):
        status, _, body = _get(api.port, f"/subscribez?mode=poll&{query}")
        assert status == 200
        return json.loads(body)

    out = {}
    with StoryPivotAPI(store, port=0, decisions=log, bus=bus) as api:
        out["fresh"] = stream(api, "/subscribez?limit=3", [
            record, lambda: record(event="extended"), lambda: record("b"),
        ])
        for _ in range(3):
            record()
        _, _, body = _get(api.port, "/subscribez?limit=3",
                          headers={"Last-Event-ID": "0-3"})
        out["resume"] = parse_sse(body)
        out["filtered"] = stream(api, "/subscribez?source=b&limit=1", [
            record, lambda: record("b"),
        ])
        out["filtered_poll"] = poll(api, "cursor=0&source=b")
        for _ in range(8):  # 16 decisions: the ring holds 9..16
            record()
        out["pruned_poll"] = poll(api, "cursor=2")
        out["pruned"] = stream(api, "/subscribez?cursor=2&limit=1", [record])
        out["install"] = stream(api, "/subscribez?limit=1", [
            lambda: bus.note_view(store.install(result, corpus=corpus)),
            record,
        ])
        out["install_poll"] = poll(api, "cursor=16")
        _, _, body = _get(api.port, "/subscribez?limit=2",
                          headers={"Last-Event-ID": "0-16"})
        out["install_resume"] = parse_sse(body)
    stats = bus.stats()
    del stats["subscribers"]
    out["stats"] = stats
    return out


def test_push_stream_matches_the_recording():
    with open(RECORDED, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    assert observe() == with_deltas(recorded)


if __name__ == "__main__":
    with open(RECORDED, "w", encoding="utf-8") as out:
        json.dump(observe(), out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"recorded {RECORDED}")
