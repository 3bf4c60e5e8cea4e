"""Push fan-out benchmark: latency vs subscriber count, slow-client isolation.

Two measurements, two gates:

**Gated — bounded fan-out at scale.**  An :class:`~repro.push.EventBus`
tails a :class:`~repro.obs.decisions.DecisionLog` while N in-process
subscribers (10 → 1000+) hold lossless queues; every recorded decision
is timed end to end (log append + the bus reading it back from the
log's ring + N queue puts).  The gate: p95 publish latency at the largest subscriber count
must stay under a fixed bound — fan-out is O(subscribers) by design,
and this keeps the constant honest.

**Gated — slow-client isolation, deterministically.**  The same healthy
fleet runs twice: once alone, once sharing the bus with one stalled
subscriber (a tiny ``drop``-policy queue that is never consumed).  The
stalled client's losses are exact arithmetic, not timing: with capacity
C and E published events, exactly ``E - (C - 1)`` drop (the hello
control event holds one slot) and every healthy subscriber still
receives all E.  The latency gate then checks the stalled run's p95
against the baseline's with generous noise headroom — the cost of a
saturated drop-policy queue is one refused put, not a convoy.

    python benchmarks/bench_push.py                 # full run
    python benchmarks/bench_push.py --smoke         # CI-sized
    python benchmarks/bench_push.py -o BENCH_push.json

Results land in ``BENCH_push.json`` next to the repo root by default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.obs.decisions import DecisionLog  # noqa: E402
from repro.push import EventBus  # noqa: E402
from repro.runtime.metrics import MetricsRegistry  # noqa: E402

#: p95 of one publish (append + read-back + fan-out) at the largest fleet.
#: ~1000 queue puts cost well under a millisecond each on any host this
#: runs on; 50 ms is the "bounded, with room for a noisy CI box" bar.
FANOUT_P95_GATE_SECONDS = 0.050

#: the stalled run's p95 may exceed the baseline's by at most 3x or
#: 2 ms, whichever is larger — headroom for scheduler noise, far below
#: what an actual convoy (put_timeout stalls) would show
ISOLATION_P95_FACTOR = 3.0
ISOLATION_P95_SLACK_SECONDS = 0.002


def percentile(ordered, q):
    if not ordered:
        return None
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def publish_round(num_subscribers, num_events, stalled_capacity=None):
    """One fleet: publish ``num_events``, return latency + accounting.

    ``stalled_capacity`` adds one never-consumed drop-policy subscriber
    of that capacity alongside the healthy fleet.
    """
    metrics = MetricsRegistry()
    log = DecisionLog()
    bus = EventBus(
        queue_capacity=num_events + 4,
        max_subscribers=num_subscribers + 1,
        metrics=metrics,
    ).attach(log)
    subs = [bus.subscribe() for _ in range(num_subscribers)]
    stalled = (
        bus.subscribe(queue_capacity=stalled_capacity, policy="drop")
        if stalled_capacity is not None
        else None
    )
    latencies = []
    for i in range(num_events):
        started = time.perf_counter()
        log.record(
            "extended", f"bench/c{i % 64:06d}", snippet_id=f"s{i}",
            score=0.5,
        )
        latencies.append(time.perf_counter() - started)
    # lossless fleet really was lossless: hello + every event, no drops
    for sub in subs:
        assert sub.delivered == num_events + 1, sub.describe()
        assert sub.dropped == 0, sub.describe()
    accounting = {
        "published": num_events,
        "delivered_per_healthy": num_events,
        "dropped_total": metrics.counter("push.dropped").value,
    }
    if stalled is not None:
        # exact, not statistical: capacity minus the hello slot survives
        expected_drops = num_events - (stalled_capacity - 1)
        assert stalled.dropped == expected_drops, stalled.describe()
        assert stalled.depth == stalled_capacity
        assert metrics.counter("push.dropped").value == expected_drops
        accounting["stalled"] = {
            "capacity": stalled_capacity,
            "dropped": stalled.dropped,
            "expected_dropped": expected_drops,
            "exact": stalled.dropped == expected_drops,
        }
    bus.drain()
    ordered = sorted(latencies)
    return {
        "subscribers": num_subscribers + (1 if stalled is not None else 0),
        "events": num_events,
        "publish_p50_us": round(percentile(ordered, 50) * 1e6, 2),
        "publish_p95_us": round(percentile(ordered, 95) * 1e6, 2),
        "publish_max_us": round(ordered[-1] * 1e6, 2),
        "accounting": accounting,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized: fewer events per fleet")
    parser.add_argument("--events", type=int, default=None, metavar="N",
                        help="events per round (default 500; smoke 150)")
    parser.add_argument("--max-subscribers", type=int, default=1000,
                        metavar="N",
                        help="largest fleet size (default 1000)")
    parser.add_argument("-o", "--output", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    events = args.events or (150 if args.smoke else 500)

    counts = [10, 100, args.max_subscribers]
    print(f"fan-out scaling ({events} events per fleet):")
    scaling = []
    for count in counts:
        row = publish_round(count, events)
        scaling.append(row)
        print(
            f"  {count:>5} subscribers  p50={row['publish_p50_us']:8.1f}us"
            f"  p95={row['publish_p95_us']:8.1f}us"
            f"  max={row['publish_max_us']:8.1f}us"
        )
    at_scale = scaling[-1]
    fanout_p95 = at_scale["publish_p95_us"] / 1e6

    healthy = 50
    print(f"slow-client isolation ({healthy} healthy subscribers):")
    baseline = publish_round(healthy, events)
    stalled = publish_round(healthy, events, stalled_capacity=8)
    print(
        f"  baseline       p95={baseline['publish_p95_us']:8.1f}us\n"
        f"  with stalled   p95={stalled['publish_p95_us']:8.1f}us  "
        f"(stalled client dropped "
        f"{stalled['accounting']['stalled']['dropped']}/{events}, exact)"
    )
    isolation_bound = max(
        baseline["publish_p95_us"] / 1e6 * ISOLATION_P95_FACTOR,
        baseline["publish_p95_us"] / 1e6 + ISOLATION_P95_SLACK_SECONDS,
    )
    stalled_p95 = stalled["publish_p95_us"] / 1e6

    payload = {
        "benchmark": "push-fanout",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "smoke": args.smoke,
        "cpu_cores": os.cpu_count() or 1,
        "workload": {"events_per_round": events, "healthy_fleet": healthy},
        "fanout_scaling": scaling,
        "gates": {
            "fanout_p95_at_max_fleet": {
                "subscribers": at_scale["subscribers"],
                "p95_seconds": round(fanout_p95, 6),
                "max_seconds": FANOUT_P95_GATE_SECONDS,
                "passed": fanout_p95 <= FANOUT_P95_GATE_SECONDS,
            },
            "slow_client_isolation": {
                "baseline_p95_seconds": round(
                    baseline["publish_p95_us"] / 1e6, 6
                ),
                "stalled_p95_seconds": round(stalled_p95, 6),
                "bound_seconds": round(isolation_bound, 6),
                "drops_exact": (
                    stalled["accounting"]["stalled"]["exact"]
                ),
                "passed": (
                    stalled_p95 <= isolation_bound
                    and stalled["accounting"]["stalled"]["exact"]
                ),
            },
        },
        "isolation": {"baseline": baseline, "with_stalled": stalled},
    }
    output = args.output or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_push.json"
    )
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.normpath(output)}")

    failed = [
        name for name, gate in payload["gates"].items()
        if not gate["passed"]
    ]
    if failed:
        print(f"FAIL: gate(s) {', '.join(failed)}", file=sys.stderr)
        return 1
    print(
        f"gates: p95 {fanout_p95 * 1e3:.2f}ms <= "
        f"{FANOUT_P95_GATE_SECONDS * 1e3:.0f}ms at "
        f"{at_scale['subscribers']} subscribers; stalled-client p95 "
        f"{stalled_p95 * 1e3:.2f}ms <= {isolation_bound * 1e3:.2f}ms "
        f"with exact drop accounting"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
