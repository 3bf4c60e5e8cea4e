"""``storypivot-replica`` — serve the read path from a follower.

Point it at a leader started with ``storypivot-api --follow --wal-dir
... --replication-port N``: the follower bootstraps from the leader's
latest checkpoint snapshot, tails its WAL segments, and serves the same
read-path API from its own materialized views.  Aggregate read
throughput scales with follower count while the leader keeps the write
path to itself.

Examples::

    storypivot-api --synthetic 500 --follow --wal-dir state/ \\
        --replication-port 8421 &
    storypivot-replica --leader http://127.0.0.1:8421 --port 8322 &
    storypivot-replica --leader http://127.0.0.1:8421 --port 8323 &
    curl -s localhost:8322/healthz | python -m json.tool
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.errors import StoryPivotError
from repro.nodecli import (
    NodeGuard,
    add_serving_flags,
    add_tracing_flags,
    console_entry,
    serve_until_signalled,
)
from repro.push import EventBus
from repro.resilience.breaker import CircuitOpenError

from repro.replication.follower import ReplicaRuntime, SourceMetaShim
from repro.server.views import ViewRefresher, ViewStore

DEFAULT_PORT = 8322


def build_parser(prog: str = "storypivot-replica") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Serve the StoryPivot read-path API from a replica "
                    "that tails a leader's WAL.",
    )
    parser.add_argument("--leader", required=True, metavar="URL",
                        help="leader replication endpoint, e.g. "
                             "http://127.0.0.1:8421")
    add_serving_flags(parser, DEFAULT_PORT)
    parser.add_argument("--poll-interval", type=float, default=0.2,
                        metavar="SEC",
                        help="WAL tail cadence (default 0.2s; a backlog "
                             "is drained at full speed regardless)")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="keep a runtime WAL directory here (the "
                             "leader's --wal-dir format: checkpoints + "
                             "per-shard WALs); a restarted replica "
                             "recovers from it and tails from its WAL "
                             "position instead of re-bootstrapping")
    parser.add_argument("--persist-every", type=float, default=5.0,
                        metavar="SEC",
                        help="--state-dir checkpoint cadence (default 5s)")
    add_tracing_flags(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    with NodeGuard(parser, state_dir=args.state_dir) as guard:
        tracer = guard.trace(args.trace_sample, args, "follower")
        replica = ReplicaRuntime(
            args.leader, poll_interval=args.poll_interval,
            lag_budget=args.lag_budget, tracer=tracer,
            state_dir=args.state_dir, persist_every=args.persist_every,
            node_id=guard.node_id,
        )
        try:
            replica.start()
        except (StoryPivotError, CircuitOpenError, OSError) as exc:
            parser.exit(2, f"error: cannot bootstrap from {args.leader}: "
                           f"{exc}\n")

        # followers serve /subscribez too: the bus tails the *replica's*
        # decision log, so subscribers see the story evolution implied by
        # the replicated WAL as it is applied locally
        bus = EventBus(metrics=replica.metrics, tracer=tracer).attach(
            replica.decisions
        )
        store = ViewStore(dataset=replica.dataset)
        refresher = ViewRefresher(
            replica, store, interval=args.refresh_interval,
            corpus=SourceMetaShim(replica.source_meta),
            lag_budget=args.lag_budget, metrics=replica.metrics,
            tracer=tracer, decisions=replica.decisions, bus=bus,
            # mirror the leader: generation = accepted-snippet count, so the
            # same generation means the same replicated prefix on every node
            pin_generations=True,
        ).start()

        def banner(api) -> None:
            print(f"replica of {args.leader} serving {replica.dataset} on "
                  f"{api.address} (generation {store.generation}) as "
                  f"{guard.node_id}", flush=True)

        def teardown() -> None:
            refresher.stop()
            replica.stop()

        return serve_until_signalled(
            args, guard, store, metrics=replica.metrics,
            decisions=replica.decisions, bus=bus, refresher=refresher,
            runtime=replica, banner=banner, teardown=teardown,
        )


_console_entry = console_entry(main)


if __name__ == "__main__":
    raise SystemExit(_console_entry())
