"""``storypivot-api`` — serve the read-path HTTP API from the shell.

Three modes over the same endpoints:

* **static** (default): run the full pipeline over the input corpus once,
  materialize one :class:`~repro.server.views.ReadView` and serve it;
* ``--follow``: ingest the corpus through a live
  :class:`~repro.runtime.runtime.ShardedRuntime` *while serving* — a
  background refresher rebuilds and atomically swaps the view as
  ingestion advances, so clients watch the story set grow.  Restarted
  on a ``--wal-dir`` it already used, the leader resumes that runtime;
* ``--demo``: the built-in MH17 two-source corpus (either mode).

Examples::

    storypivot-api --demo                       # demo corpus on :8321
    storypivot-api corpus.jsonl --port 9000 --rate-limit 50 --burst 100
    storypivot-api --synthetic 500 --follow --refresh-interval 0.5
    curl -s localhost:8321/stories | python -m json.tool
    curl -s localhost:8321/metricz?format=text
"""

from __future__ import annotations

import argparse
import threading
from typing import Optional, Sequence

from repro.core.pipeline import StoryPivot
from repro.errors import StoryPivotError
from repro.nodecli import (
    NodeGuard,
    add_fault_flags,
    add_input_flags,
    add_serving_flags,
    add_tracing_flags,
    console_entry,
    count_skipped_rows,
    feed,
    has_corpus,
    make_config,
    open_input,
    serve_until_signalled,
)
from repro.obs import DecisionLog
from repro.push import EventBus
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime
from repro.runtime.wal import CheckpointStore

from repro.server.views import ViewRefresher, ViewStore

DEFAULT_PORT = 8321


def build_parser(prog: str = "storypivot-api") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Serve the StoryPivot read-path HTTP API.",
    )
    add_input_flags(parser)
    parser.add_argument("--source", default=None, metavar="SPEC",
                        help="serve a live source connector (requires "
                             "--follow): scheme:locator, e.g. "
                             "jsonl:events.jsonl, rss:feed.xml, "
                             "gdelt:export.tsv, sim:500")
    add_serving_flags(parser, DEFAULT_PORT)
    parser.add_argument("--follow", action="store_true",
                        help="serve while ingesting through the sharded "
                             "runtime; the view refreshes as data arrives")
    parser.add_argument("--workers", "-j", type=int, default=2, metavar="N",
                        help="shard workers for --follow (default 2)")
    parser.add_argument("--wal-dir", default=None, metavar="DIR",
                        help="--follow: state directory for WAL/checkpoints; "
                             "the decision log and sampled traces are "
                             "exported next to them as JSONL")
    parser.add_argument("--replication-port", type=int, default=None,
                        metavar="PORT",
                        help="--follow + --wal-dir: also ship WAL segments "
                             "and snapshots to followers on this port "
                             "(0 = ephemeral); see storypivot-replica")
    parser.add_argument("--push-queue", type=int, default=256, metavar="N",
                        help="per-subscriber /subscribez queue (default 256)")
    parser.add_argument("--push-policy", default="drop",
                        choices=["block", "drop", "sample"],
                        help="backpressure for slow subscribers (default "
                             "drop; block still bounds the wait)")
    parser.add_argument("--max-subscribers", type=int, default=4096,
                        metavar="N", help="concurrent /subscribez streams "
                        "before 503 (default 4096)")
    add_fault_flags(parser)
    add_tracing_flags(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.source is not None and not args.follow:
        parser.exit(2, "error: --source requires --follow (a live "
                       "connector feeds the runtime while serving)\n")
    if args.source is None and not has_corpus(args):
        parser.exit(2, "error: no input: give a corpus file, --demo, "
                       "--synthetic N, or --source SPEC with --follow\n")
    if args.replication_port is not None and not (args.follow and args.wal_dir):
        parser.exit(2, "error: --replication-port requires --follow and "
                       "--wal-dir (followers tail the per-shard WAL)\n")
    if args.chaos is not None and not args.follow:
        parser.exit(2, "error: --chaos requires --follow\n")
    tsv_skip_reasons: dict = {}
    corpus, connector = open_input(parser, args, tsv_skip_reasons)
    try:
        config = make_config(args)
        if args.follow:
            options = RuntimeOptions(
                num_shards=args.workers, wal_dir=args.wal_dir
            )
    except StoryPivotError as exc:
        parser.exit(2, f"error: {exc}\n")

    with NodeGuard(
        parser, state_dir=args.wal_dir, chaos=args.chaos, seed=args.seed,
        lockwatch=args.lockwatch,
    ) as guard:
        tracer = guard.trace(
            args.trace_sample, args, "leader" if args.follow else "api"
        )
        store = ViewStore(dataset=corpus.name)
        runtime = None
        if args.follow:
            try:
                # a used state dir is resumed: its manifest's shard count
                # wins and re-fed snippets are dedup hits, not new records
                if args.wal_dir and CheckpointStore(args.wal_dir).read_manifest():
                    runtime = ShardedRuntime.resume(
                        args.wal_dir, config, options, tracer=tracer
                    )
                else:
                    runtime = ShardedRuntime(config, options, tracer=tracer)
                    runtime.start()
            except StoryPivotError as exc:
                parser.exit(2, f"error: {exc}\n")
            metrics, decisions = runtime.metrics, runtime.decisions
        else:
            metrics, decisions = MetricsRegistry(), DecisionLog()
        bus = EventBus(
            queue_capacity=args.push_queue, policy=args.push_policy,
            max_subscribers=args.max_subscribers,
            metrics=metrics, tracer=tracer,
        ).attach(decisions)
        if runtime is None:
            with tracer.start_trace("pipeline.run", dataset=corpus.name):
                result = StoryPivot(config, decision_log=decisions).run(corpus)
            # static mode still serves /subscribez: the stream carries the
            # one generation event plus any history replay a cursor asks for
            bus.note_view(store.install(result, corpus=corpus))
            return serve_until_signalled(
                args, guard, store, metrics=metrics, decisions=decisions,
                bus=bus, banner=lambda api: _banner(api, corpus, store),
            )

        count_skipped_rows(metrics, tsv_skip_reasons)
        injector = guard.inject(runtime)
        replication = None
        if args.replication_port is not None:
            from repro.replication import ReplicationServer
            from repro.replication.follower import source_meta_record

            replication = ReplicationServer(
                runtime, host=args.host, port=args.replication_port,
                dataset=corpus.name, sources=source_meta_record(corpus),
                tracer=tracer,
            ).start()
        refresher = ViewRefresher(
            runtime, store, interval=args.refresh_interval, corpus=corpus,
            lag_budget=args.lag_budget, metrics=metrics, tracer=tracer,
            decisions=decisions, bus=bus,
            # generation = accepted-snippet count whenever followers may
            # be attached, so leader and follower ETags agree per
            # generation rather than per refresh tick
            pin_generations=replication is not None,
        ).start()
        feeder = threading.Thread(
            target=feed, args=(runtime, corpus, connector, injector),
            name="storypivot-feeder", daemon=True,
        )
        feeder.start()

        def teardown() -> None:
            if replication is not None:
                replication.close()
            refresher.stop()
            feeder.join(timeout=5.0)
            runtime.stop()

        return serve_until_signalled(
            args, guard, store, metrics=metrics, decisions=decisions,
            bus=bus, refresher=refresher, runtime=runtime,
            replication=replication, teardown=teardown,
            banner=lambda api: _banner(api, corpus, store, replication),
        )


def _banner(api, corpus, store, replication=None) -> None:
    print(f"serving {corpus.name} on {api.address} "
          f"(generation {store.generation})", flush=True)
    if replication is not None:
        print(f"replicating on {replication.address}", flush=True)


_console_entry = console_entry(main)


if __name__ == "__main__":
    raise SystemExit(_console_entry())
