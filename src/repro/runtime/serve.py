"""``storypivot-serve`` — run the sharded ingestion runtime from the shell.

Also reachable as ``storypivot-run serve ...`` / ``storypivot-run ingest
...``.  Feeds a corpus (file, ``--demo``, or ``--synthetic N``) through a
:class:`~repro.runtime.runtime.ShardedRuntime` in publication order — the
order a live feed would deliver — then flushes and reports.

Examples::

    storypivot-serve --demo --workers 4 --stats
    storypivot-serve --synthetic 2000 --sources 8 --workers 4 \\
        --metrics out.json
    storypivot-serve corpus.jsonl --wal-dir state/ --checkpoint-every 500
    storypivot-serve --resume --wal-dir state/ --stats   # after a crash

``--stats`` renders the metrics registry (queue depths, offer-latency
percentiles, realignment timings); ``--metrics FILE`` writes the same
registry as JSON.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from repro.errors import StoryPivotError
from repro.nodecli import (
    NodeGuard,
    add_fault_flags,
    add_input_flags,
    console_entry,
    count_skipped_rows,
    feed,
    make_config,
    open_input,
)
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime


def build_parser(prog: str = "storypivot-serve") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Stream a corpus through the sharded ingestion runtime.",
    )
    add_input_flags(parser)
    parser.add_argument("--source", default=None, metavar="SPEC",
                        help="pull from a live source connector instead of "
                             "a corpus: scheme:locator, e.g. jsonl:x.jsonl, "
                             "rss:feed.xml, gdelt:export.tsv, sim:500")
    parser.add_argument("--workers", "-j", type=int, default=4,
                        metavar="N", help="shard workers (default 4)")
    parser.add_argument("--policy", choices=["block", "drop", "sample"],
                        default="block", help="backpressure policy")
    parser.add_argument("--queue-capacity", type=int, default=2048)
    parser.add_argument("--wal-dir", default=None, metavar="DIR",
                        help="write-ahead log + checkpoint directory")
    parser.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                        help="auto-checkpoint cadence per shard (0 = at stop)")
    parser.add_argument("--resume", action="store_true",
                        help="recover state from --wal-dir before ingesting")
    parser.add_argument("--replay-dlq", action="store_true",
                        help="re-offer quarantined snippets from the "
                             "--wal-dir dead-letter queues (implies "
                             "--resume)")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="write the metrics registry as JSON")
    parser.add_argument("--stats", action="store_true",
                        help="print the metrics table after the run")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="write a canonical state checkpoint at the end")
    parser.add_argument("--trace-sample", type=float, default=0.0,
                        metavar="RATE",
                        help="head-sampling rate in [0, 1] for ingest traces "
                             "(exported to --wal-dir/traces.jsonl)")
    parser.add_argument("--trace-dump", action="store_true",
                        help="print the /tracez payload as JSON after the "
                             "run; implies --trace-sample 1.0 unless given")
    add_fault_flags(parser)
    parser.add_argument("--lockwatch-long-hold", type=float, default=1.0,
                        metavar="SECONDS",
                        help="long-hold reporting threshold for --lockwatch "
                             "(default 1.0)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.replay_dlq:
        if not args.wal_dir:
            parser.exit(2, "error: --replay-dlq requires --wal-dir\n")
        args.resume = True

    tsv_skip_reasons: dict = {}
    corpus, connector = open_input(parser, args, tsv_skip_reasons)
    if corpus is None and not args.resume:
        parser.exit(2, "error: no input: give a corpus file, --demo, "
                       "--synthetic N, --source SPEC, or --resume with "
                       "--wal-dir\n")
    if args.resume and not args.wal_dir:
        parser.exit(2, "error: --resume requires --wal-dir\n")
    try:
        config = make_config(args)
        options = RuntimeOptions(
            num_shards=args.workers, queue_capacity=args.queue_capacity,
            policy=args.policy, wal_dir=args.wal_dir,
            checkpoint_every=args.checkpoint_every,
        )
    except StoryPivotError as exc:
        parser.exit(2, f"error: {exc}\n")

    sample_rate = args.trace_sample
    if args.trace_dump and sample_rate == 0.0:
        sample_rate = 1.0
    with NodeGuard(
        parser, state_dir=args.wal_dir, chaos=args.chaos, seed=args.seed,
        lockwatch=args.lockwatch, long_hold=args.lockwatch_long_hold,
    ) as guard:
        tracer = None
        if sample_rate > 0.0 or args.trace_dump:
            tracer = guard.trace(sample_rate)
        try:
            if args.resume:
                runtime = ShardedRuntime.resume(
                    args.wal_dir, config=config, options=options,
                    tracer=tracer,
                )
            else:
                runtime = ShardedRuntime(config, options, tracer=tracer)
            runtime.start()
        except StoryPivotError as exc:
            parser.exit(2, f"error: {exc}\n")
        count_skipped_rows(runtime.metrics, tsv_skip_reasons)
        injector = guard.inject(runtime)

        checkpoint_text = None
        replay_counts = None
        try:
            if args.replay_dlq:
                replay_counts = runtime.replay_dlq()
            stream = feed(runtime, corpus, connector, injector)
            result = runtime.flush()
            if args.checkpoint:
                checkpoint_text = runtime.dumps_state()
        finally:
            runtime.stop()
        stats = runtime.stats()
        print(
            f"{stats['arrived']} arrived → {stats['accepted']} accepted "
            f"({stats['duplicates']} duplicates, {stats['dropped']} dropped) "
            f"→ {result.num_stories} per-source stories "
            f"→ {result.num_integrated} integrated stories "
            f"[{runtime.options.num_shards} shard(s), "
            f"{stats['realignments']} realignment(s)]"
        )

        if stream is not None:
            print(stream.render_report())

        if replay_counts is not None:
            print(
                f"dlq replay: {replay_counts['replayed']} replayed, "
                f"{replay_counts['requeued']} still quarantined, "
                f"{replay_counts['held']} rejected record(s) held back"
            )

        span_store = guard.span_store
        if guard.injector is not None:
            print(guard.accounting(stats))
            if span_store is not None:
                # second, independent ledger: the resilience machinery also
                # narrates faults as span events; at full sampling the two
                # accounts must agree on quarantines
                span_store.flush()
                events = span_store.event_counts()
                quarantines = events.get("dlq.quarantine", 0)
                if sample_rate >= 1.0:
                    trace_verdict = (
                        "OK" if quarantines == stats["quarantined"]
                        else "MISMATCH"
                    )
                else:
                    trace_verdict = "PARTIAL (sampled)"
                print(
                    f"trace events: quarantine={quarantines}"
                    f"/{stats['quarantined']} "
                    f"retry={events.get('retry', 0)} "
                    f"breaker={events.get('breaker.transition', 0)} "
                    f"torn_wal={events.get('wal.torn_record', 0)} "
                    f"-> {trace_verdict}"
                )

        if guard.lockwatch is not None:
            print(guard.lockwatch.render_report())

        if checkpoint_text is not None:
            with open(args.checkpoint, "w", encoding="utf-8") as handle:
                handle.write(checkpoint_text)
            print(f"checkpoint: {args.checkpoint}")

        if args.metrics:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(runtime.metrics_json())
            print(f"metrics: {args.metrics}")

        if args.stats:
            from repro.runtime.metrics import render_table

            print()
            print(render_table(runtime.metrics.snapshot()))

        if args.trace_dump:
            span_store.flush()
            payload = span_store.tracez_payload(
                limit=20, slow_board=guard.tracer.slow
            )
            print(json.dumps(payload, indent=2, sort_keys=True))

    return 0


_console_entry = console_entry(main)


if __name__ == "__main__":
    raise SystemExit(_console_entry())
