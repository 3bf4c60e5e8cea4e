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
import os
import sys
from typing import Optional, Sequence

from repro.core.config import StoryPivotConfig
from repro.errors import StoryPivotError
from repro.eventdata.models import DAY
from repro.obs import SpanStore, Tracer
from repro.runtime.runtime import RuntimeOptions, ShardedRuntime


def build_parser(prog: str = "storypivot-serve") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Stream a corpus through the sharded ingestion runtime.",
    )
    parser.add_argument("corpus", nargs="?", default=None,
                        help="corpus file (JSONL or GDELT TSV)")
    parser.add_argument("--demo", action="store_true",
                        help="use the built-in MH17 demo corpus")
    parser.add_argument("--synthetic", type=int, default=None, metavar="N",
                        help="generate a synthetic corpus with N events")
    parser.add_argument("--source", default=None, metavar="SPEC",
                        help="pull from a live source connector instead of "
                             "a corpus: scheme:locator, e.g. "
                             "jsonl:events.jsonl, rss:feed.xml, "
                             "gdelt:export.tsv, sim:500 (raw items run "
                             "the normalization gauntlet; rejects are "
                             "quarantined with a reason)")
    parser.add_argument("--sources", type=int, default=5,
                        help="sources for --synthetic (default 5)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--si", choices=["temporal", "complete", "single_pass"],
                        default="temporal", help="identification mode")
    parser.add_argument("--window-days", type=float, default=None,
                        help="sliding-window radius ω in days")
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
    parser.add_argument("--chaos", default=None, metavar="PROFILE",
                        help="inject deterministic faults (seeded by "
                             "--seed) while ingesting; profiles: "
                             "off, default, feed-flap, poison, torn-wal")
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
                             "(error traces are always kept; with --wal-dir, "
                             "sampled traces are exported to "
                             "DIR/traces.jsonl)")
    parser.add_argument("--trace-dump", action="store_true",
                        help="print the /tracez payload (recent traces, slow "
                             "leaderboard, per-stage percentiles) as JSON "
                             "after the run; implies --trace-sample 1.0 "
                             "unless a rate is given")
    parser.add_argument("--lockwatch", action="store_true",
                        help="instrument every lock the runtime creates and "
                             "report lock-order inversions, long holds, and "
                             "blocking calls made while locked")
    parser.add_argument("--lockwatch-long-hold", type=float, default=1.0,
                        metavar="SECONDS",
                        help="long-hold reporting threshold for --lockwatch "
                             "(default 1.0)")
    return parser


def _make_config(args: argparse.Namespace) -> StoryPivotConfig:
    factory = {
        "temporal": StoryPivotConfig.temporal,
        "complete": StoryPivotConfig.complete,
        "single_pass": StoryPivotConfig.single_pass,
    }[args.si]
    overrides = {}
    if args.window_days is not None:
        overrides["window"] = args.window_days * DAY
        overrides["decay_half_life"] = args.window_days * DAY
    return factory(**overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    from repro.cli import _load_corpus  # deferred: cli dispatches to us

    if args.replay_dlq:
        if not args.wal_dir:
            parser.exit(2, "error: --replay-dlq requires --wal-dir\n")
        args.resume = True

    corpus = None
    connector = None
    tsv_skip_reasons: dict = {}
    if args.source is not None:
        if args.corpus or args.demo or args.synthetic is not None:
            parser.exit(2, "error: --source replaces the corpus input; "
                           "give one or the other\n")
        from repro.connect import open_source

        try:
            connector = open_source(args.source)
        except (OSError, StoryPivotError) as exc:
            parser.exit(2, f"error: {exc}\n")
    elif args.corpus or args.demo or args.synthetic is not None:
        try:
            corpus = _load_corpus(args, skip_reasons=tsv_skip_reasons)
        except (OSError, StoryPivotError) as exc:
            parser.exit(2, f"error: {exc}\n")
    elif not args.resume:
        parser.exit(2, "error: no input: give a corpus file, --demo, "
                       "--synthetic N, --source SPEC, or --resume with "
                       "--wal-dir\n")
    if args.resume and not args.wal_dir:
        parser.exit(2, "error: --resume requires --wal-dir\n")

    lockwatch = None
    if args.lockwatch:
        from repro.analysis.lockwatch import LockWatch

        # installed before the runtime builds its object graph so every
        # shard/queue/metric/breaker lock created below is instrumented
        lockwatch = LockWatch(
            long_hold_threshold=args.lockwatch_long_hold
        ).install()

    tracer = None
    span_store = None
    sample_rate = args.trace_sample
    if args.trace_dump and sample_rate == 0.0:
        sample_rate = 1.0
    if sample_rate > 0.0 or args.trace_dump:
        span_store = SpanStore(
            export_path=(
                os.path.join(args.wal_dir, "traces.jsonl")
                if args.wal_dir else None
            )
        )
        tracer = Tracer(sample_rate=sample_rate, store=span_store)

    try:
        options = RuntimeOptions(
            num_shards=args.workers,
            queue_capacity=args.queue_capacity,
            policy=args.policy,
            wal_dir=args.wal_dir,
            checkpoint_every=args.checkpoint_every,
        )
        if args.resume:
            runtime = ShardedRuntime.resume(
                args.wal_dir, config=_make_config(args), options=options,
                tracer=tracer,
            )
        else:
            runtime = ShardedRuntime(_make_config(args), options,
                                     tracer=tracer)
        runtime.start()
    except StoryPivotError as exc:
        parser.exit(2, f"error: {exc}\n")

    # rows import_tsv skipped never reach the runtime, but their reject
    # reasons still belong on /metricz next to the live-connector tallies
    for reason, count in sorted(tsv_skip_reasons.items()):
        runtime.metrics.counter(
            "connect.rejected", connector="gdelt-tsv", reason=reason
        ).inc(count)

    injector = None
    if args.chaos is not None:
        from repro.resilience.faults import FaultInjector, resolve_profile

        try:
            profile = resolve_profile(args.chaos)
        except StoryPivotError as exc:
            runtime.stop()
            parser.exit(2, f"error: {exc}\n")
        injector = FaultInjector(
            seed=args.seed, profile=profile, metrics=runtime.metrics
        )
        for shard in runtime._shards:
            shard.fault_hook = injector.shard_fault_hook(shard.shard_id)
            if shard.wal is not None and profile.torn_write_rate:
                shard.wal = injector.wrap_wal(shard.wal, shard.shard_id)

    checkpoint_text = None
    replay_counts = None
    stream = None
    try:
        if args.replay_dlq:
            replay_counts = runtime.replay_dlq()
        if connector is not None:
            from repro.connect import ConnectorStream

            # the stream carries its own retry/breaker; chaos faults are
            # injected at the raw-pull site, upstream of the gauntlet
            stream = ConnectorStream(
                connector, runtime=runtime, injector=injector
            )
            runtime.consume(stream)
        elif corpus is not None:
            snippets = corpus.snippets_by_publication()
            if injector is not None:
                from repro.connect import build_resilient_feed

                snippets = build_resilient_feed(snippets, injector=injector)
            runtime.consume(snippets)
        result = runtime.flush()
        if args.checkpoint:
            checkpoint_text = runtime.dumps_state()
    finally:
        runtime.stop()
        if lockwatch is not None:
            lockwatch.uninstall()

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

    if injector is not None:
        # accounting check the chaos-smoke CI job greps for: every
        # arrival must be accepted, deduplicated, shed, or quarantined —
        # a chaos run is allowed to degrade, never to lose silently
        counts = injector.counts()
        injected = sum(counts.values())
        accounted = (
            stats["accepted"] + stats["duplicates"]
            + stats["dropped"] + stats["quarantined"] + stats["rejected"]
        )
        # rejected inputs were turned away before ingest.arrived, so the
        # invariant's left side is connector arrivals = arrived + rejected
        total_arrived = stats["arrived"] + stats["rejected"]
        verdict = "OK" if accounted == total_arrived else "MISMATCH"
        detail = ", ".join(
            f"{kind}={counts[kind]}" for kind in sorted(counts)
        ) or "none"
        print(
            f"chaos[{injector.profile.name}] seed={args.seed}: "
            f"{injected} fault(s) injected ({detail}); accounting "
            f"{total_arrived} arrived = {stats['accepted']} accepted "
            f"+ {stats['duplicates']} dup + {stats['dropped']} dropped "
            f"+ {stats['quarantined']} quarantined "
            f"+ {stats['rejected']} rejected -> {verdict}"
        )
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

    if lockwatch is not None:
        print(lockwatch.render_report())

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

    if span_store is not None:
        span_store.flush()
        if args.trace_dump:
            payload = span_store.tracez_payload(
                limit=20, slow_board=tracer.slow
            )
            print(json.dumps(payload, indent=2, sort_keys=True))
        span_store.close()
    return 0


def _console_entry() -> int:
    try:
        return main()
    except BrokenPipeError:
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        os._exit(0)


if __name__ == "__main__":
    raise SystemExit(_console_entry())
