"""What the node CLIs share: inputs, config, chaos, tracing and serving.

``storypivot-run``, ``-serve``, ``-api`` and ``-replica`` each start a
node from the shell; every decision more than one of them makes lives
here once: the input flags and the corpus and config they select,
:class:`NodeGuard` (chaos, lock watch and tracing, torn down on every
exit path), the serving flags and :func:`serve_until_signalled`, and
:func:`console_entry`, behind every ``[project.scripts]`` entry point.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import IDENTIFICATION_MODES, StoryPivotConfig
from repro.errors import DataFormatError, StoryPivotError
from repro.eventdata.corpus import Corpus
from repro.eventdata.gdelt import GDELT_COLUMNS, import_tsv
from repro.eventdata.models import DAY
from repro.obs import SpanStore, Tracer
from repro.obs.propagate import make_node_id


def console_entry(main: Callable[[], int]) -> Callable[[], int]:
    """``main`` as a console script that exits quietly when its output
    pipe closes (``storypivot-run --demo | head``)."""

    def entry() -> int:
        try:
            return main()
        except BrokenPipeError:
            try:
                sys.stdout.close()
            except BrokenPipeError:
                pass
            os._exit(0)

    return entry


# -- inputs and config ---------------------------------------------------


def add_input_flags(
    parser: argparse.ArgumentParser, window_days: bool = True
) -> None:
    parser.add_argument("corpus", nargs="?", default=None,
                        help="corpus file (JSONL or GDELT TSV)")
    parser.add_argument("--demo", action="store_true",
                        help="use the built-in MH17 demo corpus")
    parser.add_argument("--synthetic", type=int, default=None, metavar="N",
                        help="generate a synthetic corpus with N events")
    parser.add_argument("--sources", type=int, default=5,
                        help="sources for --synthetic (default 5)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--si", choices=IDENTIFICATION_MODES,
                        default="temporal", help="identification mode")
    if window_days:
        parser.add_argument("--window-days", type=float, default=None,
                            help="sliding-window radius ω in days")


def has_corpus(args: argparse.Namespace) -> bool:
    return bool(args.corpus or args.demo or args.synthetic is not None)


def load_corpus(
    args: argparse.Namespace,
    skip_reasons: "dict[str, int] | None" = None,
) -> Corpus:
    """Load the corpus selected by ``args``.

    With ``skip_reasons``, bad GDELT TSV rows are skipped and their reject
    reasons tallied into it (servers report them on ``/metricz`` rather
    than die on one bad row); without it the first bad row raises.
    """
    if args.demo:
        from repro.eventdata.handcrafted import mh17_corpus

        return mh17_corpus()
    if args.synthetic is not None:
        from repro.eventdata.sourcegen import synthetic_corpus

        return synthetic_corpus(
            total_events=args.synthetic, num_sources=args.sources,
            seed=args.seed,
        )
    if args.corpus is None:
        raise DataFormatError(
            "no input: give a corpus file, --demo, or --synthetic N"
        )
    with open(args.corpus, "r", encoding="utf-8") as handle:
        text = handle.read()
    first_line = text.splitlines()[0] if text.splitlines() else ""
    if first_line.startswith(GDELT_COLUMNS[0]):
        if skip_reasons is not None:
            return import_tsv(text, on_error="skip", reasons=skip_reasons)
        return import_tsv(text)
    return Corpus.from_jsonl(text)


def open_input(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    skip_reasons: Dict[str, int],
) -> Tuple[Optional[Corpus], object]:
    """``(corpus, connector)`` for the input ``args`` name; exits 2 on a
    bad one.  A ``--source`` connector comes with an empty corpus shell
    naming it; no input at all gives ``(None, None)``."""
    if args.source is not None and has_corpus(args):
        parser.exit(2, "error: --source replaces the corpus input; "
                       "give one or the other\n")
    try:
        if args.source is not None:
            from repro.connect import open_source, source_corpus_shell

            connector = open_source(args.source)
            return source_corpus_shell(args.source, connector), connector
        if has_corpus(args):
            return load_corpus(args, skip_reasons=skip_reasons), None
    except (OSError, StoryPivotError) as exc:
        parser.exit(2, f"error: {exc}\n")
    return None, None


def make_config(args: argparse.Namespace, **overrides) -> StoryPivotConfig:
    """The preset ``--si`` names; ``--window-days`` sets both the window
    and the profile-decay half-life."""
    if args.window_days is not None:
        overrides["window"] = args.window_days * DAY
        overrides["decay_half_life"] = args.window_days * DAY
    return StoryPivotConfig.preset(args.si, **overrides)


def count_skipped_rows(metrics, skip_reasons: Dict[str, int]) -> None:
    """Rows ``import_tsv`` skipped never reach the runtime, but their
    reject reasons still belong on ``/metricz`` next to the
    live-connector tallies (same metric family, same reasons)."""
    for reason, count in sorted(skip_reasons.items()):
        metrics.counter(
            "connect.rejected", connector="gdelt-tsv", reason=reason
        ).inc(count)


def feed(runtime, corpus=None, connector=None, injector=None):
    """Ingest the live ``connector`` or else ``corpus`` (in publication
    order, the order a live feed would deliver) through ``runtime``.

    Chaos faults enter at the raw pull, upstream of the gauntlet.
    Returns the connector's stream, whose report the caller may print.
    """
    if connector is not None:
        from repro.connect import ConnectorStream

        stream = ConnectorStream(connector, runtime=runtime, injector=injector)
        runtime.consume(stream)
        return stream
    if corpus is not None:
        snippets = corpus.snippets_by_publication()
        if injector is not None:
            from repro.connect import build_resilient_feed

            snippets = build_resilient_feed(snippets, injector=injector)
        runtime.consume(snippets)
    return None


# -- chaos, lock watch and tracing ----------------------------------------


def add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chaos", default=None, metavar="PROFILE",
                        help="inject deterministic faults (seeded by "
                             "--seed) into the feed, shards and WAL; "
                             "profiles: off, default, feed-flap, poison, "
                             "torn-wal (storypivot-api: with --follow)")
    parser.add_argument("--lockwatch", action="store_true",
                        help="instrument every lock the node creates and "
                             "report lock-order inversions, long holds, and "
                             "blocking calls made while locked")


def add_tracing_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-sample", type=float, default=0.0,
                        metavar="RATE",
                        help="head-sampling rate in [0, 1] for pipeline, "
                             "apply and request traces (error traces are "
                             "always kept; default 0.0)")
    parser.add_argument("--node-id", default=None, metavar="ID",
                        help="fleet identity stamped on spans, /healthz "
                             "and the X-StoryPivot-Node header "
                             "(default: role@host:port)")
    parser.add_argument("--trace-export-mb", type=int, default=64,
                        metavar="MB",
                        help="rotate the JSONL trace export (in the state "
                             "directory) past this size, keeping "
                             "--trace-keep sealed files (default 64)")
    parser.add_argument("--trace-keep", type=int, default=3, metavar="N",
                        help="sealed trace-export files retained after "
                             "rotation (default 3)")


class NodeGuard:
    """Chaos, lock watch and tracing around one node run.

    Build it once every other argument check has passed: it resolves the
    chaos profile first (an unknown one exits 2 through ``parser``) and
    only then installs the lock watch — before the runtime builds its
    object graph, so every shard/queue/metric/breaker lock is
    instrumented.  Leaving the ``with`` block, by any path, uninstalls
    the watch and closes the span store.
    """

    def __init__(self, parser: argparse.ArgumentParser,
                 state_dir: Optional[str] = None, chaos: Optional[str] = None,
                 seed: int = 0, lockwatch: bool = False,
                 long_hold: float = 1.0) -> None:
        self.state_dir = state_dir
        self.seed = seed
        self.profile = None
        if chaos is not None:
            from repro.resilience.faults import resolve_profile

            try:
                self.profile = resolve_profile(chaos)
            except StoryPivotError as exc:
                parser.exit(2, f"error: {exc}\n")
        self.injector = None
        self.node_id: Optional[str] = None
        self.span_store: Optional[SpanStore] = None
        self.tracer: Optional[Tracer] = None
        self.lockwatch = None
        if lockwatch:
            from repro.analysis.lockwatch import LockWatch

            self.lockwatch = LockWatch(long_hold_threshold=long_hold).install()

    def __enter__(self) -> "NodeGuard":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.lockwatch is not None:
            self.lockwatch.uninstall()
        if self.span_store is not None:
            self.span_store.close()

    def trace(self, sample_rate: float, args=None, role: str = "") -> Tracer:
        """The span store, exporting to ``<state_dir>/traces.jsonl``, and
        its tracer.  ``args`` carrying the :func:`add_tracing_flags` flags
        set the export rotation and the node id (default
        ``role@host:port``)."""
        export_mb, keep = 64, 3
        if args is not None:
            port = args.port or None
            self.node_id = args.node_id or make_node_id(role, port)
            export_mb, keep = args.trace_export_mb, args.trace_keep
        self.span_store = SpanStore(
            export_path=(
                os.path.join(self.state_dir, "traces.jsonl")
                if self.state_dir else None
            ),
            export_max_bytes=export_mb * 1024 * 1024,
            export_keep_files=keep,
        )
        self.tracer = Tracer(sample_rate=sample_rate, store=self.span_store,
                             node_id=self.node_id)
        return self.tracer

    def inject(self, runtime):
        """Mount the chaos profile on a started runtime's shards and WALs;
        the injector, or None without ``--chaos``."""
        if self.profile is None:
            return None
        from repro.resilience.faults import FaultInjector

        injector = FaultInjector(
            seed=self.seed, profile=self.profile, metrics=runtime.metrics
        )
        for shard in runtime._shards:
            shard.fault_hook = injector.shard_fault_hook(shard.shard_id)
            if shard.wal is not None and self.profile.torn_write_rate:
                shard.wal = injector.wrap_wal(shard.wal, shard.shard_id)
        self.injector = injector
        return injector

    def accounting(self, stats: Dict[str, int]) -> str:
        """The chaos accounting line CI greps for: a chaos run may
        degrade, never lose silently — every arrival is accepted,
        deduplicated, shed, quarantined or rejected."""
        counts = self.injector.counts()
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
        return (
            f"chaos[{self.injector.profile.name}] seed={self.seed}: "
            f"{sum(counts.values())} fault(s) injected ({detail}); "
            f"accounting {total_arrived} arrived = {stats['accepted']} "
            f"accepted + {stats['duplicates']} dup + {stats['dropped']} "
            f"dropped + {stats['quarantined']} quarantined "
            f"+ {stats['rejected']} rejected -> {verdict}"
        )


# -- serving ----------------------------------------------------------------


def add_serving_flags(
    parser: argparse.ArgumentParser, default_port: int
) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=default_port,
                        help=f"listen port (default {default_port}; "
                             f"0 = ephemeral)")
    parser.add_argument("--refresh-interval", type=float, default=1.0,
                        metavar="SEC", help="view rebuild cadence")
    parser.add_argument("--lag-budget", type=float, default=None,
                        metavar="SEC",
                        help="staleness budget: past this, /healthz "
                             "degrades and data requests are shed with "
                             "503 + Retry-After (default: serve stale "
                             "indefinitely)")
    parser.add_argument("--cache-size", type=int, default=512, metavar="N",
                        help="response cache entries (0 disables; "
                             "default 512)")
    parser.add_argument("--rate-limit", type=float, default=0.0,
                        metavar="RPS",
                        help="per-client requests/second (0 = unlimited)")
    parser.add_argument("--burst", type=float, default=20.0,
                        help="rate-limiter burst size (default 20)")
    parser.add_argument("--access-log", action="store_true",
                        help="write JSON access log lines to stderr")


def serve_until_signalled(
    args: argparse.Namespace, guard: NodeGuard, store, *, metrics,
    banner: Callable[[object], None],
    teardown: Optional[Callable[[], None]] = None,
    refresher=None, runtime=None, **wiring,
) -> int:
    """Serve ``store`` over HTTP until SIGINT/SIGTERM, then drain.

    A burn-rate SLO engine runs on every node (its ticker is the cadence
    the 5m/1h windows are evaluated over between ``/sloz`` polls).
    ``banner(api)`` runs once the listener is up; on the way out the
    API drains, ``teardown`` stops the rest of the node, and the chaos
    accounting and lock-watch report are printed.  ``wiring`` is passed
    through to :class:`~repro.server.app.StoryPivotAPI`.
    """
    from repro.obs.slo import SLOEngine, default_objectives
    from repro.server.app import StoryPivotAPI

    guard.span_store.bind_metrics(metrics)
    slo = SLOEngine(default_objectives(
        metrics, refresher=refresher, runtime=runtime,
        staleness_limit=args.lag_budget,
    )).start(interval=2.0)
    api = StoryPivotAPI(
        store, host=args.host, port=args.port, metrics=metrics,
        cache_entries=args.cache_size, rate_limit=args.rate_limit,
        burst=args.burst, access_log=sys.stderr if args.access_log else None,
        refresher=refresher, runtime=runtime, tracer=guard.tracer,
        node_id=guard.node_id, slo=slo, **wiring,
    )
    stop = threading.Event()

    def _shutdown(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(signal.SIGTERM, _shutdown)
    try:
        banner(api.start())
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        print("shutting down: draining in-flight requests", flush=True)
        slo.stop()
        api.close()
        if teardown is not None:
            teardown()
        if guard.injector is not None:
            print(guard.accounting(runtime.stats()), flush=True)
        if guard.lockwatch is not None:
            print(guard.lockwatch.render_report(), flush=True)
    return 0
