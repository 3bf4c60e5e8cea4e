"""Command-line pipeline runner.

``storypivot-run`` turns a corpus file into stories from the shell:

* input — a JSON-lines corpus (``Corpus.to_jsonl``) or a GDELT-style TSV
  (``repro.eventdata.gdelt.export_tsv``); ``--demo`` uses the built-in
  MH17 corpus and ``--synthetic N`` generates a labelled synthetic corpus;
* processing — SI mode, SA strategy, window and thresholds are flags;
* output — the story overview as text (default), the integrated stories as
  JSON (``--format json``), and/or a restartable checkpoint
  (``--checkpoint FILE``);
* evaluation — with ``--evaluate`` and a ground-truth-labelled corpus, the
  pairwise F-measure of the result is printed.

Examples::

    storypivot-run --demo --evaluate
    storypivot-run --synthetic 500 --si complete --format json
    storypivot-run corpus.jsonl --window-days 7 --checkpoint state.jsonl
    storypivot-run explain s1/c000000 --demo
    storypivot-run explain "c'000001" --wal-dir state/
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core.config import StoryPivotConfig
from repro.core.persistence import dump_state
from repro.core.pipeline import PivotResult, StoryPivot
from repro.errors import StoryPivotError
from repro.evaluation.metrics import bcubed, pairwise_scores
from repro.nodecli import (
    add_input_flags,
    console_entry,
    load_corpus,
    make_config,
)
from repro.viz.modules import story_overview_view


def _make_config(args: argparse.Namespace) -> StoryPivotConfig:
    overrides = {
        "alignment_strategy": args.sa,
        "enable_refinement": not args.no_refinement and args.sa != "none",
    }
    if args.match_threshold is not None:
        overrides["match_threshold"] = args.match_threshold
    if args.sketches:
        overrides["use_sketches"] = True
    return make_config(args, **overrides)


def _stories_as_json(result: PivotResult) -> str:
    records = []
    for aligned_id in sorted(result.alignment.aligned):
        aligned = result.alignment.aligned[aligned_id]
        records.append({
            "story_id": aligned.aligned_id,
            "sources": aligned.source_ids,
            "start": aligned.start,
            "end": aligned.end,
            "entities": dict(aligned.top_entities(10)),
            "terms": dict(aligned.top_terms(10)),
            "snippets": [
                {
                    "snippet_id": s.snippet_id,
                    "source_id": s.source_id,
                    "timestamp": s.timestamp,
                    "description": s.description,
                    "role": result.alignment.role(s.snippet_id),
                }
                for s in aligned.snippets()
            ],
        })
    return json.dumps({"stories": records}, indent=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storypivot-run",
        description="Detect and align stories in an event corpus.",
    )
    add_input_flags(parser)
    parser.add_argument("--sa", choices=["greedy", "optimal", "none"],
                        default="greedy", help="alignment strategy")
    parser.add_argument("--match-threshold", type=float, default=None)
    parser.add_argument("--no-refinement", action="store_true")
    parser.add_argument("--sketches", action="store_true",
                        help="use MinHash/LSH candidate retrieval")
    parser.add_argument("--order", choices=["time", "publication"],
                        default="time", help="ingestion order")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--evaluate", action="store_true",
                        help="score against embedded ground truth")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="write a restartable state checkpoint")
    parser.add_argument("--html", default=None, metavar="FILE",
                        help="write a standalone HTML report")
    parser.add_argument("--query", default=None, metavar="Q",
                        help='run an enquiry, e.g. "entity:UKR keyword:crash"')
    return parser


def _explain_main(argv: Sequence[str]) -> int:
    """``storypivot-run explain`` — replay one story's decision history.

    Works offline against a state directory's ``decisions.jsonl`` (the
    always-on log the sharded runtime writes next to its WAL) or, given
    a corpus, re-runs the pipeline with a fresh log attached.  Accepts
    per-source story ids (``s1/000003``) and integrated/aligned ids
    (``c'000001``) — the latter interleave every member story's history.
    """
    import os

    from repro.obs.decisions import DecisionLog, format_event, merge_histories

    parser = argparse.ArgumentParser(
        prog="storypivot-run explain",
        description="Replay the decision history of one story.",
    )
    parser.add_argument("story_id",
                        help="per-source story id (s1/c000003) or "
                             "integrated story id (c'000001)")
    # the corpus is re-run when no --wal-dir/--log is given
    add_input_flags(parser, window_days=False)
    parser.add_argument("--wal-dir", default=None, metavar="DIR",
                        help="state directory holding decisions.jsonl")
    parser.add_argument("--log", default=None, metavar="FILE",
                        help="decision-log JSONL file to load")
    args = parser.parse_args(list(argv))

    if args.log or args.wal_dir:
        path = args.log or os.path.join(args.wal_dir, "decisions.jsonl")
        if not os.path.exists(path):
            parser.exit(2, f"error: no decision log at {path}\n")
        log = DecisionLog.load(path)
    else:
        try:
            corpus = load_corpus(args)
        except (OSError, StoryPivotError) as exc:
            parser.exit(2, f"error: {exc}\n")
        log = DecisionLog()
        StoryPivot(
            StoryPivotConfig.preset(args.si), decision_log=log
        ).run(corpus)

    events = log.history(args.story_id)
    if events:
        print(log.format_history(args.story_id))
        return 0
    # maybe an integrated story id: interleave its members' histories
    members = []
    for event in log.events():
        if (
            event["event"] == "aligned"
            and event.get("details", {}).get("aligned_id") == args.story_id
            and event["story_id"] not in members
        ):
            members.append(event["story_id"])
    if members:
        merged = merge_histories(log.history(m) for m in members)
        print(f"integrated story {args.story_id}: {len(members)} member "
              f"story(ies), {len(merged)} decision(s)")
        for event in merged:
            print("  " + format_event(event))
        return 0
    print(f"no decision history for story {args.story_id!r}",
          file=sys.stderr)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("serve", "ingest"):
        # the runtime subcommands: `storypivot-run serve --demo --stats`
        from repro.runtime.serve import main as serve_main

        return serve_main(list(argv[1:]))
    if argv and argv[0] == "explain":
        return _explain_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        corpus = load_corpus(args)
    except (OSError, StoryPivotError) as exc:
        parser.exit(2, f"error: {exc}\n")

    config = _make_config(args)
    pivot = StoryPivot(config)
    result = pivot.run(corpus, order=args.order)

    if args.format == "json":
        print(_stories_as_json(result))
    else:
        print(story_overview_view(result.alignment))
        print()
        print(f"{len(corpus)} snippets → {result.num_stories} per-source "
              f"stories → {result.num_integrated} integrated stories "
              f"in {result.timings.get('total', 0.0):.2f}s")

    if args.evaluate:
        truth = corpus.truth.labels
        if not truth:
            print("evaluate: corpus carries no ground truth", file=sys.stderr)
        else:
            pair = pairwise_scores(result.global_clusters(), truth)
            cubed = bcubed(result.global_clusters(), truth)
            print(f"pairwise  P={pair.precision:.3f} R={pair.recall:.3f} "
                  f"F1={pair.f1:.3f}")
            print(f"b-cubed   P={cubed.precision:.3f} R={cubed.recall:.3f} "
                  f"F1={cubed.f1:.3f}")

    if args.checkpoint:
        with open(args.checkpoint, "w", encoding="utf-8") as handle:
            written = dump_state(pivot, handle)
        print(f"checkpoint: {written} snippets → {args.checkpoint}")

    if args.html:
        from repro.viz.html_report import write_report

        name = args.corpus or ("demo" if args.demo else "synthetic")
        write_report(args.html, result, dataset_name=name)
        print(f"report: {args.html}")

    if args.query:
        from repro.query.engine import QueryEngine
        from repro.query.parser import QuerySyntaxError

        try:
            print(QueryEngine(result.alignment, corpus).explain(args.query))
        except (QuerySyntaxError, ValueError) as exc:
            parser.exit(2, f"query error: {exc}\n")
    return 0


_console_entry = console_entry(main)


if __name__ == "__main__":
    raise SystemExit(_console_entry())
