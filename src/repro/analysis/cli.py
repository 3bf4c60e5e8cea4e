"""``storypivot-lint`` — run the project lint rules from the shell.

Examples::

    storypivot-lint src/                     # CI gate: exit 1 on findings
    storypivot-lint src/ --format=json       # machine-readable findings
    storypivot-lint --list-rules             # rule catalogue
    storypivot-lint src/ --select SP4,SP6    # family prefixes work

Exit status: 0 when clean, 1 when any finding survives suppression and
selection (or the call-graph unresolved ratio exceeds
``--max-unresolved-ratio``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.engine import LintConfig, LintEngine
from repro.analysis.findings import render_report, summarize
from repro.analysis.rules import all_rules
from repro.nodecli import console_entry


def build_parser(prog: str = "storypivot-lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Project-aware static analysis for the StoryPivot tree.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="output format (default text)")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes or family "
                             "prefixes (SP4 selects SP401..) to run "
                             "exclusively")
    parser.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes/prefixes to skip")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="relativize reported paths against DIR "
                             "(default: current directory)")
    parser.add_argument("--callgraph-stats", action="store_true",
                        help="print call-graph resolution stats to stderr")
    parser.add_argument("--max-unresolved-ratio", type=float, default=None,
                        metavar="R",
                        help="fail (exit 1) when the fraction of "
                             "unresolved call sites exceeds R")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _split_codes(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    return [code.strip().upper() for code in text.split(",") if code.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = " [core paths only]" if rule.core_only else ""
            scope += " [interprocedural]" if getattr(
                rule, "project_only", False
            ) else ""
            print(f"{rule.code}  {rule.summary}{scope}")
        return 0

    if not args.paths:
        parser.exit(2, "error: give at least one path (or --list-rules)\n")

    try:
        config = LintConfig(
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")

    engine = LintEngine(config)
    findings, checked = engine.check_paths(args.paths, root=args.root)

    stats = engine.last_project.stats() if engine.last_project else {}
    if args.callgraph_stats and stats:
        print(json.dumps({"callgraph": stats}, sort_keys=True),
              file=sys.stderr)

    if args.format == "json":
        payload = {
            "findings": [f.to_dict() for f in findings],
            "summary": summarize(findings),
            "files_checked": checked,
            "clean": not findings,
        }
        if stats:
            payload["callgraph"] = stats
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_report(findings, checked_files=checked))

    failed = bool(findings)
    if args.max_unresolved_ratio is not None and stats:
        ratio = stats.get("unresolved_ratio", 0.0)
        if ratio > args.max_unresolved_ratio:
            print(
                f"call-graph unresolved ratio {ratio} exceeds budget "
                f"{args.max_unresolved_ratio} "
                f"({stats.get('unresolved')} of "
                f"{stats.get('call_sites')} call sites)",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


_console_entry = console_entry(main)


if __name__ == "__main__":
    raise SystemExit(main())
