"""``storypivot-trace`` — pretty-print one stitched multi-node trace.

Feed it any mix of JSONL trace exports (the files a ``--wal-dir`` /
``--state-dir`` node writes, rotated generations included) and live
``/tracez`` URLs, plus a trace id::

    storypivot-trace state/traces.jsonl replica/traces.jsonl 3f2a9c...
    storypivot-trace http://127.0.0.1:8321/tracez 3f2a9c...

Every source contributes the spans *its* node exported for that trace;
the union renders as one parent/child tree with per-span node
attribution, wall and (same-thread) CPU timings, queue.wait stages, and
links out to related traces — replacing the jq-and-eyeball workflow the
JSONL export used to require.
"""

from __future__ import annotations

import argparse
import json
import os
import urllib.request
from typing import Dict, List, Optional, Sequence

from repro.nodecli import console_entry
from repro.recordlog import RecordLog


def _load_source(source: str) -> List[dict]:
    """Finalized trace dicts from one export file or /tracez URL."""
    if source.startswith(("http://", "https://")):
        url = source if "/tracez" in source else source.rstrip("/") + "/tracez"
        with urllib.request.urlopen(url, timeout=10.0) as response:
            payload = json.loads(response.read().decode("utf-8"))
        recent = payload.get("recent", [])
        return [t for t in recent if isinstance(t, dict)]
    os.stat(source)  # a missing file is an error, not an empty export
    return list(RecordLog(source).read())  # a live export may end in a torn line


def gather_spans(sources: Sequence[str], trace_id: str) -> List[dict]:
    """Union of this trace's spans across every source, deduplicated."""
    spans: Dict[str, dict] = {}
    for source in sources:
        for trace in _load_source(source):
            if trace.get("trace_id") != trace_id:
                continue
            for span in trace.get("spans", []):
                span_id = span.get("span_id")
                if span_id and span_id not in spans:
                    spans[span_id] = span
    return sorted(
        spans.values(),
        key=lambda s: (s.get("started_at") or 0.0, s.get("span_id") or ""),
    )


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1000.0:.2f}ms"


def _span_line(span: dict) -> str:
    parts = [span.get("name", "?")]
    node = span.get("node")
    if node:
        parts.append(f"[{node}]")
    parts.append(f"wall={_fmt_seconds(span.get('duration'))}")
    if span.get("cpu_time") is not None:
        parts.append(f"cpu={_fmt_seconds(span.get('cpu_time'))}")
    attrs = span.get("attrs") or {}
    interesting = {
        key: value for key, value in sorted(attrs.items())
        if key != "links"
    }
    if interesting:
        parts.append(
            " ".join(f"{key}={value}" for key, value in interesting.items())
        )
    if attrs.get("links"):
        parts.append(f"links={','.join(attrs['links'])}")
    if span.get("remote"):
        parts.append("(remote parent)")
    if span.get("error"):
        parts.append(f"ERROR: {span['error']}")
    return "  ".join(parts)


def render_tree(spans: List[dict], trace_id: str) -> str:
    """The stitched tree: indentation is parentage, order is start time.

    A span whose parent is absent from the union (the parent ran on a
    node whose export was not given, or was never exported) renders at
    the top level — the tree degrades to a forest, never errors.
    """
    if not spans:
        return f"no spans found for trace {trace_id}"
    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
    children: Dict[Optional[str], List[dict]] = {}
    roots: List[dict] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    nodes = sorted({s["node"] for s in spans if s.get("node")})
    lines = [
        f"trace {trace_id}: {len(spans)} span(s)"
        + (f" across {len(nodes)} node(s): {', '.join(nodes)}" if nodes else "")
    ]
    for event in _trace_events(spans):
        lines.append(f"  · {event}")

    def walk(span: dict, depth: int) -> None:
        lines.append("  " * depth + ("└─ " if depth else "") + _span_line(span))
        for child in children.get(span.get("span_id"), []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def _trace_events(spans: List[dict]) -> List[str]:
    out = []
    for span in spans:
        for event in span.get("events", []) or []:
            extras = {
                key: value for key, value in event.items()
                if key not in ("ts", "name")
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
            out.append(
                f"{event.get('name', '?')} on {span.get('name', '?')}"
                + (f" ({detail})" if detail else "")
            )
    return out


def build_parser(prog: str = "storypivot-trace") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Render one trace as a stitched multi-node span tree.",
    )
    parser.add_argument("sources", nargs="+", metavar="FILE_OR_URL",
                        help="JSONL trace export file(s) and/or /tracez "
                             "URL(s); give every node's export to stitch "
                             "a cross-node trace")
    parser.add_argument("trace_id", metavar="TRACE_ID",
                        help="16-hex trace id (from X-Trace-Id or /tracez)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spans = gather_spans(args.sources, args.trace_id)
    except OSError as exc:
        parser.exit(2, f"error: {exc}\n")
    print(render_tree(spans, args.trace_id))
    return 0 if spans else 1


_console_entry = console_entry(main)


if __name__ == "__main__":
    raise SystemExit(_console_entry())
