"""``storypivot-top`` — live SLO burn-rate and fleet console.

Point it at any node::

    storypivot-top http://127.0.0.1:8321            # one shot
    storypivot-top http://127.0.0.1:8321 --watch 2  # refresh every 2 s

Each frame shows the node's ``/sloz`` burn-rate table and — when the
node is a leader running the fleet collector — the ``/clusterz`` rows,
so "is the fleet healthy and within budget" is one terminal instead of
N curls.  Exit status in ``--once`` mode mirrors the SLO status: 0 when
ok, 1 when warning, 2 when burning (scriptable as a smoke-test gate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, Optional, Sequence

from repro.nodecli import console_entry
from repro.obs.slo import render_slo_table

_EXIT_BY_STATUS = {"ok": 0, "no_data": 0, "warn": 1, "burning": 2}


def _fetch_json(url: str, timeout: float) -> Dict[str, object]:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def render_cluster_table(payload: Dict[str, object]) -> str:
    """Fixed-width /clusterz rows (the fleet half of the console)."""
    lines = [
        f"{'node':<28} {'role':<9} {'up':<4} {'gen':>7} {'lag s':>7} "
        f"{'subs':>5} {'dlq':>5} {'err%':>6}  detail"
    ]
    lines.append("-" * 88)
    for row in payload.get("nodes", []):
        if row.get("up"):
            breakers = ",".join(
                f"{name}={state}"
                for name, state in sorted(row.get("breakers", {}).items())
                if state  # closed breakers are the boring default
            )
            lines.append(
                f"{row.get('node', '?'):<28} {row.get('role', '?'):<9} "
                f"{'yes':<4} {row.get('generation', 0):>7} "
                f"{row.get('lag_seconds', 0.0):>7.2f} "
                f"{row.get('subscribers', 0):>5} "
                f"{row.get('dlq_records', 0):>5} "
                f"{row.get('error_rate', 0.0) * 100:>6.2f}  {breakers}"
            )
        else:
            lines.append(
                f"{row.get('node', '?'):<28} {row.get('role', '?'):<9} "
                f"{'NO':<4} {'-':>7} {'-':>7} {'-':>5} {'-':>5} {'-':>6}  "
                f"{row.get('error', 'down')}"
            )
    fleet = payload.get("fleet", {})
    lines.append(
        f"fleet: {fleet.get('live', 0)}/{fleet.get('nodes', 0)} up, "
        f"worst lag {fleet.get('worst_lag_seconds', 0.0):g}s, "
        f"{fleet.get('subscribers', 0)} subscriber(s), "
        f"{fleet.get('dlq_records', 0)} DLQ record(s)"
    )
    return "\n".join(lines)


def render_frame(base: str, timeout: float) -> "tuple[str, int]":
    """One console frame and its exit status for ``--once`` mode."""
    blocks = []
    status = 0
    try:
        slo = _fetch_json(f"{base}/sloz", timeout)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        return f"{base}: unreachable ({exc})", 2
    blocks.append(f"SLO burn rates — {base}/sloz")
    blocks.append(render_slo_table(slo))
    status = _EXIT_BY_STATUS.get(str(slo.get("status")), 2)
    try:
        cluster = _fetch_json(f"{base}/clusterz", timeout)
    except (urllib.error.URLError, OSError, ValueError):
        cluster = None  # not a leader (or no fleet collector): SLO only
    if cluster is not None and cluster.get("nodes"):
        blocks.append("")
        blocks.append(f"fleet — {base}/clusterz")
        blocks.append(render_cluster_table(cluster))
    return "\n".join(blocks), status


def build_parser(prog: str = "storypivot-top") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Live SLO burn-rate and fleet status console.",
    )
    parser.add_argument("url", metavar="URL",
                        help="base URL of any node, e.g. "
                             "http://127.0.0.1:8321")
    parser.add_argument("--watch", type=float, default=None, metavar="SEC",
                        help="refresh every SEC seconds until interrupted "
                             "(default: render once and exit)")
    parser.add_argument("--timeout", type=float, default=5.0, metavar="SEC",
                        help="per-request timeout (default 5s)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    base = args.url.rstrip("/")
    if args.watch is None:
        frame, status = render_frame(base, args.timeout)
        print(frame)
        return status
    interval = max(0.2, args.watch)
    try:
        while True:
            frame, _ = render_frame(base, args.timeout)
            # home + clear-to-end keeps the frame flicker-free; a full
            # clear would flash on slow terminals
            sys.stdout.write("\x1b[H\x1b[2J")
            sys.stdout.write(
                frame + f"\n\nrefreshing every {interval:g}s — "
                f"{time.strftime('%H:%M:%S')} (ctrl-c to quit)\n"
            )
            sys.stdout.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


_console_entry = console_entry(main)


if __name__ == "__main__":
    raise SystemExit(_console_entry())
