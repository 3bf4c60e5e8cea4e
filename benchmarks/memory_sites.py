"""Where ``stream_volume``'s memory goes: the top ``src/`` allocation sites.

Runs one ``stream_volume`` repetition of the ledger (its first sub-seed,
at ``--fraction`` of the input) under ``tracemalloc`` with one frame, and
takes the snapshot at ``verify``'s peak: the sharded runtime's merged
pivot and the single-threaded oracle both alive.  Prints the largest
sites under ``src/`` and the total traced.  Stdlib only::

    python3 benchmarks/memory_sites.py [--seed 1001] [--fraction 1.0] [--top 8]
"""

from __future__ import annotations

import argparse
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks", "ledger")]

import stream_volume  # noqa: E402
from common import fresh_dir, remove_dir  # noqa: E402
from inputs import sub_seed  # noqa: E402
from spans import NULL  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--fraction", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=8)
    args = parser.parse_args()
    snapshots = []
    scores = stream_volume.pairwise_scores

    def at_peak(*call):  # verify scores F once both copies of the state exist
        if not snapshots:
            snapshots.append(tracemalloc.take_snapshot())
        return scores(*call)

    stream_volume.pairwise_scores = at_peak
    workdir = fresh_dir(stream_volume.NAME)
    tracemalloc.start(1)
    try:
        ctx = stream_volume.setup(sub_seed(args.seed, 0), workdir, args.fraction)
        try:
            stream_volume.verify(ctx, outcome := stream_volume.run(ctx, NULL))
        finally:
            stream_volume.teardown(ctx)
    finally:
        tracemalloc.stop()
        remove_dir(workdir)
    stats = snapshots[0].statistics("lineno")
    src = os.path.join(ROOT, "src", "repro") + os.sep
    print(f"stream_volume seed {sub_seed(args.seed, 0)}, {ctx.unique:,} snippets,"
          f" correct: {not outcome.problems}")
    for stat in [s for s in stats if s.traceback[0].filename.startswith(src)][:args.top]:
        frame = stat.traceback[0]
        print(f"{stat.size / 1e6:7.2f} MB {stat.count:8,} blocks  "
              f"{os.path.relpath(frame.filename, src)}:{frame.lineno}")
    print(f"{sum(s.size for s in stats) / 1e6:7.2f} MB traced in all")
    sys.exit(1 if outcome.problems else 0)


if __name__ == "__main__":
    main()
