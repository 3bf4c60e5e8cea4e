"""What every workload shares: the outcome record, percentile maths,
the host-calibration kernel and the scratch directory."""

from __future__ import annotations

import http.client
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space inside the checkout (WALs, wire files, span dumps)
WORK = os.path.join(HERE, ".work")

#: a repetition's p95 needs this many samples to have ten beyond it
MIN_LATENCY_SAMPLES = 200


@dataclass
class Outcome:
    """One repetition of one workload, as measured."""

    work: int                      # units of work done in the timed section
    wall_s: float                  # wall time of the timed section
    latencies_ms: List[float]      # one per operation of the workload
    attempted: int = 0
    failed: int = 0
    f1: float = 0.0
    #: reasons the outputs are wrong (each is also counted in ``failed``)
    problems: List[str] = field(default_factory=list)
    #: workload-specific numbers the layer table reads
    extras: Dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, reason: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{reason} ({count})")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) the way the driver computes spread."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# -- host calibration ----------------------------------------------------------

SPIN_ITERATIONS = 100_000
SPIN_SAMPLES = 24
#: untimed spins first: a core that just slept clocks up over a few ms
SPIN_WARMUP = 8


def _spin() -> int:
    x = 0
    for i in range(SPIN_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return x


def spin_ms() -> float:
    """Median time of a fixed pure-Python kernel: what this host does
    with a known amount of work right now."""
    for _ in range(SPIN_WARMUP):
        _spin()
    samples = []
    for _ in range(SPIN_SAMPLES):
        started = time.perf_counter()
        _spin()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def host_noise(spins: Sequence[float]) -> Dict[str, float]:
    """``host.spin_ms`` and ``host.noise_ratio`` of one workload run.

    ``spins`` are kernel times taken before the run and after each
    repetition.  The noise ratio is their quartile spread, the same
    statistic the metrics are judged by: a host whose speed wandered
    that much while the repetitions ran cannot rank two sets of them.
    """
    return {
        "host.spin_ms": statistics.median(spins),
        "host.noise_ratio": relative_spread(spins),
    }


# -- scratch directories ------------------------------------------------------

def fresh_dir(prefix: str) -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=WORK)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- the HTTP client both serving workloads use ----------------------------------

def connect(api) -> http.client.HTTPConnection:
    """A keep-alive connection to a started ``StoryPivotAPI``."""
    return http.client.HTTPConnection("127.0.0.1", api.port, timeout=30)


def fetch(connection, path: str, etag: str = "") -> Tuple[int, bytes, str]:
    """(status, body, ETag) of one GET; ``etag`` makes it conditional."""
    headers = {"If-None-Match": etag} if etag else {}
    connection.request("GET", path, headers=headers)
    response = connection.getresponse()
    body = response.read()
    return response.status, body, response.getheader("ETag", "")
