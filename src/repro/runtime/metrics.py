"""In-process metrics: counters, gauges, histograms with percentiles.

The runtime instruments its hot paths (offer latency, queue depth, dedup
hits, realignment duration, checkpoint bytes) through a
:class:`MetricsRegistry`.  Everything is dependency-free and thread-safe:
shard workers, the view refresher and the supervisor all record
concurrently.

Histograms keep exact ``count``/``sum``/``min``/``max`` plus a bounded
ring of the most recent observations from which p50/p95/p99 are computed —
recency-biased quantiles, which is what an operator watching a live
ingest wants, at O(1) memory.

The registry snapshot is plain JSON (``to_json``) for machine consumers,
a fixed-width table (``render``) for the ``serve --stats`` CLI view, and
Prometheus text exposition (``prometheus_render``) for scrapers.

Metrics may carry labels: ``registry.counter("queue.depth", shard=3)``
stores under the canonical key ``queue.depth{shard=3}`` — one key per
label set, so snapshots stay a flat dict, but renderers can split the
key back apart (``split_metric_key``) and group children into a single
Prometheus family.
"""

from __future__ import annotations

import json
import threading
import time
import re
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def labeled_name(name: str, labels: Dict[str, object]) -> str:
    """Canonical storage key for a metric child: ``name{k=v,...}``.

    Label keys are sorted so the same label set always maps to the same
    child regardless of call-site keyword order.
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`labeled_name`: ``"q{shard=3}"`` -> ``("q", {"shard": "3"})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in inner.split(","):
        if "=" in part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self._value}


class Gauge:
    """A value that goes up and down (queue depth, live shards)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self._value}


class Histogram:
    """Streaming distribution with recency-window percentiles."""

    kind = "histogram"

    def __init__(self, max_samples: int = 4096) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._lock = threading.Lock()
        self._samples: deque = deque(maxlen=max_samples)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            self._samples.append(value)
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def percentile(self, q: float) -> Optional[float]:
        """Linearly interpolated percentile over the retained window."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return None  # empty histogram: no quantile, not a crash
        if len(ordered) == 1:
            return ordered[0]  # p99 of one observation IS that observation
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def reset(self) -> None:
        """Drop all state (test isolation between scenario phases)."""
        with self._lock:
            self._samples.clear()
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class _Timer:
    """Context manager feeding elapsed seconds into a histogram."""

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._started
        self._histogram.observe(self.elapsed)


class MetricsRegistry:
    """Named metric store; get-or-create, kind-checked, JSON-exportable."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, factory: Callable[[], object]):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        key = labeled_name(name, labels)
        metric = self._get_or_create(key, Counter)
        if not isinstance(metric, Counter):
            raise TypeError(f"{key!r} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = labeled_name(name, labels)
        metric = self._get_or_create(key, Gauge)
        if not isinstance(metric, Gauge):
            raise TypeError(f"{key!r} is a {metric.kind}, not a gauge")
        return metric

    def histogram(self, name: str, max_samples: int = 4096, **labels) -> Histogram:
        key = labeled_name(name, labels)
        metric = self._get_or_create(key, lambda: Histogram(max_samples))
        if not isinstance(metric, Histogram):
            raise TypeError(f"{key!r} is a {metric.kind}, not a histogram")
        return metric

    def timer(self, name: str, **labels) -> _Timer:
        return _Timer(self.histogram(name, **labels))

    def remove(self, name: str, **labels) -> bool:
        """Drop one metric (e.g. a per-subscriber gauge whose subject is
        gone); returns whether it existed.  Without this, short-lived
        label values — subscription ids, connection ids — would leak
        dead children into every subsequent scrape."""
        key = labeled_name(name, labels)
        with self._lock:
            return self._metrics.pop(key, None) is not None

    def children(self, name: str) -> Dict[str, object]:
        """All children of a labeled family, keyed by their label dicts.

        Returns ``{canonical_key: metric}`` for every metric whose base
        name is ``name`` (including the unlabeled parent, if any).
        """
        with self._lock:
            items = list(self._metrics.items())
        return {
            key: metric
            for key, metric in items
            if split_metric_key(key)[0] == name
        }

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in items}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Fixed-width table of every metric — the ``--stats`` view."""
        return render_table(self.snapshot())


def render_table(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Fixed-width text table of a registry snapshot.

    The single registry-to-text formatter: ``storypivot-serve --stats``
    and the API server's ``/metricz`` text view both render through it.
    """

    def fmt(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    lines = [f"{'metric':<40} {'type':<10} value"]
    lines.append("-" * 72)
    for name, snap in sorted(snapshot.items()):
        kind = snap["type"]
        if kind == "histogram":
            detail = (
                f"n={fmt(snap['count'])} mean={fmt(snap['mean'])} "
                f"p50={fmt(snap['p50'])} p95={fmt(snap['p95'])} "
                f"p99={fmt(snap['p99'])} max={fmt(snap['max'])}"
            )
        else:
            detail = fmt(snap["value"])
        lines.append(f"{name:<40} {kind:<10} {detail}")
    return "\n".join(lines)


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


# sp-taint: sanitizer -- collapses anything outside [a-zA-Z0-9_:]
def _prom_name(name: str) -> str:
    sanitized = _PROM_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: object) -> str:
    if value is None:
        return "NaN"
    return f"{float(value):.10g}"


# sp-taint: sanitizer -- label values cannot break out of their quotes
def _prom_escape(value: object) -> str:
    # exposition-format label escaping: backslash first, then quote and
    # newline — a literal newline in a label value would split the sample
    # line and corrupt the whole scrape
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_PROM_INVALID.sub("_", key)}="{_prom_escape(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def prometheus_render(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Prometheus text exposition (format version 0.0.4) of a snapshot.

    Counters and gauges map directly; histograms are exposed as
    summaries (quantile children + ``_sum``/``_count``), which is the
    honest encoding of our recency-window percentiles — we do not have
    cumulative buckets to offer.  Labeled children collapse into one
    family per base name so scrapers see a single ``# TYPE`` line.
    """
    families: Dict[str, List[Tuple[Dict[str, str], Dict[str, object]]]] = {}
    kinds: Dict[str, str] = {}
    for key, snap in sorted(snapshot.items()):
        base, labels = split_metric_key(key)
        name = _prom_name(base)
        families.setdefault(name, []).append((labels, snap))
        kinds[name] = snap["type"]

    lines: List[str] = []
    for name in sorted(families):
        kind = kinds[name]
        if kind == "histogram":
            lines.append(f"# TYPE {name} summary")
            for labels, snap in families[name]:
                for q, field in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                    quantiled = dict(labels, quantile=str(q))
                    lines.append(
                        f"{name}{_prom_labels(quantiled)} "
                        f"{_prom_value(snap.get(field))}"
                    )
                lines.append(
                    f"{name}_sum{_prom_labels(labels)} {_prom_value(snap.get('sum'))}"
                )
                lines.append(
                    f"{name}_count{_prom_labels(labels)} "
                    f"{_prom_value(snap.get('count'))}"
                )
        else:
            prom_kind = "counter" if kind == "counter" else "gauge"
            lines.append(f"# TYPE {name} {prom_kind}")
            for labels, snap in families[name]:
                lines.append(
                    f"{name}{_prom_labels(labels)} {_prom_value(snap.get('value'))}"
                )
    return "\n".join(lines) + "\n"
