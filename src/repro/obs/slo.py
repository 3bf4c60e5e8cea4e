"""Declarative SLOs with multi-window burn-rate evaluation.

Raw gauges answer "what is the p95 right now"; operators need "are we
spending our error budget faster than we can afford".  This module turns
the existing :class:`~repro.runtime.metrics.MetricsRegistry` into that
answer, stdlib-only, with an injected clock so every state transition is
testable without sleeping.

The model (Google SRE workbook shape, scaled to our fleet):

* An **objective** states a target fraction of *good* events — e.g.
  "99.9% of reads succeed", "95% of evaluation instants see read p95
  under 500 ms".  Everything reduces to cumulative ``(bad, total)``
  counts: ratio objectives read two counters, threshold objectives count
  each evaluation instant as one event that is bad when the watched
  value exceeds its limit.
* The **budget** is ``1 - target``.  The **burn rate** over a window is
  ``error_rate / budget`` — burn 1.0 spends the budget exactly on
  schedule, burn 14.4 exhausts a 30-day budget in ~2 days.
* **Two windows, both must agree.**  The fast window (5 m) makes alerts
  quick to fire *and quick to resolve*; the slow window (1 h) keeps a
  short blip from paging.  ``burning`` requires both above the page
  threshold; a fast-only breach is a ``warn``.

The engine samples cumulative counts on a cadence (its own ticker
thread, or explicit :meth:`SLOEngine.observe` calls under an injected
clock) and keeps only the bounded sample ring the slow window needs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.loop import Loop

#: multi-window defaults: 5-minute fast window, 1-hour slow window
FAST_WINDOW_SECONDS = 300.0
SLOW_WINDOW_SECONDS = 3600.0

#: burn-rate thresholds: page when both windows exceed ``PAGE_BURN``,
#: warn when either exceeds ``WARN_BURN``
PAGE_BURN = 14.4
WARN_BURN = 3.0


class Objective:
    """Base contract: a name, a target, and cumulative (bad, total).

    ``sample()`` returns the cumulative counts *so far* — monotone
    non-decreasing, like Prometheus counters — or ``None`` when the
    objective has nothing to say yet (its metric does not exist on this
    node).  The engine differences consecutive samples per window.
    """

    kind = "objective"

    def __init__(self, name: str, description: str, target: float) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError("target must be strictly between 0 and 1")
        self.name = name
        self.description = description
        self.target = target

    @property
    def budget(self) -> float:
        return 1.0 - self.target

    def sample(self) -> Optional[Tuple[float, float]]:  # pragma: no cover
        raise NotImplementedError

    def detail(self) -> Dict[str, object]:
        """Objective-specific fields merged into the /sloz entry."""
        return {}


class RatioObjective(Objective):
    """Good-events ratio read from two cumulative counters.

    ``bad``/``total`` are zero-argument callables returning the
    cumulative counts (e.g. 5xx responses / all responses).
    """

    kind = "ratio"

    def __init__(
        self,
        name: str,
        description: str,
        target: float,
        bad: Callable[[], float],
        total: Callable[[], float],
    ) -> None:
        super().__init__(name, description, target)
        self._bad = bad
        self._total = total

    def sample(self) -> Optional[Tuple[float, float]]:
        return float(self._bad()), float(self._total())


class ThresholdObjective(Objective):
    """A watched value that should stay within a limit.

    Each engine observation is one event; the event is *bad* when
    ``value()`` exceeds ``limit``.  A ``None`` value (metric absent,
    histogram empty) contributes no event at all — absence of data is
    ``no_data``, never a breach.
    """

    kind = "threshold"

    def __init__(
        self,
        name: str,
        description: str,
        target: float,
        value: Callable[[], Optional[float]],
        limit: float,
        unit: str = "s",
    ) -> None:
        super().__init__(name, description, target)
        self._value = value
        self.limit = limit
        self.unit = unit
        self._observations = 0
        self._breaches = 0
        self.current: Optional[float] = None

    def sample(self) -> Optional[Tuple[float, float]]:
        try:
            value = self._value()
        except Exception:  # sp-lint: disable=SP104 -- a broken metric source reads as "no data", never as an alert
            value = None
        self.current = value
        if value is not None:
            self._observations += 1
            if value > self.limit:
                self._breaches += 1
        if self._observations == 0:
            return None
        return float(self._breaches), float(self._observations)

    def detail(self) -> Dict[str, object]:
        return {
            "limit": self.limit,
            "unit": self.unit,
            "current": self.current,
        }


def _window_rates(
    samples: Sequence[Tuple[float, Dict[str, Tuple[float, float]]]],
    name: str,
    now: float,
    window: float,
) -> Optional[Tuple[float, float]]:
    """``(error_rate, burn_seconds)`` for one objective over one window.

    The baseline is the newest sample at or before the window start —
    or the oldest sample carrying this objective when history is still
    shorter than the window (the honest reading: the window covers all
    of history).  Returns None when fewer than two samples carry the
    objective or no events happened in the window.
    """
    cutoff = now - window
    baseline = None
    latest = None
    for ts, counts in samples:
        if name not in counts:
            continue
        if latest is None or ts >= latest[0]:
            latest = (ts, counts[name])
        if ts <= cutoff and (baseline is None or ts > baseline[0]):
            baseline = (ts, counts[name])
        if baseline is None:
            baseline = (ts, counts[name])  # oldest in-window fallback
    if baseline is None or latest is None or latest[0] <= baseline[0]:
        return None
    delta_bad = latest[1][0] - baseline[1][0]
    delta_total = latest[1][1] - baseline[1][1]
    if delta_total <= 0:
        return None
    return max(0.0, delta_bad) / delta_total, latest[0] - baseline[0]


class SLOEngine:
    """Sample objectives over time; answer "is the budget burning?".

    Thread-safe.  ``clock`` is injectable (tests advance it by hand);
    the production cadence comes from :meth:`start`'s daemon ticker or
    from the serving layer calling :meth:`observe` opportunistically —
    observations closer together than ``min_interval`` are coalesced so
    a /sloz polling storm cannot skew threshold-objective event counts.
    """

    def __init__(
        self,
        objectives: Sequence[Objective] = (),
        clock: Callable[[], float] = time.time,
        fast_window: float = FAST_WINDOW_SECONDS,
        slow_window: float = SLOW_WINDOW_SECONDS,
        page_burn: float = PAGE_BURN,
        warn_burn: float = WARN_BURN,
        min_interval: float = 1.0,
    ) -> None:
        if fast_window <= 0 or slow_window < fast_window:
            raise ValueError("need 0 < fast_window <= slow_window")
        self.clock = clock
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.page_burn = page_burn
        self.warn_burn = warn_burn
        self.min_interval = min_interval
        self._objectives: List[Objective] = list(objectives)
        self._lock = threading.Lock()
        # (ts, {objective: (bad, total)}) — bounded by the slow window
        # plus one pre-window baseline sample per prune pass
        self._samples: deque = deque()
        self._last_observed: Optional[float] = None
        self._tick_interval = 5.0
        self._ticker = Loop("storypivot-slo", step=self._tick)

    # -- configuration -----------------------------------------------------

    def add(self, objective: Objective) -> "SLOEngine":
        with self._lock:
            if any(o.name == objective.name for o in self._objectives):
                raise ValueError(f"duplicate objective {objective.name!r}")
            self._objectives.append(objective)
        return self

    @property
    def objectives(self) -> List[Objective]:
        with self._lock:
            return list(self._objectives)

    # -- sampling ----------------------------------------------------------

    def observe(self, force: bool = False) -> bool:
        """Record one cumulative sample; returns whether one was taken.

        Coalesced below ``min_interval`` unless ``force`` (the ticker
        forces; opportunistic request-path calls do not).
        """
        now = self.clock()
        with self._lock:
            if (
                not force
                and self._last_observed is not None
                and now - self._last_observed < self.min_interval
            ):
                return False
            counts: Dict[str, Tuple[float, float]] = {}
            for objective in self._objectives:
                try:
                    sampled = objective.sample()
                except Exception:  # sp-lint: disable=SP104 -- one broken objective must not stop the whole ticker
                    sampled = None
                if sampled is not None:
                    counts[objective.name] = sampled
            self._samples.append((now, counts))
            self._last_observed = now
            self._prune_locked(now)
            return True

    def _prune_locked(self, now: float) -> None:
        cutoff = now - self.slow_window
        # keep exactly one sample at/before the cutoff as the slow
        # window's baseline; everything older is unreachable
        while (
            len(self._samples) >= 2
            and self._samples[0][0] <= cutoff
            and self._samples[1][0] <= cutoff
        ):
            self._samples.popleft()

    # -- evaluation --------------------------------------------------------

    def evaluate(self) -> Dict[str, object]:
        """The /sloz payload: per-objective windows, burn rates, state."""
        now = self.clock()
        with self._lock:
            samples = list(self._samples)
            objectives = list(self._objectives)
        entries = []
        worst = "ok"
        rank = {"ok": 0, "no_data": 1, "warn": 2, "burning": 3}
        for objective in objectives:
            entry = self._evaluate_one(objective, samples, now)
            entries.append(entry)
            if rank[entry["state"]] > rank[worst]:
                worst = entry["state"]
        return {
            "status": worst,
            "evaluated_at": round(now, 3),
            "samples": len(samples),
            "windows": {
                "fast_seconds": self.fast_window,
                "slow_seconds": self.slow_window,
                "page_burn": self.page_burn,
                "warn_burn": self.warn_burn,
            },
            "objectives": entries,
        }

    def _evaluate_one(
        self, objective: Objective, samples, now: float
    ) -> Dict[str, object]:
        windows = {}
        burns = {}
        for label, span in (
            ("fast", self.fast_window), ("slow", self.slow_window)
        ):
            rates = _window_rates(samples, objective.name, now, span)
            if rates is None:
                windows[label] = {
                    "seconds": span, "error_rate": None, "burn_rate": None,
                }
                burns[label] = None
                continue
            error_rate, covered = rates
            if objective.budget > 0:
                burn = error_rate / objective.budget
            else:  # pragma: no cover - targets are < 1.0 by contract
                burn = float("inf") if error_rate else 0.0
            windows[label] = {
                "seconds": span,
                "covered_seconds": round(covered, 3),
                "error_rate": round(error_rate, 6),
                "burn_rate": round(burn, 3),
            }
            burns[label] = burn
        if burns["fast"] is None or burns["slow"] is None:
            state = "no_data"
            budget_remaining = None
        elif (
            burns["fast"] >= self.page_burn
            and burns["slow"] >= self.page_burn
        ):
            state = "burning"
            budget_remaining = max(0.0, 1.0 - burns["slow"])
        elif (
            burns["fast"] >= self.warn_burn
            or burns["slow"] >= self.warn_burn
        ):
            state = "warn"
            budget_remaining = max(0.0, 1.0 - burns["slow"])
        else:
            state = "ok"
            budget_remaining = max(0.0, 1.0 - burns["slow"])
        entry = {
            "name": objective.name,
            "description": objective.description,
            "kind": objective.kind,
            "target": objective.target,
            "budget": round(objective.budget, 6),
            "state": state,
            "budget_remaining": (
                round(budget_remaining, 4)
                if budget_remaining is not None else None
            ),
            "windows": windows,
        }
        entry.update(objective.detail())
        return entry

    def health(self) -> Dict[str, object]:
        """The SLO component for /healthz: degraded while burning."""
        payload = self.evaluate()
        burning = [
            entry["name"] for entry in payload["objectives"]
            if entry["state"] == "burning"
        ]
        warning = [
            entry["name"] for entry in payload["objectives"]
            if entry["state"] == "warn"
        ]
        return {
            "status": "degraded" if burning else "ok",
            "burning": burning,
            "warning": warning,
            "objectives": len(payload["objectives"]),
        }

    # -- ticker ------------------------------------------------------------

    def start(self, interval: float = 5.0) -> "SLOEngine":
        """Call :meth:`observe` every ``interval`` seconds until stopped."""
        self._tick_interval = self._ticker.first_delay = interval
        self._ticker.start()
        return self

    def _tick(self) -> float:
        self.observe(force=True)
        return self._tick_interval

    def stop(self) -> None:
        self._ticker.stop()


# -- the fleet's default objective set ----------------------------------


def _counter_sum(metrics, prefix: str) -> float:
    total = 0.0
    for name in metrics.names():
        if name.startswith(prefix):
            total += metrics.counter(name).value
    return total


def _histogram_p95(metrics, name: str, **labels) -> Optional[float]:
    return metrics.histogram(name, **labels).percentile(95)


def default_objectives(
    metrics,
    refresher=None,
    runtime=None,
    availability_target: float = 0.99,
    latency_limit: float = 0.5,
    latency_target: float = 0.95,
    staleness_limit: Optional[float] = None,
    staleness_target: float = 0.95,
    fanout_limit: float = 0.05,
    fanout_target: float = 0.95,
) -> List[Objective]:
    """The objective set a serving node watches out of the box.

    Which objectives apply depends on what the node runs: every node
    gets read availability and latency; nodes with a refresher get the
    staleness budget (followers fold replication lag in, exactly like
    the ``X-StoryPivot-Stale-Seconds`` header); nodes with a push bus
    get fan-out latency; leader runtimes get the ingest accounting
    invariant (monotone violations only — in-flight snippets are not
    errors).
    """
    objectives: List[Objective] = [
        RatioObjective(
            "read-availability",
            "non-5xx fraction of HTTP responses",
            availability_target,
            bad=lambda: _counter_sum(metrics, "http.status.5"),
            total=lambda: float(metrics.counter("http.requests").value),
        ),
        ThresholdObjective(
            "read-latency-p95",
            f"HTTP p95 latency stays under {latency_limit * 1000:.0f} ms",
            latency_target,
            value=lambda: _histogram_p95(metrics, "http.latency_seconds"),
            limit=latency_limit,
        ),
    ]
    if refresher is not None:
        limit = staleness_limit
        if limit is None:
            budget = getattr(refresher, "lag_budget", None)
            limit = budget if budget is not None else 30.0

        def staleness() -> Optional[float]:
            stale = refresher.staleness()
            lag = getattr(runtime, "lag_seconds", None)
            if callable(lag):
                stale += lag()
            return stale

        objectives.append(ThresholdObjective(
            "staleness",
            f"view age (plus replication lag) stays under {limit:g} s",
            staleness_target,
            value=staleness,
            limit=limit,
        ))
    objectives.append(ThresholdObjective(
        "push-fanout-p95",
        f"push fan-out p95 stays under {fanout_limit * 1000:.0f} ms",
        fanout_target,
        value=lambda: _histogram_p95(metrics, "push.fanout_seconds"),
        limit=fanout_limit,
    ))
    stats = getattr(runtime, "stats", None)
    if callable(stats):
        def accounting_violation() -> Optional[float]:
            try:
                counts = stats()
            except Exception:  # sp-lint: disable=SP104 -- a runtime mid-shutdown reads as "no data"
                return None
            if "arrived" not in counts:
                return None  # follower runtimes account differently
            accounted = (
                counts.get("accepted", 0) + counts.get("duplicates", 0)
                + counts.get("dropped", 0) + counts.get("quarantined", 0)
                + counts.get("rejected", 0)
            )
            total_arrived = counts["arrived"] + counts.get("rejected", 0)
            # accounted < arrived is in-flight work, never an error;
            # accounted > arrived means double counting — a violation
            return float(max(0, accounted - total_arrived))

        objectives.append(ThresholdObjective(
            "ingest-accounting",
            "accounting invariant: no snippet counted twice",
            0.999,
            value=accounting_violation,
            limit=0.0,
            unit="records",
        ))
    return objectives


def render_slo_table(payload: Dict[str, object]) -> str:
    """Fixed-width /sloz table: the ``/sloz?format=text`` body."""
    lines = [
        f"{'objective':<20} {'state':<8} {'target':>7} {'fast burn':>10} "
        f"{'slow burn':>10} {'budget left':>12}  detail"
    ]
    lines.append("-" * 88)

    def fmt(value, pattern="{:.2f}") -> str:
        return "-" if value is None else pattern.format(value)

    for entry in payload.get("objectives", []):
        fast = entry["windows"]["fast"].get("burn_rate")
        slow = entry["windows"]["slow"].get("burn_rate")
        detail = ""
        if entry.get("limit") is not None:
            detail = (
                f"{fmt(entry.get('current'), '{:.4g}')}"
                f"/{entry['limit']:g}{entry.get('unit', '')}"
            )
        lines.append(
            f"{entry['name']:<20} {entry['state']:<8} "
            f"{entry['target']:>7.3f} {fmt(fast):>10} {fmt(slow):>10} "
            f"{fmt(entry.get('budget_remaining'), '{:.1%}'):>12}  {detail}"
        )
    lines.append(
        f"status: {payload.get('status', '?')} "
        f"({payload.get('samples', 0)} samples)"
    )
    return "\n".join(lines)
