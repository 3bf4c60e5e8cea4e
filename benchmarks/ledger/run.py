#!/usr/bin/env python3
"""The StoryPivot benchmark ledger: one command, four workloads.

    python3 benchmarks/ledger/run.py --workload batch_density --seed 1
    python3 benchmarks/ledger/run.py --workload live_visible --trace 1
    python3 benchmarks/ledger/run.py --all
    python3 benchmarks/ledger/run.py --check-repeat

A run is one untimed warm-up plus five timed repetitions; every timing
metric is computed per repetition and reported as the median over
repetitions.  The report names every metric with its unit; the last line
of standard output is the JSON object ``BENCHMARK.json``'s contract asks
for.  ``--trace 1`` is the separate traced run that fills the per-layer
table (README.md says how to read it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

#: repetitions of a run at the contract's ``run_seconds``
REPETITIONS = 5
#: the warm-up's sub-seed index, and the share of the input it runs
WARMUP_REPETITION = 999
WARMUP_FRACTION = 0.2
#: above this, two runs on this host cannot be ranked
NOISE_LIMIT = 0.10
#: per-layer counts that must repeat exactly for the same seed
EXACT_COUNTS = (
    "core.identify_comparisons", "core.align_pairs", "core.refine_moves",
)
CHILD_TIMEOUT = 175
STARTED = time.perf_counter()


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workloads() -> dict:
    import batch_density
    import live_visible
    import read_static
    import stream_volume

    return {
        module.NAME: module
        for module in (batch_density, stream_volume, live_visible, read_static)
    }


class SetupError(Exception):
    """A repetition could not be set up; there is no metric to report."""


def repetition(module, seed, rec, fraction=1.0):
    """(set-up seconds, outcome, layer metrics) of one repetition, state
    torn down.  Layer metrics are taken on the traced run only, from the
    repetition's end state."""
    from common import fresh_dir, remove_dir

    workdir = fresh_dir(module.NAME)
    try:
        gc.collect()
        started = time.perf_counter()
        try:
            ctx = module.setup(seed, workdir, fraction)
        except Exception as exc:
            raise SetupError(
                f"{module.NAME}: set-up failed: {type(exc).__name__}: {exc}"
            ) from exc
        setup_s = time.perf_counter() - started
        try:
            outcome = module.run(ctx, rec)
            module.verify(ctx, outcome)
            layer = (
                module.layer_metrics(ctx, outcome, rec, workdir)
                if rec.enabled else {}
            )
        finally:
            module.teardown(ctx)
    finally:
        remove_dir(workdir)
    return setup_s, outcome, layer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Report:
    """What one run of one workload has to say."""

    values: dict = field(default_factory=dict)     # metric name -> value
    host: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    lines: list = field(default_factory=list)      # the report's fine print

    def count(self, outcome, where: str) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += [f"{where}: {p}" for p in outcome.problems]


# -- the untraced run: end-to-end metrics -----------------------------------

def measure(module, seed: int, seconds: float, run_seconds: int) -> Report:
    from common import (
        MIN_LATENCY_SAMPLES, host_noise, percentile, quartiles, spin_ms,
    )
    from inputs import sub_seed
    from spans import NULL

    report = Report()
    spins = [spin_ms()]
    repetition(module, sub_seed(seed, WARMUP_REPETITION), NULL, WARMUP_FRACTION)
    count = max(1, round(REPETITIONS * seconds / run_seconds))
    per_rep = {name: [] for name in (
        "work_per_s", "latency_p50_ms", "latency_p95_ms",
        "pairwise_f1", "setup_s",
    )}
    notes = []
    for rep in range(count):
        setup_s, outcome, _ = repetition(module, sub_seed(seed, rep), NULL)
        per_rep["work_per_s"].append(outcome.work / outcome.wall_s)
        per_rep["latency_p50_ms"].append(percentile(outcome.latencies_ms, 50))
        per_rep["latency_p95_ms"].append(percentile(outcome.latencies_ms, 95))
        per_rep["pairwise_f1"].append(outcome.f1)
        per_rep["setup_s"].append(setup_s)
        report.count(outcome, f"repetition {rep}")
        if len(outcome.latencies_ms) < MIN_LATENCY_SAMPLES:
            notes.append(
                f"repetition {rep}: only {len(outcome.latencies_ms)} latency "
                f"samples, p95 has fewer than ten beyond it"
            )
        for key, value in sorted(outcome.extras.items()):
            notes.append(f"repetition {rep}: {key} = {value:.4f}")
        spins.append(spin_ms())
    report.host = host_noise(spins)

    report.values = {name: statistics.median(v) for name, v in per_rep.items()}
    report.values["peak_rss_mb"] = peak_rss_mb()
    report.values["ok_ratio"] = (
        (report.attempted - report.failed) / report.attempted
    )
    for name, samples in per_rep.items():
        q1, _, q3 = quartiles(samples)
        report.lines.append(
            f"  [{name}: q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples)}; per "
            f"repetition: {', '.join(f'{v:.6g}' for v in samples)}]"
        )
    report.lines += ["  [" + note + "]" for note in notes]
    return report


# -- the traced run: the per-layer table ------------------------------------

def trace(module, seed: int, trace_out: str) -> Report:
    """One traced repetition of *every* workload fills the layer table
    (it is the same table whichever workload was asked for); the asked
    workload also runs untraced once, for the harness's own overhead."""
    from common import host_noise, spin_ms
    from inputs import sub_seed
    from spans import NULL, Recorder, render_table, unexplained_ratio

    first = sub_seed(seed, 0)
    warm = sub_seed(seed, WARMUP_REPETITION)
    report = Report()
    spins = [spin_ms()]
    repetition(module, warm, NULL, WARMUP_FRACTION)
    _, plain, _ = repetition(module, first, NULL)
    sections = {}
    for name, other in workloads().items():
        rec = sections[name] = Recorder()
        if other is not module:
            repetition(other, warm, NULL, WARMUP_FRACTION)
        _, outcome, layer = repetition(other, first, rec)
        report.values.update(layer)
        report.count(outcome, name)
        if other is module:
            report.values["bench.trace_overhead_ratio"] = (
                outcome.wall_s / plain.wall_s
            )
            report.values["bench.unexplained_ratio"] = unexplained_ratio(rec.spans)
        spins.append(spin_ms())
    report.host = host_noise(spins)
    report.values.update(report.host)

    os.makedirs(os.path.dirname(os.path.abspath(trace_out)), exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": module.NAME, "seed": seed,
            "sections": {name: rec.spans for name, rec in sections.items()},
        }, handle)
        handle.write("\n")
    report.lines.append(f"  [spans written to {os.path.relpath(trace_out)}]")
    for name, rec in sections.items():
        report.lines.append(
            f"  -- {name}: where one traced repetition (and its probes) went"
        )
        report.lines += [
            "  " + line for line in render_table(rec.spans).splitlines()
        ]
    return report


# -- one workload, one process ------------------------------------------------

def pin_to_one_cpu() -> None:
    """Run the workload's process, threads and all, on a single core.

    The thread executor, the HTTP server and the load generator share
    one GIL, so a second core buys no parallelism; what it adds is GIL
    hand-offs across cores, which on a 2-vCPU VM cost 30-45% of the
    throughput and come and go between repetitions of identical work
    (voluntary context switches 5k -> 21k per repetition, work_per_s
    3.3k -> 1.7k on read_static).  The ledger therefore states
    single-core cost.  A change that adds real parallelism has to lift
    this pin in a benchmark change of its own first.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(args, spec) -> int:
    pin_to_one_cpu()
    module = workloads().get(args.workload)
    if module is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(w['name'] for w in spec['workloads'])}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            declared = spec["per_layer"]
            report = trace(module, args.seed, args.trace_out or os.path.join(
                HERE, ".work", f"trace-{module.NAME}.json"
            ))
        else:
            declared = spec["end_to_end"]
            report = measure(
                module, args.seed, args.seconds, spec["run_seconds"]
            )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    values = report.values
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        print(f"error: BENCHMARK.json and run.py disagree on the metrics: "
              f"{sorted(set(names) ^ set(values))}", file=sys.stderr)
        return 2
    units = {metric["name"]: metric["unit"] for metric in declared}
    kind = "traced, per layer" if args.trace else "end to end"
    print(f"== {module.NAME} (seed {args.seed}, {kind})")
    for name in names:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"host.spin_ms = {report.host['host.spin_ms']:.6g} ms")
        print(f"host.noise_ratio = {report.host['host.noise_ratio']:.6g} ratio")
    print("\n".join(report.lines))
    print(f"  [process wall {time.perf_counter() - STARTED:.1f} s]")
    noise = report.host["host.noise_ratio"]
    if noise > NOISE_LIMIT:
        print(f"  [unresolved: host.noise_ratio {noise:.3f} > {NOISE_LIMIT}; "
              f"do not rank this run against another]")
    for problem in report.problems:
        print(f"  [WRONG: {problem}]")
    print(json.dumps({
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in names
        },
    }))
    return 1 if report.problems else 0


# -- several workloads, one child process each --------------------------------

_METRIC_LINE = re.compile(r"^([\w.\-]+) = (\S+) (\S+)$")


def child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in its own process (its own ``peak_rss_mb``)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        match = _METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = float(match.group(2))
    result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    return {"code": done.returncode, "printed": printed, "result": result}


def run_all(args, spec) -> int:
    worst = 0
    for workload in (w["name"] for w in spec["workloads"]):
        worst = max(worst, child(
            workload, args.seed, args.seconds, bool(args.trace)
        )["code"])
    return worst


def check_repeat(args, spec) -> int:
    """Every workload twice: do two sets of runs of the same code agree
    within the benchmark's own bounds?"""
    verdicts = []
    failures = 0

    def compare(label, name, a, b, bound, noisy):
        nonlocal failures
        gap = abs(b - a) / abs(a) if a else abs(b - a)
        if gap <= bound:
            verdict = "agree"
        elif noisy:
            verdict = "unresolved (host noise above limit)"
        else:
            verdict = "DISAGREE"
            failures += 1
        verdicts.append(
            f"{label:<15}{name:<28}{a:>14.6g}{b:>14.6g}{gap:>9.4f}"
            f"{bound:>7.2f}  {verdict}"
        )

    def pair(workload, traced):
        nonlocal failures
        runs = [
            child(workload, args.seed, args.seconds, traced) for _ in range(2)
        ]
        if any(run["result"] is None or run["code"] != 0 for run in runs):
            failures += 1
            verdicts.append(f"{workload:<15}a run failed: exit codes "
                            f"{[run['code'] for run in runs]}")
            return None
        noisy = any(
            run["printed"].get("host.noise_ratio", 0.0) > NOISE_LIMIT
            for run in runs
        )
        first, second = (
            {n: m["value"] for n, m in run["result"]["metrics"].items()}
            for run in runs
        )
        return first, second, noisy

    exact = {"pairwise_f1", "ok_ratio"}
    for workload in (w["name"] for w in spec["workloads"]):
        got = pair(workload, traced=False)
        if got is None:
            continue
        first, second, noisy = got
        for metric in spec["end_to_end"]:
            name = metric["name"]
            compare(workload, name, first[name], second[name],
                    0.0 if name in exact else metric["bound"], noisy)
    # the layer table does not depend on the workload: one traced pair
    got = pair(spec["workloads"][0]["name"], traced=True)
    if got is not None:
        first, second, _ = got
        for name in EXACT_COUNTS:
            compare("(layer table)", name, first[name], second[name], 0.0, False)

    print("\n== check-repeat: two sets of runs of the same code")
    print(f"{'workload':<15}{'metric':<28}{'first':>14}{'second':>14}"
          f"{'gap':>9}{'bound':>7}")
    print("\n".join(verdicts))
    print("check-repeat:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", metavar="NAME")
    mode.add_argument("--all", action="store_true",
                      help="every workload, each in its own child process")
    mode.add_argument("--check-repeat", action="store_true",
                      help="every workload twice; non-zero unless the two "
                           "sets agree within the bounds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run: per-layer metrics")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="span file of a traced run (default: under "
                             "benchmarks/ledger/.work/)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    try:
        spec = contract()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.all:
        return run_all(args, spec)
    if args.check_repeat:
        return check_repeat(args, spec)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes decide set iteration order, and with it tie-breaks in
        # alignment: pin them so that the same seed is the same run
        os.execve(
            sys.executable, [sys.executable, os.path.abspath(__file__)]
            + (sys.argv[1:] if argv is None else list(argv)),
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    return run_workload(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
