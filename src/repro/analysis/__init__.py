"""`repro.analysis`: project-aware static analysis + dynamic race detection.

Two complementary halves:

* :mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` — the
  ``storypivot-lint`` AST engine: per-module rules (deterministic core
  paths, no blocking under locks, errors recorded not swallowed,
  spans/deadlines context-managed, canonical metric names) and, over
  the project call graph, untrusted-input taint (SP4xx), blocking
  reachable under a lock (SP201) and resource lifecycle (SP6xx).  The
  gate is zero findings: a finding is fixed or suppressed at its line.
* :mod:`repro.analysis.lockwatch` — an opt-in dynamic detector that
  wraps the runtime's locks, records the per-thread acquisition graph,
  and reports lock-order inversions (potential deadlocks), long holds,
  and blocking calls made while locked.  Exposed as the pytest
  ``--lockwatch`` flag and ``storypivot-serve --lockwatch``.
"""

from repro.analysis.callgraph import Project
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.engine import LintConfig, LintEngine, iter_python_files
from repro.analysis.findings import Finding, render_report, summarize
from repro.analysis.lockwatch import InstrumentedLock, LockWatch
from repro.analysis.rules import CORE_MARKERS, REGISTRY, all_rules

__all__ = [
    "LintConfig",
    "LintEngine",
    "iter_python_files",
    "Project",
    "CFG",
    "build_cfg",
    "Finding",
    "render_report",
    "summarize",
    "InstrumentedLock",
    "LockWatch",
    "CORE_MARKERS",
    "REGISTRY",
    "all_rules",
]
