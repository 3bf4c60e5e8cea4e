"""The interprocedural pass end to end: fixture tree, golden output, CLI
flags, and the src-tree gates CI relies on."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import LintConfig, LintEngine
from repro.analysis.cli import main as lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOWFIX = os.path.join(REPO_ROOT, "tests", "fixtures", "flowfix")
GOLDEN_JSON = os.path.join(
    REPO_ROOT, "tests", "fixtures", "flowfix_expected.json"
)

NEW_FAMILIES = ("SP4", "SP5", "SP6")


# -- the seeded-bad tree -----------------------------------------------------


def test_flowfix_trips_every_new_family():
    engine = LintEngine()
    findings, checked = engine.check_paths([FLOWFIX], root=REPO_ROOT)
    fired = {f.code for f in findings}
    expected = {
        "SP401", "SP402", "SP403", "SP404", "SP405",
        "SP503",
        "SP601", "SP602", "SP603",
    }
    assert expected <= fired
    assert len(fired & {c for c in fired if c[:3] in NEW_FAMILIES}) >= 6
    assert checked == 3


def test_flowfix_taint_findings_carry_traces():
    engine = LintEngine()
    findings, _ = engine.check_paths([FLOWFIX], root=REPO_ROOT)
    taint = [f for f in findings if f.code.startswith("SP4")]
    assert taint
    for finding in taint:
        assert finding.detail.get("trace"), finding.code
        assert "source" in finding.detail and "sink" in finding.detail


def test_golden_json_output(capsys):
    exit_code = lint_main([FLOWFIX, "--root", REPO_ROOT, "--format=json"])
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    with open(GOLDEN_JSON, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert payload == expected


# -- CLI flags ---------------------------------------------------------------


def test_callgraph_stats_flag_reports_the_ledger(capsys):
    lint_main([FLOWFIX, "--root", REPO_ROOT, "--format=json",
               "--callgraph-stats"])
    captured = capsys.readouterr()
    stats = json.loads(captured.err)["callgraph"]
    assert stats["call_sites"] > 0
    assert 0.0 <= stats["unresolved_ratio"] <= 1.0
    payload = json.loads(captured.out)
    assert payload["callgraph"] == stats


def test_max_unresolved_ratio_gate(capsys):
    # a budget of zero must fail any tree with dynamic calls
    exit_code = lint_main(
        [FLOWFIX, "--root", REPO_ROOT, "--select", "SP101",
         "--max-unresolved-ratio", "0.0"]
    )
    err = capsys.readouterr().err
    assert exit_code == 1
    assert "unresolved ratio" in err


def test_family_prefix_rejects_unknown_prefix():
    with pytest.raises(ValueError):
        LintConfig(select=["SP9"])


# -- the src tree gates ------------------------------------------------------


def test_src_tree_is_clean_for_new_families_within_budget(src_lint):
    findings = [
        f for f in src_lint.findings if f.code.startswith(NEW_FAMILIES)
    ]
    assert findings == [], [f"{f.code} {f.path}:{f.line}" for f in findings]
    assert src_lint.checked > 100
    elapsed = src_lint.elapsed
    assert elapsed < 30.0, f"lint took {elapsed:.1f}s, budget is 30s"


def test_src_tree_unresolved_ratio_within_checked_in_threshold(src_lint):
    stats = src_lint.stats
    # the CI gate (.github/workflows/ci.yml) passes --max-unresolved-ratio
    # with this same threshold; move both together, downward only
    assert stats["unresolved_ratio"] <= 0.45
