"""The lint engine: per-rule fixtures, suppression, CLI, and the self-gate."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import LintConfig, LintEngine
from repro.analysis.cli import main as lint_main
from repro.analysis.findings import Finding, render_report, summarize
from repro.analysis.rules import REGISTRY, all_rules

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_TREE = os.path.join(REPO_ROOT, "tests", "fixtures", "lintfix")
GOLDEN_JSON = os.path.join(REPO_ROOT, "tests", "fixtures", "lintfix_expected.json")

CORE = "src/repro/core/module.py"  # path that activates core-only rules
EDGE = "src/repro/runtime/module.py"  # path outside the deterministic core


def codes(findings):
    return sorted({f.code for f in findings})


def lint(source: str, path: str = EDGE):
    return LintEngine().check_source(source, display_path=path)


# -- SP101: wall clock in core ------------------------------------------------


def test_sp101_flags_wall_clock_in_core():
    findings = lint("import time\nstamp = time.time()\n", path=CORE)
    assert codes(findings) == ["SP101"]


def test_sp101_ignores_wall_clock_outside_core():
    assert lint("import time\nstamp = time.time()\n", path=EDGE) == []


def test_sp101_disable_comment():
    source = (
        "import time\n"
        "stamp = time.time()  # sp-lint: disable=SP101 -- the stamp is payload\n"
    )
    assert lint(source, path=CORE) == []


def test_sp101_monotonic_is_fine():
    assert lint("import time\nt = time.monotonic()\n", path=CORE) == []


# -- SP102: unseeded randomness in core --------------------------------------


def test_sp102_flags_unseeded_and_global_random():
    source = (
        "import random\n"
        "rng = random.Random()\n"
        "x = random.choice([1, 2])\n"
    )
    findings = lint(source, path=CORE)
    assert [f.code for f in findings] == ["SP102", "SP102"]


def test_sp102_seeded_random_is_fine():
    assert lint("import random\nrng = random.Random(42)\n", path=CORE) == []


def test_sp102_disable_comment_line_above():
    source = (
        "import random\n"
        "# sp-lint: disable=SP102 -- tie-break seeded upstream\n"
        "x = random.choice([1, 2])\n"
    )
    assert lint(source, path=CORE) == []


# -- SP103 / SP104: exception discipline --------------------------------------


def test_sp103_flags_bare_except():
    source = "try:\n    work()\nexcept:\n    pass\n"
    assert codes(lint(source)) == ["SP103"]


def test_sp104_flags_swallowed_exception():
    source = "try:\n    work()\nexcept Exception:\n    pass\n"
    assert codes(lint(source)) == ["SP104"]


@pytest.mark.parametrize("body", [
    "    raise",
    "    span.record_error(exc)",
    "    log.warning('failed: %s', exc)",
    "    dlq.append(exc)",
])
def test_sp104_negative_when_error_is_handled(body):
    source = f"try:\n    work()\nexcept Exception as exc:\n{body}\n"
    assert lint(source) == []


def test_sp104_negative_for_narrow_types():
    source = "try:\n    work()\nexcept ValueError:\n    pass\n"
    assert lint(source) == []


def test_sp103_disable_file():
    source = (
        "# sp-lint: disable-file=SP103 -- legacy shim\n"
        "try:\n    work()\nexcept:\n    pass\n"
    )
    assert lint(source) == []


# -- SP201: blocking under a lock ---------------------------------------------


def test_sp201_flags_sleep_open_join_result():
    source = (
        "import time\n"
        "def flush(self, path):\n"
        "    with self._lock:\n"
        "        time.sleep(1)\n"
        "        handle = open(path)\n"
        "        self.worker.join()\n"
        "        value = self.future.result()\n"
    )
    findings = lint(source)
    assert [f.code for f in findings] == ["SP201"] * 4


def test_sp201_negative_outside_lock_and_str_join():
    source = (
        "import time\n"
        "def flush(self, parts):\n"
        "    time.sleep(1)\n"
        "    with self._lock:\n"
        "        text = ', '.join(parts)\n"
    )
    assert lint(source) == []


def test_sp201_flags_open_in_with_item_under_lock():
    source = (
        "def flush(self, path):\n"
        "    with self._lock:\n"
        "        with open(path) as handle:\n"
        "            handle.read()\n"
    )
    assert codes(lint(source)) == ["SP201"]


def test_sp201_nested_def_body_not_under_lock():
    source = (
        "def make(self):\n"
        "    with self._lock:\n"
        "        def later(path):\n"
        "            return open(path)\n"
        "        self.hook = later\n"
    )
    assert lint(source) == []


def test_sp201_disable_comment():
    source = (
        "def flush(self, path):\n"
        "    with self._lock:\n"
        "        # sp-lint: disable=SP201 -- lazy one-time open by design\n"
        "        handle = open(path)\n"
    )
    assert lint(source) == []


# -- SP202: mutation outside the owning lock ----------------------------------


def test_sp202_flags_unguarded_write():
    source = (
        "class Counter:\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.count += 1\n"
        "    def reset(self):\n"
        "        self.count = 0\n"
    )
    findings = lint(source)
    assert codes(findings) == ["SP202"]
    assert findings[0].detail["attribute"] == "count"


def test_sp202_init_and_locked_suffix_are_exempt():
    source = (
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.count += 1\n"
        "    def _drain_locked(self):\n"
        "        self.count = 0\n"
    )
    assert lint(source) == []


def test_sp202_tuple_unpack_target():
    source = (
        "class Box:\n"
        "    def swap(self, new):\n"
        "        with self._lock:\n"
        "            self.state = new\n"
        "    def rotate(self, new):\n"
        "        old, self.state = self.state, new\n"
        "        return old\n"
    )
    assert codes(lint(source)) == ["SP202"]


# -- SP301 / SP302: observability ---------------------------------------------


def test_sp301_flags_unmanaged_span_and_scope():
    source = (
        "def work(tracer):\n"
        "    span = tracer.span('work')\n"
        "    deadline_scope(0.5)\n"
    )
    assert [f.code for f in lint(source)] == ["SP301", "SP301"]


def test_sp301_negative_inside_with():
    source = (
        "def work(tracer):\n"
        "    with tracer.span('work'):\n"
        "        with deadline_scope(0.5):\n"
        "            pass\n"
    )
    assert lint(source) == []


def test_sp302_flags_non_canonical_metric_names():
    source = (
        "def register(metrics):\n"
        "    metrics.counter('Ingest-Accepted')\n"
        "    metrics.gauge('queue depth')\n"
    )
    assert [f.code for f in lint(source)] == ["SP302", "SP302"]


def test_sp302_negative_canonical_names():
    source = (
        "def register(metrics):\n"
        "    metrics.counter('ingest.accepted')\n"
        "    metrics.gauge('queue.depth{shard=0}')\n"
        "    metrics.histogram('ingest.offer_latency_seconds')\n"
    )
    assert lint(source) == []


# -- engine plumbing ----------------------------------------------------------


def test_disable_all_suppresses_everything():
    source = (
        "# sp-lint: disable-file=all -- generated module\n"
        "try:\n    work()\nexcept:\n    pass\n"
    )
    assert lint(source) == []


def test_unknown_code_in_config_rejected():
    with pytest.raises(ValueError):
        LintConfig(select=["SP999"])


def test_select_and_ignore_narrow_the_rule_set():
    active = LintConfig(select=["SP103", "SP104"]).active_rules()
    assert [r.code for r in active] == ["SP103", "SP104"]
    active = LintConfig(ignore=["SP103"]).active_rules()
    assert "SP103" not in [r.code for r in active]


def test_syntax_error_becomes_sp001(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    findings, checked = LintEngine().check_paths(
        [str(tmp_path)], root=str(tmp_path)
    )
    assert checked == 1
    assert [f.code for f in findings] == ["SP001"]


def test_render_report_tally():
    findings = [
        Finding("SP103", "m", "a.py", 3),
        Finding("SP103", "m", "a.py", 9),
    ]
    report = render_report(findings, checked_files=1)
    assert report.endswith("2 finding(s) across 1 file(s): SP103×2")
    assert summarize(findings) == {"SP103": 2}


def test_registry_covers_three_concern_families():
    prefixes = {rule.code[:3] for rule in all_rules()}
    assert {"SP1", "SP2", "SP3"} <= prefixes
    assert set(REGISTRY) == {r.code for r in all_rules()}


# -- the acceptance gates -----------------------------------------------------


def test_fixture_tree_yields_at_least_five_distinct_codes(capsys):
    exit_code = lint_main([FIXTURE_TREE, "--root", REPO_ROOT])
    out = capsys.readouterr().out
    assert exit_code == 1
    distinct = {
        line.split()[1]
        for line in out.splitlines()
        if ": SP" in line
    }
    assert len(distinct) >= 5, distinct


def test_golden_json_output(capsys):
    exit_code = lint_main(
        [FIXTURE_TREE, "--root", REPO_ROOT, "--format=json"]
    )
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    with open(GOLDEN_JSON, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    assert payload == expected


def test_src_tree_is_clean(src_lint):
    """The gate CI enforces: the shipped tree carries zero findings."""
    assert src_lint.checked > 50
    assert src_lint.findings == [], render_report(
        src_lint.findings, checked_files=src_lint.checked
    )


# -- CLI surface --------------------------------------------------------------


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in REGISTRY:
        assert code in out
    assert "[core paths only]" in out


def test_cli_select_filters_codes(capsys):
    exit_code = lint_main(
        [FIXTURE_TREE, "--root", REPO_ROOT, "--select", "SP103"]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "SP103" in out and "SP201" not in out


def test_cli_unknown_code_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        lint_main([FIXTURE_TREE, "--select", "SP999"])
    assert excinfo.value.code == 2


def test_cli_no_paths_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        lint_main([])
    assert excinfo.value.code == 2
