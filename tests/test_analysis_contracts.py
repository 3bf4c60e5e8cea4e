"""Annotation checks and interprocedural blocking."""

from __future__ import annotations

from repro.analysis.engine import LintEngine

PATH = "src/repro/runtime/module.py"


def codes(findings):
    return sorted({f.code for f in findings})


def lint(source, path=PATH):
    return LintEngine().check_source(source, display_path=path)


# -- SP503: unknown annotations ----------------------------------------------


def test_sp503_flags_taint_mark_typos():
    findings = lint(
        "# sp-taint: sanitiser\n"
        "def typo(value):\n"
        "    return str(value)\n"
    )
    assert codes(findings) == ["SP503"]
    assert "sanitiser" in findings[0].message


def test_sp503_flags_a_mark_that_attaches_to_no_function():
    findings = lint(
        "# sp-taint: sanitizer\n"
        "\n"
        "def detached(value):\n"
        "    return str(value)\n"
    )
    assert codes(findings) == ["SP503"]
    assert findings[0].line == 1
    assert "attaches to no function" in findings[0].message


def test_sp503_accepts_marks_where_they_attach():
    assert lint(
        "import functools\n"
        "# sp-taint: source\n"
        "@functools.lru_cache\n"
        "def above_decorator(value):\n"
        "    return value\n"
        "def on_def_line(value):  # sp-taint: sanitizer\n"
        "    return value\n"
        "class Holder:\n"
        "    # sp-taint: source\n"
        "    def method(self):\n"
        "        return 1\n"
    ) == []


# -- SP201 upgraded: blocking *reachable* under a lock -----------------------


def test_sp201_blocking_callee_reached_under_lock():
    findings = lint(
        "import threading\n"
        "import time\n"
        "_lock = threading.Lock()\n"
        "def nap():\n"
        "    time.sleep(0.5)\n"
        "def critical():\n"
        "    with _lock:\n"
        "        nap()\n"
    )
    assert codes(findings) == ["SP201"]
    # the witness names the blocking call at the end of the chain
    assert "time.sleep" in findings[0].message


def test_sp201_interprocedural_respects_suppression():
    assert lint(
        "import threading\n"
        "import time\n"
        "_lock = threading.Lock()\n"
        "def nap():\n"
        "    time.sleep(0.5)\n"
        "def critical():\n"
        "    with _lock:\n"
        "        nap()  # sp-lint: disable=SP201 -- bench harness only\n"
    ) == []
