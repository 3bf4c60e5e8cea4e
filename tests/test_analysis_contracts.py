"""Annotation checks, interprocedural blocking, and resource lifecycle."""

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


# -- SP601: lock release not on every path -----------------------------------


def test_sp601_partial_release_fires():
    findings = lint(
        "def leaky(lock, flag):\n"
        "    lock.acquire()\n"
        "    if flag:\n"
        "        lock.release()\n"
    )
    assert codes(findings) == ["SP601"]


def test_sp601_try_finally_release_is_clean():
    assert lint(
        "def safe(lock):\n"
        "    lock.acquire()\n"
        "    try:\n"
        "        return 1\n"
        "    finally:\n"
        "        lock.release()\n"
    ) == []


def test_sp601_with_statement_is_clean():
    assert lint(
        "def safe(lock):\n"
        "    with lock:\n"
        "        return 1\n"
    ) == []


# -- SP602: file handles -----------------------------------------------------


def test_sp602_close_on_one_path_only():
    findings = lint(
        "def leaky(path, flag):\n"
        "    handle = open(path)\n"
        "    if flag:\n"
        "        handle.close()\n"
        "        return True\n"
        "    return False\n"
    )
    assert codes(findings) == ["SP602"]


def test_sp602_escaping_handle_is_not_flagged():
    # a returned handle is the caller's to close
    assert lint(
        "def opener(path, flag):\n"
        "    handle = open(path)\n"
        "    if flag:\n"
        "        handle.close()\n"
        "        return None\n"
        "    return handle\n"
    ) == []


def test_sp602_with_open_is_clean():
    assert lint(
        "def safe(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
    ) == []


# -- SP603: threads ----------------------------------------------------------


def test_sp603_partial_join_fires():
    findings = lint(
        "import threading\n"
        "def leaky(flag):\n"
        "    worker = threading.Thread(target=print)\n"
        "    worker.start()\n"
        "    if flag:\n"
        "        worker.join()\n"
    )
    assert codes(findings) == ["SP603"]


def test_sp603_guard_on_the_resource_counts_as_release():
    # `if worker is not None: worker.join()` — the False branch means
    # the thread was never started; this is the optional-worker idiom
    assert lint(
        "import threading\n"
        "def run(flag):\n"
        "    worker = None\n"
        "    if flag:\n"
        "        worker = threading.Thread(target=print)\n"
        "        worker.start()\n"
        "    if worker is not None:\n"
        "        worker.join()\n"
    ) == []


def test_sp603_thread_without_any_join_is_fire_and_forget():
    # zero joins anywhere means no cleanup intent in this function:
    # the owner lives elsewhere (daemon workers, supervisors)
    assert lint(
        "import threading\n"
        "def spawn():\n"
        "    worker = threading.Thread(target=print, daemon=True)\n"
        "    worker.start()\n"
    ) == []
