"""Interprocedural taint: sources, sanitizers, sinks, and traces."""

from __future__ import annotations

from repro.analysis.engine import LintEngine

BOUNDARY = "src/repro/server/handlers.py"   # `params` arrives untrusted here
PLAIN = "src/repro/runtime/module.py"       # and NOT here


def codes(findings):
    return sorted({f.code for f in findings})


def lint(source, path=BOUNDARY):
    return LintEngine().check_source(source, display_path=path)


# -- sources -----------------------------------------------------------------


def test_params_in_boundary_module_reach_eval():
    findings = lint(
        "def handle(params):\n"
        "    eval(params.get('expr'))\n"
    )
    assert codes(findings) == ["SP405"]


def test_params_outside_boundary_module_are_trusted():
    assert lint(
        "def handle(params):\n"
        "    eval(params.get('expr'))\n",
        path=PLAIN,
    ) == []


def test_params_reaching_the_replication_routes_are_a_source():
    findings = lint(
        "def wal(params):\n"
        "    open(params['x'])\n",
        path="src/repro/replication/leader.py",
    )
    assert codes(findings) == ["SP401"]


def test_header_read_is_a_source():
    findings = lint(
        "def handle(self):\n"
        "    value = self.headers.get('X-Cursor')\n"
        "    eval(value)\n",
        path=PLAIN,
    )
    assert codes(findings) == ["SP405"]


def test_source_annotation_taints_return_value():
    findings = lint(
        "# sp-taint: source -- bytes off the wire\n"
        "def fetch():\n"
        "    return 'payload'\n"
        "def handle():\n"
        "    eval(fetch())\n",
        path=PLAIN,
    )
    assert codes(findings) == ["SP405"]


# -- sanitizers --------------------------------------------------------------


def test_builtin_coercion_sanitizes():
    assert lint(
        "def handle(params):\n"
        "    eval(int(params.get('n')))\n"
    ) == []


def test_sanitizer_annotation_on_project_function_clears_taint():
    assert lint(
        "# sp-taint: sanitizer -- whitelists the value\n"
        "def scrub(value):\n"
        "    return value\n"
        "def handle(params):\n"
        "    eval(scrub(params.get('expr')))\n"
    ) == []


def test_project_function_that_sanitizes_internally_is_trusted():
    # a resolved project callee's summary is the whole story: json.dumps
    # inside the helper launders the value even without an annotation
    assert lint(
        "import json\n"
        "def encode(value):\n"
        "    return json.dumps(value)\n"
        "def handle(params, wfile):\n"
        "    wfile.write(encode(params.get('q')))\n"
    ) == []


# -- sinks -------------------------------------------------------------------


def test_each_sink_family_has_its_own_code():
    findings = lint(
        "def handle(params, wfile, metrics, wal):\n"
        "    value = params.get('v')\n"
        "    open(value)\n"
        "    metrics.counter(value)\n"
        "    wfile.write(value)\n"
        "    wal.append(value)\n"
    )
    assert codes(findings) == ["SP401", "SP402", "SP403", "SP404"]


# -- interprocedural flow ----------------------------------------------------


def test_taint_flows_through_returning_helper():
    findings = lint(
        "def pick(params):\n"
        "    return params.get('name')\n"
        "def handle(params):\n"
        "    eval(pick(params))\n"
    )
    assert codes(findings) == ["SP405"]


def test_taint_flows_into_helper_that_sinks():
    findings = lint(
        "def run(command):\n"
        "    eval(command)\n"
        "def handle(params):\n"
        "    run(params.get('cmd'))\n"
    )
    assert codes(findings) == ["SP405"]


def test_finding_carries_source_to_sink_trace():
    findings = lint(
        "def pick(params):\n"
        "    return params.get('name')\n"
        "def handle(params):\n"
        "    eval(pick(params))\n"
    )
    assert len(findings) >= 1
    detail = findings[0].detail
    assert "source" in detail and "sink" in detail
    assert isinstance(detail.get("trace"), list) and detail["trace"]


# -- selection ---------------------------------------------------------------


def test_family_prefix_selects_taint_rules():
    from repro.analysis.engine import LintConfig

    engine = LintEngine(LintConfig(select=["SP4"]))
    findings = engine.check_source(
        "def handle(params):\n"
        "    eval(params.get('expr'))\n"
        "    import time\n"
        "    time.sleep(1)\n",
        display_path=BOUNDARY,
    )
    assert codes(findings) == ["SP405"]
