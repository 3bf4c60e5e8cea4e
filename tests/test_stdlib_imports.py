"""The serving packages and every console script import only the stdlib.

One ``python -S`` child (no site-packages, so numpy, scipy and networkx
cannot even be found) imports each module below from a clean slate: every
``repro*`` entry is dropped from ``sys.modules`` first, so a module cannot
lean on what an earlier one loaded, and an import cycle hidden by import
order shows up as an ``ImportError``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SERVING = [
    "repro.runtime",
    "repro.server",
    "repro.replication",
    "repro.push",
    "repro.connect",
    "repro.obs",
    "repro.resilience",
]

#: the modules behind pyproject.toml's seven ``[project.scripts]``
CONSOLE_SCRIPTS = [
    "repro.runtime.serve",
    "repro.server.cli",
    "repro.replication.cli",
    "repro.cli",
    "repro.demo.app",
    "repro.analysis.cli",
    "repro.obs.tracecli",
]

HEAVY = ("networkx", "numpy", "scipy")

_CHILD = """
import importlib, json, sys
problems = {}
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "repro"]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except BaseException as exc:
        problems[name] = f"{type(exc).__name__}: {exc}"
        continue
    heavy = [dep for dep in %r if dep in sys.modules]
    if heavy:
        problems[name] = f"loaded {heavy}"
print(json.dumps(problems))
""" % (HEAVY,)


def test_serving_path_imports_only_the_stdlib():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    child = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, *SERVING, *CONSOLE_SCRIPTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {}
