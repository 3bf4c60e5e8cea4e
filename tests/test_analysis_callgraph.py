"""Call-graph construction: resolution kinds, dispatch, and accounting."""

from __future__ import annotations

import ast

from repro.analysis.callgraph import Project, module_name_for
from repro.analysis.cfg import build_cfg
from repro.analysis.engine import ModuleInfo


def project(sources):
    """Build a Project from {display_path: source} without touching disk."""
    modules = [
        ModuleInfo(path, path, text) for path, text in sorted(sources.items())
    ]
    return Project(modules)


def call_kinds(proj, caller_key):
    return [site.kind for site in proj.calls.get(caller_key, [])]


# -- module naming -----------------------------------------------------------


def test_module_name_for_src_layout():
    assert module_name_for("src/repro/push/bus.py") == "repro.push.bus"
    assert module_name_for("src/repro/connect/__init__.py") == "repro.connect"


# -- direct and method resolution --------------------------------------------


def test_direct_call_resolves_to_project_function():
    proj = project({"src/repro/a.py": (
        "def helper():\n"
        "    return 1\n"
        "def caller():\n"
        "    return helper()\n"
    )})
    targets = list(proj.callees("src/repro/a.py::caller"))
    assert [t.qualname for _, t in targets] == ["helper"]
    assert call_kinds(proj, "src/repro/a.py::caller") == ["project"]


def test_self_method_call_resolves_within_class():
    proj = project({"src/repro/a.py": (
        "class Engine:\n"
        "    def step(self):\n"
        "        return self._advance()\n"
        "    def _advance(self):\n"
        "        return 1\n"
    )})
    targets = list(proj.callees("src/repro/a.py::Engine.step"))
    assert [t.qualname for _, t in targets] == ["Engine._advance"]


def test_virtual_dispatch_fans_out_to_subclass_overrides():
    # a receiver with a known class links to the method on that class
    # AND every project override of it; bare self.m() stays non-virtual
    proj = project({"src/repro/a.py": (
        "class Base:\n"
        "    def work(self):\n"
        "        return 0\n"
        "class Child(Base):\n"
        "    def work(self):\n"
        "        return 1\n"
        "def drive():\n"
        "    worker = Base()\n"
        "    return worker.work()\n"
        "class _Private:\n"
        "    def work(self):\n"
        "        return 2\n"
        "def drive_private():\n"
        "    worker = _Private()\n"
        "    return worker.work()\n"
    )})
    names = sorted(
        t.qualname for _, t in proj.callees("src/repro/a.py::drive")
    )
    assert "Base.work" in names and "Child.work" in names
    # a private class's constructor types its local the same way
    names = [t.qualname for _, t in proj.callees("src/repro/a.py::drive_private")]
    assert names == ["_Private.work"]


def test_attribute_type_inference_links_held_instance():
    proj = project({"src/repro/a.py": (
        "class Store:\n"
        "    def save(self):\n"
        "        return 1\n"
        "class Owner:\n"
        "    def __init__(self):\n"
        "        self._store = Store()\n"
        "    def flush(self):\n"
        "        return self._store.save()\n"
        "def drive():\n"
        "    owner = Owner()\n"
        "    return owner._store.save()\n"
        "class Holder:\n"
        "    def __init__(self, store: Optional[Store] = None):\n"
        "        self._store = store\n"
        "    def flush(self):\n"
        "        return self._store.save()\n"
    )})
    targets = list(proj.callees("src/repro/a.py::Owner.flush"))
    assert [t.qualname for _, t in targets] == ["Store.save"]
    # an attribute bound from an annotated parameter takes its type
    targets = list(proj.callees("src/repro/a.py::Holder.flush"))
    assert [t.qualname for _, t in targets] == ["Store.save"]
    # a typed local's held instance resolves the same way
    targets = list(proj.callees("src/repro/a.py::drive"))
    assert sorted(t.qualname for _, t in targets) == [
        "Owner.__init__", "Store.save",
    ]


# -- registry dispatch -------------------------------------------------------

REGISTRY_TREE = {
    "src/repro/connect/connectors.py": (
        "def register(scheme):\n"
        "    def wrap(cls):\n"
        "        return cls\n"
        "    return wrap\n"
        "@register('file')\n"
        "class FileConnector:\n"
        "    def __init__(self, locator):\n"
        "        self.locator = locator\n"
        "@register('rss')\n"
        "class RssConnector:\n"
        "    def __init__(self, locator):\n"
        "        self.locator = locator\n"
        "def open_source(locator):\n"
        "    return FileConnector(locator)\n"
    ),
    "src/repro/connect/caller.py": (
        "from repro.connect.connectors import open_source\n"
        "def attach(locator):\n"
        "    return open_source(locator)\n"
    ),
}


def test_registry_call_fans_out_to_registered_constructors():
    proj = project(REGISTRY_TREE)
    assert proj.registered_classes() == [
        "repro.connect.connectors.FileConnector",
        "repro.connect.connectors.RssConnector",
    ]
    sites = proj.calls["src/repro/connect/caller.py::attach"]
    fanout = sorted(t.qualname for site in sites for t in site.targets)
    assert fanout == ["FileConnector.__init__", "RssConnector.__init__"]


# -- thread targets ----------------------------------------------------------


def test_thread_target_keyword_links_worker():
    proj = project({"src/repro/a.py": (
        "import threading\n"
        "from repro.loop import Loop\n"
        "def work():\n"
        "    return 1\n"
        "def spawn():\n"
        "    return threading.Thread(target=work)\n"
        "def tick():\n"
        "    return 1.0\n"
        "def spawn_loop():\n"
        "    return Loop('ticker', step=tick)\n"
    ), "src/repro/loop.py": (
        "class Loop:\n"
        "    def __init__(self, name, step):\n"
        "        self.step = step\n"
    )})
    targets = list(proj.callees("src/repro/a.py::spawn"))
    assert [t.qualname for _, t in targets] == ["work"]
    targets = list(proj.callees("src/repro/a.py::spawn_loop"))
    assert sorted(t.qualname for _, t in targets) == ["Loop.__init__", "tick"]


# -- unsoundness accounting --------------------------------------------------


def test_unresolved_calls_are_counted_not_guessed():
    proj = project({"src/repro/a.py": (
        "import json\n"
        "def caller(handler):\n"
        "    helper()\n"          # project-resolved
        "    json.dumps({})\n"    # external: stdlib
        "    handler()\n"         # unresolved: unknown callable value
        "def helper():\n"
        "    return 1\n"
    )})
    stats = proj.stats()
    assert stats["resolved_project"] == 1
    assert stats["external"] == 1
    assert stats["unresolved"] == 1
    assert stats["call_sites"] == 3
    assert stats["unresolved_ratio"] == round(1 / 3, 4)
    sites = proj.unresolved_sites()
    assert len(sites) == 1
    assert sites[0][0] == "src/repro/a.py"


def test_stats_on_empty_project():
    stats = project({"src/repro/empty.py": "X = 1\n"}).stats()
    assert stats["call_sites"] == 0
    assert stats["unresolved_ratio"] == 0.0


# -- taint annotations --------------------------------------------------------


def test_annotations_parsed_from_decorator_adjacent_comments():
    proj = project({"src/repro/a.py": (
        "# sp-taint: source\n"
        "@staticmethod\n"
        "def fetch():\n"
        "    return 1\n"
        "# sp-taint: sanitizer -- scrubs everything\n"
        "def scrub(value):\n"
        "    return str(value)\n"
    )})
    assert proj.functions["src/repro/a.py::fetch"].taint_marks == {"source"}
    assert proj.functions["src/repro/a.py::scrub"].taint_marks == {"sanitizer"}


# -- control-flow graphs -----------------------------------------------------


def fn_node(source):
    return ast.parse(source).body[0]


def test_cfg_if_without_else_has_path_around_body():
    cfg, _ = build_cfg(fn_node(
        "def f(flag, lock):\n"
        "    lock.acquire()\n"
        "    if flag:\n"
        "        lock.release()\n"
        "    return None\n"
    ))
    acquire_nodes = [
        idx for idx, node in enumerate(cfg.nodes)
        if node.stmt is not None and isinstance(node.stmt, ast.Expr)
        and "acquire" in ast.dump(node.stmt)
    ]
    # the False branch is a path to exit that avoids the release Expr
    assert cfg.exists_path_avoiding(
        acquire_nodes[0],
        lambda stmt: isinstance(stmt, ast.Expr) and "release" in ast.dump(stmt),
    )


def test_cfg_straight_line_has_no_avoiding_path():
    cfg, _ = build_cfg(fn_node(
        "def f(lock):\n"
        "    lock.acquire()\n"
        "    lock.release()\n"
    ))
    acquire_nodes = [
        idx for idx, node in enumerate(cfg.nodes)
        if node.stmt is not None and "acquire" in ast.dump(node.stmt)
    ]
    assert not cfg.exists_path_avoiding(
        acquire_nodes[0],
        lambda stmt: "release" in ast.dump(stmt),
    )


def test_cfg_early_return_skips_later_statements():
    cfg, _ = build_cfg(fn_node(
        "def f(flag, lock):\n"
        "    lock.acquire()\n"
        "    if flag:\n"
        "        return 1\n"
        "    lock.release()\n"
        "    return 0\n"
    ))
    acquire_nodes = [
        idx for idx, node in enumerate(cfg.nodes)
        if node.stmt is not None and "acquire" in ast.dump(node.stmt)
    ]
    # the early return is a path to exit that avoids the release
    assert cfg.exists_path_avoiding(
        acquire_nodes[0],
        lambda stmt: "release" in ast.dump(stmt),
    )
