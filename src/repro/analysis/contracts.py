"""Interprocedural may-block (SP201) and resource lifecycle (SP6xx).

This pass computes a may-block set over the project call graph and
upgrades SP201 from "blocking call *lexically* under a lock" to
"blocking call *reachable* under a lock".  A function may block when
it makes a call from the positive table SP201 uses (``time.sleep``,
``open``, socket/subprocess calls, thread/future joins) or calls a
project function that may; the witness chain is kept for the report.
It also rejects an unknown ``# sp-taint:`` mark, and one that attaches
to no function (SP503), since the taint pass reads those marks and a
typo or a misplaced comment would silently drop one.

The SP6xx lifecycle pass runs on the per-function CFG
(:mod:`repro.analysis.cfg`): a lock ``.acquire()``, ``open()``/
``socket.socket()`` handle, or ``Thread.start()`` that some path can
carry to the function exit without the matching ``release``/``close``/
``join``.  To stay quiet on idiomatic code, files/sockets/threads only
fire with *partial-release evidence* — the function releases on at
least one path (so the author clearly intended this function to own
the cleanup) but not on all — and never when the handle escapes
(returned, yielded, stored on ``self``, or passed onward).  A local
lock acquire with **zero** releases still fires: there is no idiom in
which that is right.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.cfg import build_cfg
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    BlockingUnderLock,
    _LockScopeVisitor,
    _attr_chain,
    _is_lockish,
)

KNOWN_TAINT_MARKS = {"source", "sanitizer"}

_MAX_CHAIN = 8

#: witness: (path, line, description, chain-of-steps)
Witness = Tuple[str, int, str, Tuple[str, ...]]


class ContractAnalysis:
    """May-block fixpoint plus the findings built on it."""

    def __init__(self, project) -> None:
        self.project = project
        self.may_block: Dict[str, Optional[Witness]] = {}
        self.findings: List[Finding] = []
        self._seed()
        self._propagate()
        self._report()

    # -- seeding ------------------------------------------------------------

    def _seed(self) -> None:
        for key, fn in self.project.functions.items():
            block_witness: Optional[Witness] = None
            for site in self.project.calls.get(key, ()):
                label = BlockingUnderLock._blocking_label(site.node)
                if label is not None:
                    block_witness = (
                        fn.module.display_path, site.node.lineno, label,
                        (f"{fn.module.display_path}:{site.node.lineno} "
                         f"{label} in {fn.qualname}()",),
                    )
                    break
            self.may_block[key] = block_witness

    def _sites(self, key: str) -> Dict[int, object]:
        return {
            id(site.node): site for site in self.project.calls.get(key, ())
        }

    # -- propagation --------------------------------------------------------

    def _propagate(self) -> None:
        for _ in range(20):
            changed = False
            for key, fn in self.project.functions.items():
                if self.may_block[key] is not None:
                    continue
                for site in self.project.calls.get(key, ()):
                    target = next((
                        t for t in site.targets
                        if self.may_block.get(t.key) is not None
                    ), None)
                    if target is None:
                        continue
                    t_block = self.may_block[target.key]
                    step = (
                        f"{fn.module.display_path}:"
                        f"{site.node.lineno} {fn.qualname}() calls "
                        f"{target.qualname}()"
                    )
                    self.may_block[key] = (
                        fn.module.display_path, site.node.lineno,
                        f"calls {target.qualname}() which may block",
                        (step,) + t_block[3][:_MAX_CHAIN],
                    )
                    changed = True
                    break
            if not changed:
                break

    # -- findings -----------------------------------------------------------

    def _report(self) -> None:
        out = self.findings
        for fn in self.project.functions.values():
            for mark in sorted(fn.taint_marks - KNOWN_TAINT_MARKS):
                out.append(Finding(
                    code="SP503",
                    message=(
                        f"unknown sp-taint annotation {mark!r} on "
                        f"{fn.qualname}(); known marks: "
                        + ", ".join(sorted(KNOWN_TAINT_MARKS))
                    ),
                    path=fn.module.display_path,
                    line=fn.lineno,
                ))
        for module, line, marks in self.project.stray_taint_marks:
            out.append(Finding(
                code="SP503",
                message=(
                    f"sp-taint annotation {', '.join(marks)!r} attaches to no "
                    "function; put it on the def line, its first decorator's "
                    "line or the line above"
                ),
                path=module.display_path,
                line=line,
            ))
        self._report_blocking_under_lock(out)
        self._report_lifecycle(out)
        out.sort(key=Finding.sort_key)

    def _report_blocking_under_lock(self, out: List[Finding]) -> None:
        """SP201, interprocedural leg: a call under a ``with <lock>``
        that resolves to a project function whose may-block witness is
        set.  Direct blocking calls are the lexical rule's job."""
        analysis = self
        for key, fn in self.project.functions.items():
            sites = self._sites(key)
            hits: List[Tuple[ast.Call, str]] = []

            class Visitor(_LockScopeVisitor):
                def visit_Call(self, node: ast.Call) -> None:
                    if self.lock_stack:
                        hits.append((node, self.lock_stack[-1]))
                    self.generic_visit(node)

            visitor = Visitor()
            for stmt in fn.node.body:
                visitor.visit(stmt)
            for node, lock in hits:
                if BlockingUnderLock._blocking_label(node) is not None:
                    continue  # lexical SP201 already reports this
                site = sites.get(id(node))
                if site is None:
                    continue
                for target in site.targets:
                    witness = self.may_block.get(target.key)
                    if witness is None:
                        continue
                    out.append(Finding(
                        code="SP201",
                        message=(
                            f"call to {target.qualname}() while holding "
                            f"{lock!r} may block: {witness[2]} at "
                            f"{witness[0]}:{witness[1]}"
                        ),
                        path=fn.module.display_path,
                        line=node.lineno,
                        detail={"lock": lock, "chain": list(witness[3])},
                    ))
                    break  # one finding per call site is enough

    # -- SP6xx lifecycle ----------------------------------------------------

    def _report_lifecycle(self, out: List[Finding]) -> None:
        for fn in self.project.functions.values():
            out.extend(_lifecycle_findings(fn))


def _header_exprs(stmt: ast.AST) -> List[ast.AST]:
    """The expressions a CFG node *itself* evaluates — compound bodies
    belong to their own nodes."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef, ast.ExceptHandler)):
        return []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def _calls_in(stmt: ast.AST) -> Iterator[ast.Call]:
    for expr in _header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                break
            if isinstance(node, ast.Call):
                yield node


class _Acquire:
    __slots__ = ("kind", "resource", "stmt", "label")

    def __init__(self, kind: str, resource: str, stmt: ast.stmt,
                 label: str) -> None:
        self.kind = kind          # "lock" | "file" | "thread"
        self.resource = resource  # name or dotted chain
        self.stmt = stmt
        self.label = label


def _method_call_on(call: ast.Call, attr: str) -> Optional[str]:
    """Dotted receiver chain when ``call`` is ``<recv>.<attr>(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == attr:
        return _attr_chain(func.value)
    return None


def _find_acquires(fn) -> List[_Acquire]:
    out: List[_Acquire] = []
    for stmt in _function_statements(fn.node):
        for call in _calls_in(stmt):
            recv = _method_call_on(call, "acquire")
            if recv is not None and _is_lockish(call.func.value):
                out.append(_Acquire("lock", recv, stmt,
                                    f"{recv}.acquire()"))
            recv = _method_call_on(call, "start")
            if recv is not None and "." not in recv:
                out.append(_Acquire("thread", recv, stmt,
                                    f"{recv}.start()"))
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            dotted = _attr_chain(stmt.value.func) or (
                stmt.value.func.id
                if isinstance(stmt.value.func, ast.Name) else None
            )
            if dotted in ("open", "socket.socket"):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        out.append(_Acquire(
                            "file", target.id, stmt, f"{dotted}()",
                        ))
    return out


def _function_statements(func: ast.AST) -> Iterator[ast.stmt]:
    """Every statement in the function body, excluding nested defs."""
    stack = list(getattr(func, "body", []))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, ast.ExceptHandler):
                stack.extend(child.body)


_RELEASE_ATTR = {"lock": "release", "file": "close", "thread": "join"}


def _releases(stmt: ast.AST, acquire: _Acquire) -> bool:
    attr = _RELEASE_ATTR[acquire.kind]
    for call in _calls_in(stmt):
        recv = _method_call_on(call, attr)
        if recv == acquire.resource:
            return True
    # the optional-resource idiom: `if feeder is not None: feeder.join()`
    # releases on every path the resource is actually live on — the
    # False branch means it was never acquired
    if isinstance(stmt, ast.If):
        test_names = {
            _attr_chain(n) for n in ast.walk(stmt.test)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        if acquire.resource in test_names:
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Call):
                    recv = _method_call_on(inner, attr)
                    if recv == acquire.resource:
                        return True
    # `with closing(f):` / `with f:` also releases a file handle
    if acquire.kind == "file" and isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Name) and expr.id == acquire.resource:
                return True
            if (
                isinstance(expr, ast.Call)
                and any(
                    isinstance(a, ast.Name) and a.id == acquire.resource
                    for a in expr.args
                )
            ):
                return True
    return False


def _escapes(fn_node: ast.AST, name: str) -> bool:
    """Does the handle leave this function's custody?"""
    def mentions(node: ast.AST) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id == name
            for n in ast.walk(node)
        )

    for stmt in _function_statements(fn_node):
        for expr in _header_exprs(stmt):
            for node in ast.walk(expr):
                if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                    value = getattr(node, "value", None)
                    if value is not None and mentions(value):
                        return True
                if isinstance(node, ast.Call):
                    # method calls *on* the handle do not transfer it;
                    # passing it as an argument does
                    for arg in list(node.args) + [
                        k.value for k in node.keywords
                    ]:
                        if mentions(arg):
                            return True
                if isinstance(node, ast.Assign):
                    if mentions(node.value) and any(
                        not isinstance(t, ast.Name) for t in node.targets
                    ):
                        return True
                if isinstance(node, (ast.Tuple, ast.List, ast.Dict,
                                     ast.Set)) and mentions(node):
                    return True
    return False


_LIFECYCLE_CODES = {
    "lock": ("SP601", "released"),
    "file": ("SP602", "closed"),
    "thread": ("SP603", "joined"),
}


def _lifecycle_findings(fn) -> List[Finding]:
    acquires = _find_acquires(fn)
    if not acquires:
        return []
    cfg, index_of = build_cfg(fn.node)
    statements = list(_function_statements(fn.node))
    out: List[Finding] = []
    for acquire in acquires:
        released_somewhere = any(
            _releases(stmt, acquire) for stmt in statements
            if stmt is not acquire.stmt
        )
        if acquire.kind == "lock":
            # a dotted lock (self._lock) may be released by a paired
            # method (__exit__, stop()); demand in-function evidence
            if "." in acquire.resource and not released_somewhere:
                continue
        else:
            if not released_somewhere:
                continue  # no cleanup intent here: owner lives elsewhere
            if _escapes(fn.node, acquire.resource):
                continue
        index = index_of.get(id(acquire.stmt))
        if index is None:
            continue
        if cfg.exists_path_avoiding(
            index, lambda s, a=acquire: _releases(s, a)
        ):
            code, verb = _LIFECYCLE_CODES[acquire.kind]
            out.append(Finding(
                code=code,
                message=(
                    f"{acquire.label} in {fn.qualname}() is not "
                    f"{verb} on every path to the function exit"
                ),
                path=fn.module.display_path,
                line=acquire.stmt.lineno,
                detail={"resource": acquire.resource, "kind": acquire.kind},
            ))
    return out


def contract_findings(project) -> List[Finding]:
    """Run (or reuse) the may-block/lifecycle analysis for a project."""
    cached = getattr(project, "_contracts", None)
    if cached is None:
        cached = ContractAnalysis(project)
        project._contracts = cached
    return cached.findings
