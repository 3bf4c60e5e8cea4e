"""Interprocedural may-block (SP201) and the taint-mark check (SP503).

This pass computes a may-block set over the project call graph and
upgrades SP201 from "blocking call *lexically* under a lock" to
"blocking call *reachable* under a lock".  A function may block when
it makes a call from the positive table SP201 uses (``time.sleep``,
``open``, socket/subprocess calls, thread/future joins) or calls a
project function that may; the witness chain is kept for the report.
It also rejects an unknown ``# sp-taint:`` mark, and one that attaches
to no function (SP503), since the taint pass reads those marks and a
typo or a misplaced comment would silently drop one.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import BlockingUnderLock, _LockScopeVisitor

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
        out.sort(key=Finding.sort_key)

    def _report_blocking_under_lock(self, out: List[Finding]) -> None:
        """SP201, interprocedural leg: a call under a ``with <lock>``
        that resolves to a project function whose may-block witness is
        set.  Direct blocking calls are the lexical rule's job."""
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


def contract_findings(project) -> List[Finding]:
    """Run (or reuse) the may-block analysis for a project."""
    cached = getattr(project, "_contracts", None)
    if cached is None:
        cached = ContractAnalysis(project)
        project._contracts = cached
    return cached.findings
