"""The lint engine: file walking, suppression, scoping, and reporting.

The engine owns everything that is *not* a rule: discovering Python
files, parsing them once into a :class:`ModuleInfo`, deciding which
rules apply where (determinism rules only run inside core paths),
honouring ``# sp-lint: disable=...`` comments, and shaping output.

Suppression syntax (reason after ``--`` is encouraged, never parsed)::

    x = time.time()  # sp-lint: disable=SP101 -- wall clock is the payload
    # sp-lint: disable=SP201 -- file append is serialized by design
    handle = open(path)
    # sp-lint: disable-file=SP202 -- module predates ownership tracking

A directive suppresses matching findings on its own line or the line
directly below it; ``disable-file`` suppresses for the whole module.
``disable=all`` works in both forms.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import CORE_MARKERS, REGISTRY, Rule, all_rules

_DIRECTIVE = re.compile(
    r"#\s*sp-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+?)"
    r"(?:\s*--.*)?$"
)


class LintConfig:
    """Which rules run, where the deterministic core lives."""

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        core_markers: Sequence[str] = CORE_MARKERS,
    ) -> None:
        known = set(REGISTRY)
        self.select = set(select) if select else None
        self.ignore = set(ignore) if ignore else set()
        for code in (self.select or set()) | self.ignore:
            # a family prefix (SP4, SP40) selects every code under it
            if code not in known and not any(
                k.startswith(code) for k in known
            ):
                raise ValueError(f"unknown rule code {code!r}")
        self.core_markers = tuple(core_markers)

    @staticmethod
    def _matches(code: str, patterns: Set[str]) -> bool:
        return any(code == p or code.startswith(p) for p in patterns)

    def active_rules(self) -> List[Rule]:
        rules = []
        for rule in all_rules():
            if self.select is not None and not self._matches(
                rule.code, self.select
            ):
                continue
            if self._matches(rule.code, self.ignore):
                continue
            rules.append(rule)
        return rules


class ModuleInfo:
    """One parsed module plus its suppression table."""

    def __init__(self, path: str, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = ast.parse(source, filename=display_path)
        self._nodes: Optional[List[ast.AST]] = None
        self.line_disables: Dict[int, Set[str]] = {}
        self.file_disables: Set[str] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _DIRECTIVE.search(line)
            if not match:
                continue
            kind, codes_text = match.groups()
            codes = {
                code.strip().upper()
                for code in codes_text.split(",")
                if code.strip()
            }
            if kind == "disable-file":
                self.file_disables |= codes
            else:
                self.line_disables.setdefault(lineno, set()).update(codes)

    def nodes(self) -> List[ast.AST]:
        """Every AST node, walked once and shared by all rules — the
        tree is parsed once per file and traversed once per file, not
        once per rule family."""
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    def is_core(self, markers: Sequence[str]) -> bool:
        parts = set(re.split(r"[\\/]", self.display_path))
        return any(marker in parts for marker in markers)

    def suppressed(self, finding: Finding) -> bool:
        if (
            "ALL" in self.file_disables
            or finding.code in self.file_disables
        ):
            return True
        for lineno in (finding.line, finding.line - 1):
            codes = self.line_disables.get(lineno)
            if codes and ("ALL" in codes or finding.code in codes):
                return True
        return False


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: Set[str] = set()
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            candidates = [path]
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git")
                )
                candidates.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        for candidate in candidates:
            real = os.path.realpath(candidate)
            if real not in seen:
                seen.add(real)
                out.append(candidate)
    return out


class LintEngine:
    """Run the active rules over a set of paths."""

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config if config is not None else LintConfig()
        #: the call graph of the last check_paths/check_source run —
        #: the CLI reads resolution stats off it
        self.last_project = None

    def check_source(
        self, source: str, display_path: str = "<string>"
    ) -> List[Finding]:
        """Lint one source string (the unit-test entry point)."""
        module = ModuleInfo(display_path, display_path, source)
        findings = self._check_module(module)
        findings.extend(self._project_pass([module]))
        findings.sort(key=Finding.sort_key)
        return findings

    def check_paths(
        self, paths: Sequence[str], root: Optional[str] = None
    ) -> Tuple[List[Finding], int]:
        """Lint every Python file under ``paths``.

        Returns ``(findings, files_checked)``.  ``root`` relativizes the
        reported paths (defaults to the current directory) so output is
        stable across checkouts.
        """
        base = root if root is not None else os.getcwd()
        findings: List[Finding] = []
        files = iter_python_files(paths)
        modules: List[ModuleInfo] = []
        for path in files:
            display = os.path.relpath(path, base).replace(os.sep, "/")
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                module = ModuleInfo(path, display, source)
            except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
                findings.append(Finding(
                    code="SP001",
                    message=f"could not parse: {exc}",
                    path=display,
                    line=getattr(exc, "lineno", None) or 1,
                ))
                continue
            modules.append(module)
            findings.extend(self._check_module(module))
        findings.extend(self._project_pass(modules))
        findings.sort(key=Finding.sort_key)
        return findings, len(files)

    def _project_pass(self, modules: Sequence[ModuleInfo]) -> List[Finding]:
        """Interprocedural rules: one call graph, every project-aware
        rule, suppression resolved back through the owning module."""
        from repro.analysis.callgraph import Project

        project = Project(modules)
        self.last_project = project
        by_path = {module.display_path: module for module in modules}
        out: List[Finding] = []
        for rule in self.config.active_rules():
            for finding in rule.check_project(project):
                module = by_path.get(finding.path)
                if module is not None and module.suppressed(finding):
                    continue
                out.append(finding)
        return out

    def _check_module(self, module: ModuleInfo) -> List[Finding]:
        core = module.is_core(self.config.core_markers)
        out: List[Finding] = []
        for rule in self.config.active_rules():
            if rule.core_only and not core:
                continue
            for finding in rule.check(module):
                if not module.suppressed(finding):
                    out.append(finding)
        out.sort(key=Finding.sort_key)
        return out
