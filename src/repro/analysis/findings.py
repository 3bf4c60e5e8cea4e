"""Finding records shared by the lint engine and the lockwatch detector.

A :class:`Finding` is one concrete violation at one location; both the
static linter and the dynamic lock-order detector emit them so CI and
operators consume a single shape (``to_dict`` is the JSON contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    severity: str = "error"
    #: free-form extra context (cycle edges, hold durations, ...)
    detail: Dict[str, object] = field(default_factory=dict, compare=False)

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
        }
        if self.detail:
            record["detail"] = dict(self.detail)
        return record

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def summarize(findings: List[Finding]) -> Dict[str, int]:
    """``{code: count}`` over a finding list, sorted by code."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return dict(sorted(counts.items()))


def render_report(
    findings: List[Finding], checked_files: Optional[int] = None
) -> str:
    """Human-readable report: one line per finding plus a tally."""
    lines = [f.render() for f in sorted(findings, key=Finding.sort_key)]
    counts = summarize(findings)
    tally = ", ".join(f"{code}×{n}" for code, n in counts.items()) or "none"
    suffix = f" across {checked_files} file(s)" if checked_files is not None else ""
    lines.append(f"{len(findings)} finding(s){suffix}: {tally}")
    return "\n".join(lines)
