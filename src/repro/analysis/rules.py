"""Project-specific AST lint rules for the StoryPivot codebase.

Rules are small classes registered in :data:`REGISTRY` by code.  Codes
are grouped by concern:

* ``SP1xx`` — correctness / determinism (the incremental-identification
  and alignment guarantees the paper's evaluation rests on),
* ``SP2xx`` — concurrency (15 modules hold locks; the rules encode the
  discipline the runtime was reviewed against),
* ``SP3xx`` — observability (span/deadline scoping, canonical metric
  names, so ``/tracez`` and ``/metricz`` stay trustworthy).

Each rule receives a parsed :class:`ModuleInfo` (see ``engine.py``) and
yields :class:`~repro.analysis.findings.Finding` objects.  Suppression
(``# sp-lint: disable=SP201 -- reason``) and path scoping are handled by
the engine, not here.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding

#: directories whose modules form the deterministic core of the
#: reproduction: identification, alignment, and everything feeding them.
#: SP101/SP102 apply only inside these (wall clocks and fresh RNGs are
#: legitimate in observability/serving code).
CORE_MARKERS = (
    "core",
    "text",
    "sketch",
    "storage",
    "query",
    "evaluation",
    "extraction",
    "eventdata",
)

_LOCKISH = re.compile(r"lock|mutex|cond", re.IGNORECASE)

#: canonical metric name: lowercase dotted base, optional {k=v,...} suffix
_METRIC_NAME = re.compile(
    r"^[a-z][a-z0-9_.]*[a-z0-9](\{[a-z_][a-z0-9_]*=[^,{}]+(,[a-z_][a-z0-9_]*=[^,{}]+)*\})?$"
)

_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_GLOBAL_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "getrandbits", "seed", "triangular", "vonmisesvariate",
}

_RECORDING_CALLS = {
    # span / DLQ / metrics / logging sinks that count as "the error was
    # recorded somewhere an operator can see it"
    "record_error", "record_failure", "add_event", "append", "inc",
    "put", "warning", "error", "exception", "critical", "log", "debug",
    "info",
}


def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name for Name/Attribute chains (``self.tracer.span`` → str)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_lockish(expr: ast.AST) -> bool:
    name = _terminal_name(expr)
    return bool(name and _LOCKISH.search(name))


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class Rule:
    """Base class: subclasses set ``code``/``summary`` and yield findings."""

    code = "SP000"
    summary = ""
    core_only = False  # when True the engine skips non-core modules
    project_only = False  # when True `check` is empty; `check_project` runs

    def check(self, module) -> Iterator[Finding]:
        if self.project_only:
            return iter(())
        raise NotImplementedError  # pragma: no cover

    def check_project(self, project) -> Iterator[Finding]:
        """Interprocedural leg: runs once per lint invocation with the
        whole-project call graph.  Default: nothing."""
        return iter(())

    def finding(self, module, node: ast.AST, message: str, **detail) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            detail=detail,
        )


# ---------------------------------------------------------------------------
# SP1xx — correctness / determinism
# ---------------------------------------------------------------------------


class WallClockInCore(Rule):
    code = "SP101"
    summary = (
        "wall-clock read (time.time()/datetime.now()) in a deterministic "
        "core path; inject a clock callable instead"
    )
    core_only = True

    def check(self, module) -> Iterator[Finding]:
        for node in module.nodes():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            owner = _terminal_name(func.value)
            if (owner, func.attr) in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"core path reads the wall clock via "
                    f"{owner}.{func.attr}(); pass an injected clock so "
                    f"identification/alignment stay replayable",
                )


class UnseededRandomInCore(Rule):
    code = "SP102"
    summary = (
        "global random-module call or unseeded random.Random() in a core "
        "path; use an injected, seeded RNG"
    )
    core_only = True

    def check(self, module) -> Iterator[Finding]:
        for node in module.nodes():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if _terminal_name(func.value) != "random":
                continue
            if func.attr == "Random" and not node.args and not node.keywords:
                yield self.finding(
                    module, node,
                    "random.Random() without a seed makes a core path "
                    "nondeterministic; construct it from an injected seed",
                )
            elif func.attr in _GLOBAL_RANDOM_FUNCS:
                yield self.finding(
                    module, node,
                    f"random.{func.attr}() uses the process-global RNG; "
                    f"core paths must draw from an injected "
                    f"random.Random(seed)",
                )


class BareExcept(Rule):
    code = "SP103"
    summary = "bare `except:` swallows SystemExit/KeyboardInterrupt"

    def check(self, module) -> Iterator[Finding]:
        for node in module.nodes():
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module, node,
                    "bare `except:` catches SystemExit and "
                    "KeyboardInterrupt; name the exception types",
                )


def _handler_catches_broad(handler: ast.ExceptHandler) -> bool:
    types: List[ast.AST] = []
    if isinstance(handler.type, ast.Tuple):
        types = list(handler.type.elts)
    elif handler.type is not None:
        types = [handler.type]
    for node in types:
        if _terminal_name(node) in ("Exception", "BaseException"):
            return True
    return False


class SwallowedException(Rule):
    code = "SP104"
    summary = (
        "`except Exception` that neither re-raises, records the error "
        "(span/DLQ/log/metric), nor inspects the exception"
    )

    def check(self, module) -> Iterator[Finding]:
        for node in module.nodes():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _handler_catches_broad(node):
                continue
            if self._handles_error(node):
                continue
            yield self.finding(
                module, node,
                "overbroad except swallows the error silently; re-raise, "
                "record it on the active span, route it to the DLQ, or "
                "log it",
            )

    @staticmethod
    def _handles_error(handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
            if isinstance(node, ast.Raise):
                return True
            if bound and isinstance(node, ast.Name) and node.id == bound:
                return True
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name in _RECORDING_CALLS:
                    return True
        return False


# ---------------------------------------------------------------------------
# SP2xx — concurrency
# ---------------------------------------------------------------------------


class _LockScopeVisitor(ast.NodeVisitor):
    """Tracks the stack of lockish `with` blocks while visiting a body."""

    def __init__(self) -> None:
        self.lock_stack: List[str] = []

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            expr = item.context_expr
            # context expressions evaluate under whatever locks are
            # already held (with A: with open(...) runs open under A)
            self.visit(expr)
            target = expr.func if isinstance(expr, ast.Call) else expr
            if _is_lockish(target):
                name = _attr_chain(target) or _terminal_name(target) or "?"
                self.lock_stack.append(name)
                pushed += 1
        for child in node.body:
            self.visit(child)
        for _ in range(pushed):
            self.lock_stack.pop()

    # do not descend into nested defs: their bodies run later, not under
    # this lock
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class BlockingUnderLock(Rule):
    code = "SP201"
    summary = (
        "blocking call (time.sleep / open / Thread.join / Future.result) "
        "while holding a lock"
    )

    def check(self, module) -> Iterator[Finding]:
        findings: List[Finding] = []
        rule = self

        class Visitor(_LockScopeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                if self.lock_stack:
                    label = rule._blocking_label(node)
                    if label is not None:
                        findings.append(rule.finding(
                            module, node,
                            f"{label} while holding "
                            f"{self.lock_stack[-1]!r}; blocking under a "
                            f"lock stalls every contending thread",
                            lock=self.lock_stack[-1],
                        ))
                self.generic_visit(node)

        for func in module.nodes():
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visitor = Visitor()
                for stmt in func.body:
                    visitor.visit(stmt)
        return iter(findings)

    @staticmethod
    def _blocking_label(node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "open()"
        if not isinstance(func, ast.Attribute):
            return None
        owner = _terminal_name(func.value)
        if owner == "time" and func.attr == "sleep":
            return "time.sleep()"
        if owner in ("subprocess",) or owner == "socket":
            return f"{owner}.{func.attr}()"
        if owner == "os" and func.attr in ("fsync", "system"):
            return f"os.{func.attr}()"
        if func.attr == "join":
            # str.join always takes exactly one positional iterable;
            # Thread/queue joins take nothing or a timeout
            if not node.args or any(k.arg == "timeout" for k in node.keywords):
                return ".join()"
            return None
        if func.attr == "result":
            return ".result()"
        return None

    def check_project(self, project) -> Iterator[Finding]:
        # interprocedural leg: a *clean-looking* call under a lock that
        # resolves to a project function whose may-block set is non-empty
        from repro.analysis.contracts import contract_findings

        for finding in contract_findings(project):
            if finding.code == self.code:
                yield finding


class MutationOutsideLock(Rule):
    code = "SP202"
    summary = (
        "attribute guarded by a lock elsewhere in the class is mutated "
        "outside any `with <lock>` block"
    )

    _SETUP_METHODS = {"__init__", "__new__", "__post_init__", "__enter__"}

    def check(self, module) -> Iterator[Finding]:
        for node in module.nodes():
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module, cls: ast.ClassDef) -> Iterator[Finding]:
        #: attr -> set of lock names it was mutated under
        ownership: Dict[str, Set[str]] = {}
        #: (method, node, attr) mutated with no lock held
        unguarded: List[Tuple[str, ast.AST, str]] = []
        rule = self

        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name.endswith("_locked"):
                # convention: a ``*_locked`` method documents that its
                # caller already holds the owning lock
                continue

            class Visitor(_LockScopeVisitor):
                def _record(self, target: ast.AST, node: ast.AST) -> None:
                    if isinstance(target, (ast.Tuple, ast.List)):
                        for element in target.elts:
                            self._record(element, node)
                        return
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return
                    attr = target.attr
                    if _LOCKISH.search(attr):
                        return  # swapping the lock itself is setup, not state
                    if self.lock_stack:
                        ownership.setdefault(attr, set()).add(
                            self.lock_stack[-1]
                        )
                    elif method.name not in rule._SETUP_METHODS:
                        unguarded.append((method.name, node, attr))

                def visit_Assign(self, node: ast.Assign) -> None:
                    for target in node.targets:
                        self._record(target, node)
                    self.generic_visit(node)

                def visit_AugAssign(self, node: ast.AugAssign) -> None:
                    self._record(node.target, node)
                    self.generic_visit(node)

            visitor = Visitor()
            for stmt in method.body:
                visitor.visit(stmt)

        for method_name, node, attr in unguarded:
            if attr not in ownership:
                continue
            locks = "/".join(sorted(ownership[attr]))
            yield self.finding(
                module, node,
                f"self.{attr} is mutated under {locks!r} elsewhere in "
                f"{cls.name} but written here ({method_name}) without the "
                f"lock",
                attribute=attr, owner=locks, method=method_name,
            )


# ---------------------------------------------------------------------------
# SP3xx — observability
# ---------------------------------------------------------------------------


class ScopeNotContextManaged(Rule):
    code = "SP301"
    summary = (
        "tracer.span(...) / deadline_scope(...) result not used as a "
        "context manager"
    )

    _TRACERISH = re.compile(r"tracer", re.IGNORECASE)

    def check(self, module) -> Iterator[Finding]:
        with_exprs = set()
        for node in module.nodes():
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_exprs.add(id(item.context_expr))
        for node in module.nodes():
            if not isinstance(node, ast.Call) or id(node) in with_exprs:
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "deadline_scope":
                yield self.finding(
                    module, node,
                    "deadline_scope(...) must be entered with `with`; an "
                    "unentered scope never applies or restores the budget",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "span"
                and (owner := _terminal_name(func.value)) is not None
                and self._TRACERISH.search(owner)
            ):
                yield self.finding(
                    module, node,
                    "tracer.span(...) outside a `with` leaks an unended "
                    "span unless every exit path calls .end(); use the "
                    "context manager (annotate legitimate cross-thread "
                    "hand-offs)",
                )


class NonCanonicalMetricName(Rule):
    code = "SP302"
    summary = (
        "metric name literal is not canonical `name{label=value}` form "
        "(lowercase dotted base; labels via kwargs)"
    )

    _METRIC_METHODS = {"counter", "gauge", "histogram", "timer"}
    _REGISTRYISH = re.compile(r"metrics|registry", re.IGNORECASE)

    def check(self, module) -> Iterator[Finding]:
        for node in module.nodes():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in self._METRIC_METHODS
            ):
                continue
            owner = _terminal_name(func.value)
            if owner is None or not self._REGISTRYISH.search(owner):
                continue
            if not node.args:
                continue
            name = _const_str(node.args[0])
            if name is None:
                continue
            if not _METRIC_NAME.match(name):
                yield self.finding(
                    module, node,
                    f"metric name {name!r} is not canonical: use "
                    f"lowercase dotted names and pass labels as keyword "
                    f"arguments (stored as name{{label=value}})",
                    metric=name,
                )


# ---------------------------------------------------------------------------
# SP4xx — interprocedural taint (see dataflow.py for the engine)
# ---------------------------------------------------------------------------


class _TaintRule(Rule):
    """Shared plumbing: the taint fixpoint runs once per project and is
    cached on it; each code filters its own findings out."""

    project_only = True

    def check_project(self, project) -> Iterator[Finding]:
        from repro.analysis.dataflow import taint_findings

        for finding in taint_findings(project):
            if finding.code == self.code:
                yield finding


class TaintedFilePath(_TaintRule):
    code = "SP401"
    summary = (
        "untrusted value (connector record / HTTP input / federation "
        "envelope) used as a filesystem path without sanitization"
    )


class TaintedMetricName(_TaintRule):
    code = "SP402"
    summary = (
        "untrusted value reaches a metric/label name without passing "
        "_prom_escape/_prom_name"
    )


class TaintedResponseWrite(_TaintRule):
    code = "SP403"
    summary = (
        "untrusted value written raw to an HTTP/socket response without "
        "escaping or encoding"
    )


class TaintedWalAppend(_TaintRule):
    code = "SP404"
    summary = (
        "untrusted record reaches a WAL append / persisted state without "
        "passing the Normalizer gauntlet"
    )


class TaintedExec(_TaintRule):
    code = "SP405"
    summary = "untrusted value reaches eval/exec/subprocess/os.system"


# ---------------------------------------------------------------------------
# SP5xx — annotation checks (see contracts.py for the engine)
# ---------------------------------------------------------------------------


class UnknownContractAnnotation(Rule):
    code = "SP503"
    summary = "unknown or unattached sp-taint annotation"
    project_only = True

    def check_project(self, project) -> Iterator[Finding]:
        from repro.analysis.contracts import contract_findings

        for finding in contract_findings(project):
            if finding.code == self.code:
                yield finding


REGISTRY: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        WallClockInCore(),
        UnseededRandomInCore(),
        BareExcept(),
        SwallowedException(),
        BlockingUnderLock(),
        MutationOutsideLock(),
        ScopeNotContextManaged(),
        NonCanonicalMetricName(),
        TaintedFilePath(),
        TaintedMetricName(),
        TaintedResponseWrite(),
        TaintedWalAppend(),
        TaintedExec(),
        UnknownContractAnnotation(),
    )
}


def all_rules() -> List[Rule]:
    return [REGISTRY[code] for code in sorted(REGISTRY)]
