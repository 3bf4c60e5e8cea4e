"""Interprocedural taint analysis: the SP4xx rule family.

The gauntlet contract ("nothing reaches the WAL without normalization",
"every metric name is canonical/escaped") was prose until now; this
pass makes it machine-checked.  Untrusted *sources* — connector raw
records, HTTP query/header/body values, WAL/segment bytes read back
from disk, federation envelopes — must pass a *sanitizer* before
reaching a *sink* (file paths, metric names, raw response writes, WAL
appends, eval/subprocess).

The analysis is a CodeQL-style summary propagation over the project
call graph, context-insensitive and flow-insensitive within a function
(statement order only drives convergence):

* per function, a fixpoint computes which locals are tainted, where
  taint = a small set of *origins* (a concrete source site, or "my
  parameter i");
* per function, a **summary** records which parameters flow to the
  return value and which parameters reach a sink (with the inner call
  chain), so callers can continue flows without re-analysis;
* summaries propagate around the call graph to a project fixpoint, and
  a final pass materializes findings whose origin is a concrete source,
  each carrying its full source → call-chain → sink trace in
  ``Finding.detail["trace"]``.

Boundaries are declared three ways, in priority order: in-source
annotations (``# sp-taint: source`` / ``# sp-taint: sanitizer`` on the
``def`` line or the line above), the built-in pattern tables below
(``.pull()`` results, ``RawItem`` parameters, handler ``params`` dicts,
``rfile``/headers reads), and nothing else — an unresolved call with a
tainted argument is a counted soundness hole (see ``callgraph.stats``),
not a silent pass.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

#: origins: ("source", path, line, kind) or ("param", fn_key, index)
Origin = Tuple
#: taint value: origin -> trace steps (tuples of "path:line what")
Taint = Dict[Origin, Tuple[str, ...]]

_MAX_STEPS = 12
_MAX_ORIGINS = 6

# -- boundary tables --------------------------------------------------------

#: method names whose call *result* is untrusted, by receiver pattern
_SOURCE_CALLS = (
    # connector raw records: every SourceConnector.pull override
    (re.compile(r".*"), "pull", "connector record"),
    # HTTP header values off the stdlib handler
    (re.compile(r"headers$"), "get", "http header"),
    (re.compile(r"headers$"), "getheader", "http header"),
    # request body / socket bytes
    (re.compile(r"rfile$"), "read", "http body"),
    (re.compile(r"rfile$"), "readline", "http body"),
)

#: parameter names/annotations that arrive untrusted
_SOURCE_PARAM_ANNOTATIONS = {"RawItem"}
_SOURCE_PARAM_NAMES = {"params": "http query value"}

#: callables whose result is clean no matter the input (coercions and
#: escapes); dotted tails compared against the call label
_SANITIZER_CALLS = {
    "_prom_escape", "_prom_name", "parse_traceparent", "decode_cursor",
    "normalize",  # the Normalizer gauntlet entry point
    "int", "float", "bool", "len", "ord", "hash", "isinstance", "id",
    "repr", "ascii", "hex", "oct", "abs", "round", "range", "enumerate",
    "json.dumps", "dumps",  # JSON-encoded output is escaped text
    "basename",  # os.path.basename strips traversal
}

_METRIC_METHODS = {"counter", "gauge", "histogram", "timer"}
_REGISTRYISH = re.compile(r"metrics|registry", re.IGNORECASE)
_WALISH = re.compile(r"wal", re.IGNORECASE)
_RESPONSEISH = re.compile(r"wfile|\bsock\b|socket|connection", re.IGNORECASE)

_PATH_CALLS = {
    "open": (0,),
    "os.remove": (0,), "os.unlink": (0,), "os.rename": (0, 1),
    "os.replace": (0, 1), "os.makedirs": (0,), "os.rmdir": (0,),
    "shutil.rmtree": (0,),
}
_EXEC_CALLS = {
    "eval", "exec", "os.system", "os.popen", "subprocess.run",
    "subprocess.Popen", "subprocess.call", "subprocess.check_output",
    "subprocess.check_call",
}

#: modules whose ``params`` dicts arrive straight off the wire: the read
#: API and the replication listener's routes
_HTTP_BOUNDARY = re.compile(r"(^|/)(server|handlers?|replication/leader)[/.]")


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _receiver_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return _dotted(func.value) or ""
    return ""


class _Sink:
    __slots__ = ("code", "label", "site")

    def __init__(self, code: str, label: str, site: ast.AST) -> None:
        self.code = code
        self.label = label
        self.site = site


def _classify_sinks(node: ast.Call) -> List[Tuple["_Sink", List[ast.AST]]]:
    """Sinks this call feeds, with the argument expressions that land
    in the sensitive position."""
    func = node.func
    dotted = _dotted(func) or ""
    tail = dotted.rsplit(".", 1)[-1]
    out: List[Tuple[_Sink, List[ast.AST]]] = []
    args = list(node.args)
    if dotted in _PATH_CALLS or tail == "open" and dotted == "open":
        positions = _PATH_CALLS.get(dotted, (0,))
        exprs = [args[i] for i in positions if i < len(args)]
        if exprs:
            out.append((_Sink("SP401", f"{dotted}() file path", node), exprs))
    if dotted in _EXEC_CALLS:
        if args:
            out.append((_Sink("SP405", f"{dotted}()", node), args))
    if isinstance(func, ast.Attribute):
        receiver = _receiver_name(func)
        if (
            func.attr in _METRIC_METHODS
            and _REGISTRYISH.search(receiver or "")
            and args
        ):
            out.append((_Sink(
                "SP402", f"{receiver}.{func.attr}() metric name", node,
            ), [args[0]]))
        if func.attr == "append" and _WALISH.search(receiver or "") and args:
            out.append((_Sink(
                "SP404", f"{receiver}.append() WAL record", node,
            ), args))
        if (
            func.attr in ("write", "sendall", "send")
            and _RESPONSEISH.search(receiver or "")
            and args
        ):
            out.append((_Sink(
                "SP403", f"{receiver}.{func.attr}() response bytes", node,
            ), args))
    return out


class _Summary:
    __slots__ = ("returns_params", "returns_sources", "param_flows")

    def __init__(self) -> None:
        #: parameter indices whose taint reaches the return value
        self.returns_params: Set[int] = set()
        #: source origins returned outright: {origin: steps}
        self.returns_sources: Taint = {}
        #: param index -> list of (sink_code, sink_label, path, line,
        #: inner trace steps)
        self.param_flows: Dict[int, List[Tuple]] = {}

    def snapshot(self) -> Tuple:
        return (
            frozenset(self.returns_params),
            frozenset(self.returns_sources),
            tuple(sorted(
                (i, len(flows)) for i, flows in self.param_flows.items()
            )),
        )


def _merge(into: Taint, add: Taint) -> bool:
    changed = False
    for origin, steps in add.items():
        if origin not in into and len(into) < _MAX_ORIGINS:
            into[origin] = steps
            changed = True
    return changed


class _FunctionPass:
    """One flow-insensitive taint pass over a single function."""

    def __init__(self, project, fn, summaries, spec) -> None:
        self.project = project
        self.fn = fn
        self.summaries = summaries
        self.spec = spec
        self.env: Dict[str, Taint] = {}
        self.summary = _Summary()
        #: (code, sink path, line, origin) -> Finding, source-origin hits
        self.hits: Dict[Tuple, Finding] = {}
        self.sites = {
            id(site.node): site for site in project.calls.get(fn.key, ())
        }
        self._seed_params()

    def _seed_params(self) -> None:
        args = self.fn.node.args
        for index, arg in enumerate(args.args):
            taint: Taint = {("param", self.fn.key, index): ()}
            ann = _dotted(arg.annotation) if arg.annotation is not None \
                else None
            bare = (ann or "").rsplit(".", 1)[-1]
            kind = None
            if bare in _SOURCE_PARAM_ANNOTATIONS:
                kind = f"untrusted {bare} parameter"
            elif arg.arg in _SOURCE_PARAM_NAMES and _HTTP_BOUNDARY.search(
                self.fn.module.display_path
            ):
                kind = _SOURCE_PARAM_NAMES[arg.arg]
            if kind is not None:
                origin = (
                    "source", self.fn.module.display_path, arg.lineno
                    if hasattr(arg, "lineno") else self.fn.lineno, kind,
                )
                taint[origin] = (self._step(self.fn.node, f"{kind} "
                                            f"`{arg.arg}`"),)
            self.env[arg.arg] = taint

    def _step(self, node: ast.AST, what: str) -> str:
        line = getattr(node, "lineno", self.fn.lineno)
        return f"{self.fn.module.display_path}:{line} {what}"

    # -- driver -------------------------------------------------------------

    def run(self) -> None:
        for _ in range(4):
            before = {k: frozenset(v) for k, v in self.env.items()}
            for stmt in self.fn.node.body:
                self._stmt(stmt)
            if {k: frozenset(v) for k, v in self.env.items()} == before:
                break

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes run elsewhere
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint = self._eval(stmt.value)
                for origin, steps in taint.items():
                    if origin[0] == "param" and origin[1] == self.fn.key:
                        self.summary.returns_params.add(origin[2])
                    elif origin[0] == "source":
                        _merge(self.summary.returns_sources, {origin: steps})
            return
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, taint)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._eval(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value)
            existing = self._read_target(stmt.target)
            _merge(taint, existing)
            self._bind(stmt.target, taint)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._eval(stmt.iter))
            for child in stmt.body + stmt.orelse:
                self._stmt(child)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint)
            for child in stmt.body:
                self._stmt(child)
            return
        if isinstance(stmt, ast.If):
            self._eval(stmt.test)
            for child in stmt.body + stmt.orelse:
                self._stmt(child)
            return
        if isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for child in stmt.body + stmt.orelse:
                self._stmt(child)
            return
        if isinstance(stmt, ast.Try):
            for child in (stmt.body + stmt.orelse + stmt.finalbody):
                self._stmt(child)
            for handler in stmt.handlers:
                for child in handler.body:
                    self._stmt(child)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._eval(value)
            return
        # anything else: evaluate embedded expressions for sink hits
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._eval(child)

    def _bind(self, target: ast.AST, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            slot = self.env.setdefault(target.id, {})
            if taint:
                _merge(slot, taint)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, taint)
            return
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            slot = self.env.setdefault(f"self.{target.attr}", {})
            if taint:
                _merge(slot, taint)
        if isinstance(target, ast.Starred):
            self._bind(target.value, taint)

    def _read_target(self, target: ast.AST) -> Taint:
        if isinstance(target, ast.Name):
            return dict(self.env.get(target.id, {}))
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return dict(self.env.get(f"self.{target.attr}", {}))
        return {}

    # -- expressions --------------------------------------------------------

    def _eval(self, expr: ast.expr) -> Taint:
        if isinstance(expr, ast.Name):
            return dict(self.env.get(expr.id, {}))
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                slot = self.env.get(f"self.{expr.attr}")
                if slot:
                    return dict(slot)
            return self._eval(expr.value)
        if isinstance(expr, ast.Subscript):
            taint = self._eval(expr.value)
            _merge(taint, self._eval(expr.slice))
            return taint
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, (ast.BinOp,)):
            taint = self._eval(expr.left)
            _merge(taint, self._eval(expr.right))
            return taint
        if isinstance(expr, ast.BoolOp):
            taint: Taint = {}
            for value in expr.values:
                _merge(taint, self._eval(value))
            return taint
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            taint = self._eval(expr.body)
            _merge(taint, self._eval(expr.orelse))
            return taint
        if isinstance(expr, ast.Compare):
            self._eval(expr.left)
            for comparator in expr.comparators:
                self._eval(comparator)
            return {}  # booleans carry no taint
        if isinstance(expr, ast.JoinedStr):
            taint = {}
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    _merge(taint, self._eval(value.value))
            return taint
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            taint = {}
            for element in expr.elts:
                if isinstance(element, ast.Starred):
                    element = element.value
                _merge(taint, self._eval(element))
            return taint
        if isinstance(expr, ast.Dict):
            taint = {}
            for key in expr.keys:
                if key is not None:
                    _merge(taint, self._eval(key))
            for value in expr.values:
                _merge(taint, self._eval(value))
            return taint
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            taint = {}
            for generator in expr.generators:
                source = self._eval(generator.iter)
                self._bind(generator.target, source)
            _merge(taint, self._eval(expr.elt))
            return taint
        if isinstance(expr, ast.DictComp):
            for generator in expr.generators:
                self._bind(generator.target, self._eval(generator.iter))
            taint = self._eval(expr.key)
            _merge(taint, self._eval(expr.value))
            return taint
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        if isinstance(expr, ast.Lambda):
            return {}
        if isinstance(expr, ast.NamedExpr):
            taint = self._eval(expr.value)
            self._bind(expr.target, taint)
            return taint
        return {}

    # -- calls --------------------------------------------------------------

    def _call(self, node: ast.Call) -> Taint:
        func = node.func
        dotted = _dotted(func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        site = self.sites.get(id(node))
        targets = site.targets if site is not None else []

        arg_taints = [self._eval(a) for a in node.args]
        kw_taints = {
            k.arg: self._eval(k.value) for k in node.keywords
        }
        receiver_taint: Taint = {}
        if isinstance(func, ast.Attribute):
            receiver_taint = self._eval(func.value)

        # sink checks happen before sanitizer classification: a sink
        # call is a sink even if its own result would be "clean"
        self._check_sinks(node, arg_taints, kw_taints)

        # sanitizers: by annotation on any resolved target, then by name
        if any("sanitizer" in t.taint_marks for t in targets):
            return {}
        if dotted in _SANITIZER_CALLS or tail in _SANITIZER_CALLS:
            return {}

        # sources: by annotation, then by pattern
        result: Taint = {}
        source_kind = self._source_kind(node, targets)
        if source_kind is not None:
            origin = (
                "source", self.fn.module.display_path, node.lineno,
                source_kind,
            )
            result[origin] = (self._step(node, f"{source_kind} from "
                                         f"{dotted or 'call'}()"),)

        # project callees: continue flows through their summaries
        for target in targets:
            summary = self.summaries.get(target.key)
            if summary is None:
                continue
            offset = 1 if (
                target.class_name is not None
                and target.params[:1] == ["self"]
                and isinstance(func, ast.Attribute)
            ) else 0
            for origin, steps in summary.returns_sources.items():
                call_step = self._step(node, f"return of {target.qualname}()")
                _merge(result, {origin: self._extend(steps, call_step)})
            for index in summary.returns_params:
                taint = self._arg_taint(index, offset, arg_taints, kw_taints,
                                        target, receiver_taint)
                if taint:
                    call_step = self._step(
                        node, f"through {target.qualname}()"
                    )
                    _merge(result, {
                        o: self._extend(s, call_step)
                        for o, s in taint.items()
                    })
            for index, flows in summary.param_flows.items():
                taint = self._arg_taint(index, offset, arg_taints, kw_taints,
                                        target, receiver_taint)
                if not taint:
                    continue
                call_step = self._step(node, f"into {target.qualname}()")
                for code, label, path, line, inner in flows:
                    for origin, steps in taint.items():
                        chained = self._extend(
                            self._extend(steps, call_step), *inner
                        )
                        self._record_flow(
                            code, label, path, line, origin, chained
                        )

        if targets:
            # a resolved project call: the summaries above are the whole
            # story — do NOT fall through to the conservative carry,
            # that would undo every sanitizer inside project functions
            return result

        if result:
            return result

        # unknown / external call: string-ish transforms keep taint
        carried: Taint = dict(receiver_taint)
        for taint in arg_taints:
            _merge(carried, taint)
        for taint in kw_taints.values():
            _merge(carried, taint)
        return carried

    def _source_kind(self, node: ast.Call,
                     targets) -> Optional[str]:
        if any("source" in t.taint_marks for t in targets):
            return "declared untrusted source"
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = _receiver_name(func)
            for pattern, attr, kind in _SOURCE_CALLS:
                if func.attr == attr and pattern.search(receiver or ""):
                    if attr == "pull":
                        # only connector-ish pulls: a project target that
                        # is a pull method, or a receiver naming one
                        if targets or re.search(
                            r"connector|source|feed", receiver or "",
                            re.IGNORECASE,
                        ):
                            return kind
                        continue
                    return kind
        return None

    def _arg_taint(self, param_index: int, offset: int,
                   arg_taints, kw_taints, target,
                   receiver_taint: Taint) -> Taint:
        if offset == 1 and param_index == 0:
            return receiver_taint  # `self` is the call's receiver
        positional = param_index - offset
        if 0 <= positional < len(arg_taints):
            return arg_taints[positional]
        if 0 <= param_index < len(target.params):
            name = target.params[param_index]
            if name in kw_taints:
                return kw_taints[name]
        return {}

    @staticmethod
    def _extend(steps: Tuple[str, ...], *extra: str) -> Tuple[str, ...]:
        merged = list(steps)
        for step in extra:
            if step not in merged:
                merged.append(step)
        return tuple(merged[:_MAX_STEPS])

    def _check_sinks(self, node: ast.Call, arg_taints, kw_taints) -> None:
        for sink, exprs in _classify_sinks(node):
            for expr in exprs:
                taint = self._taint_of_arg(node, expr, arg_taints)
                for origin, steps in taint.items():
                    sink_step = self._step(node, f"sink {sink.label}")
                    chained = self._extend(steps, sink_step)
                    self._record_flow(
                        sink.code, sink.label,
                        self.fn.module.display_path, node.lineno,
                        origin, chained,
                    )

    def _taint_of_arg(self, node: ast.Call, expr: ast.AST,
                      arg_taints) -> Taint:
        for index, arg in enumerate(node.args):
            if arg is expr:
                return arg_taints[index]
        return self._eval(expr)  # keyword / recomputed (cheap)

    def _record_flow(self, code: str, label: str, path: str, line: int,
                     origin: Origin, steps: Tuple[str, ...]) -> None:
        if origin[0] == "param":
            if origin[1] != self.fn.key:
                return  # a caller will attribute this flow to its own args
            self.summary.param_flows.setdefault(origin[2], [])
            flows = self.summary.param_flows[origin[2]]
            entry = (code, label, path, line, steps)
            if entry not in flows and len(flows) < 8:
                flows.append(entry)
            return
        _, source_path, source_line, kind = origin
        key = (code, path, line, origin)
        if key in self.hits:
            return
        trace = list(steps)
        self.hits[key] = Finding(
            code=code,
            message=(
                f"untrusted {kind} (from {source_path}:{source_line}) "
                f"reaches {label} without a sanitizer; flow: "
                + " -> ".join(s.split(" ", 1)[0] for s in trace)
            ),
            path=path,
            line=line,
            detail={
                "source": f"{source_path}:{source_line} {kind}",
                "sink": label,
                "trace": trace,
            },
        )


class TaintAnalysis:
    """Project-wide fixpoint over :class:`_FunctionPass` summaries."""

    def __init__(self, project) -> None:
        self.project = project
        self.summaries: Dict[str, _Summary] = {}
        self.findings: List[Finding] = []
        self._run()

    def _run(self) -> None:
        for key in self.project.functions:
            self.summaries[key] = _Summary()
        for _ in range(6):
            changed = False
            hits: Dict[Tuple, Finding] = {}
            for key, fn in self.project.functions.items():
                tick = _FunctionPass(self.project, fn, self.summaries, None)
                tick.run()
                before = self.summaries[key].snapshot()
                self.summaries[key] = tick.summary
                if tick.summary.snapshot() != before:
                    changed = True
                hits.update(tick.hits)
            self._hits = hits
            if not changed:
                break
        self.findings = sorted(self._hits.values(), key=Finding.sort_key)


def taint_findings(project) -> List[Finding]:
    """Run (or reuse) the taint fixpoint for a project."""
    cached = getattr(project, "_taint", None)
    if cached is None:
        cached = TaintAnalysis(project)
        project._taint = cached
    return cached.findings
