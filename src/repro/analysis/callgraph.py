"""Project-wide symbol table and call graph for interprocedural rules.

The intra-function rules (SP1xx–SP3xx) see one module at a time; the
taint (SP4xx), may-block (SP201) and lifecycle (SP6xx) passes need to
answer "who calls whom" across the whole ``src/`` tree.  This module
builds that answer from the same parsed :class:`ModuleInfo` objects the
engine already holds — nothing is re-parsed.

Resolution strategy (deliberately *partial*, with the holes counted):

* direct calls — ``f()``, ``module.f()``, ``from m import f; f()``;
* constructor calls — ``ClassName()`` resolves to ``__init__``;
* method calls — ``self.m()`` / ``cls.m()`` through the class and its
  project base classes, plus virtual dispatch: a receiver whose class
  is known (parameter annotation, ``x = ClassName()`` local, or a
  ``self.attr = ClassName()`` assignment anywhere in the class) links
  to the method on that class *and* every project override of it;
* the codebase's known registries — classes decorated with
  ``@register(...)`` are linked from ``REGISTRY.create`` /
  ``open_source`` call sites, ``Thread(target=f)`` and ``Loop(step=f)``
  link to ``f``, and
  a subscripted call through a module-level dict of functions
  (``TABLE[key](...)``) links to every value in the table;
* everything else is **unresolved** — a dynamic call the graph cannot
  see through.  Unresolved calls are counted per kind and exposed via
  :meth:`Project.stats` so CI can assert the soundness hole stays
  bounded instead of silently growing (see DESIGN.md).

Calls into the standard library or other non-project code are
*external*: not edges, but not soundness holes either — the taint and
may-block passes model them with explicit tables (sanitizers, blocking
calls).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: module names treated as "not ours": calls into them are external,
#: never unresolved.  Anything importable that is not a project module
#: lands here via the import table, so the list only seeds the obvious.
_STDLIB_HINTS = {
    "abc", "argparse", "ast", "base64", "binascii", "bisect", "collections",
    "contextlib", "copy", "csv", "dataclasses", "datetime", "errno",
    "functools", "gzip", "hashlib", "heapq", "html", "http", "io",
    "itertools", "json", "logging", "math", "os", "pathlib", "queue",
    "random", "re", "select", "shutil", "signal", "socket", "socketserver",
    "sqlite3", "statistics", "string", "struct", "subprocess", "sys",
    "tempfile", "threading", "time", "traceback", "types", "typing",
    "unicodedata", "urllib", "uuid", "warnings", "weakref", "xml", "zlib",
}

import builtins as _builtins

_BUILTIN_CALLS = frozenset(dir(_builtins))

#: spawn constructors, by name, and the keyword naming the body they run
_THREAD_BODIES = {"Thread": "target", "Loop": "step"}


def module_name_for(display_path: str) -> str:
    """Dotted module name for a display path.

    ``src/repro/connect/base.py`` → ``repro.connect.base``; paths
    outside a ``src`` root fall back to their slash-to-dot form, which
    keeps fixture trees resolvable relative to themselves.
    """
    parts = display_path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    return ".".join(p for p in parts if p)


class FunctionInfo:
    """One function or method in the project."""

    __slots__ = (
        "key", "name", "qualname", "class_name", "node", "module",
        "taint_marks", "params", "decorators", "lineno",
    )

    def __init__(self, module, node, class_name: Optional[str],
                 marks: Dict[int, List[str]]) -> None:
        self.module = module
        self.node = node
        self.name = node.name
        self.class_name = class_name
        self.qualname = f"{class_name}.{node.name}" if class_name else node.name
        self.key = f"{module.display_path}::{self.qualname}"
        self.lineno = node.lineno
        self.params = [a.arg for a in node.args.args]
        self.decorators = [
            _dotted(d.func) if isinstance(d, ast.Call) else _dotted(d)
            for d in node.decorator_list
        ]
        self.taint_marks: Set[str] = {
            value for line in _mark_lines(node) for value in marks.get(line, ())
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.key}>"


class CallSite:
    """One call expression inside a function, with its resolution."""

    __slots__ = ("node", "caller", "targets", "kind", "label")

    def __init__(self, node: ast.Call, caller: FunctionInfo,
                 targets: List[FunctionInfo], kind: str, label: str) -> None:
        self.node = node
        self.caller = caller
        #: project functions this call may dispatch to (empty for
        #: external and unresolved calls)
        self.targets = targets
        #: "project" | "external" | "unresolved"
        self.kind = kind
        self.label = label


class _ClassInfo:
    __slots__ = ("name", "module", "node", "bases", "methods", "attr_types",
                 "registry_schemes")

    def __init__(self, name, module, node) -> None:
        self.name = name
        self.module = module
        self.node = node
        self.bases: List[str] = []       # dotted base expressions, raw
        self.methods: Dict[str, FunctionInfo] = {}
        #: self.<attr> = ClassName(...) type facts, class-wide
        self.attr_types: Dict[str, str] = {}
        self.registry_schemes: List[str] = []


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _param_types(fn_node) -> Dict[str, str]:
    """name → dotted class of annotated params (``Optional[X]`` is X)."""
    types: Dict[str, str] = {}
    args = fn_node.args
    for arg in list(args.args) + list(args.kwonlyargs):
        ann = arg.annotation
        if isinstance(ann, ast.Subscript) and _dotted(ann.value) == "Optional":
            ann = ann.slice
        dotted = _dotted(ann) if ann is not None else None
        if dotted:
            types[arg.arg] = dotted
    return types


def _mark_lines(node) -> Tuple[int, int, int]:
    """The lines a ``# sp-taint:`` mark attaches to a function from: the
    line of (or the line above) the ``def`` or its first decorator."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return (first - 1, first, node.lineno)


def _annotation_marks(module) -> Dict[int, List[str]]:
    """``# sp-taint:`` directives by line number, read from comments only
    (a docstring that quotes one is not a mark)."""
    import io
    import re
    import tokenize

    marks: Dict[int, List[str]] = {}
    if "sp-taint" not in module.source:
        return marks
    pattern = re.compile(r"#\s*sp-taint:\s*([a-z\-]+(?:\s*,\s*[a-z\-]+)*)")
    for token in tokenize.generate_tokens(io.StringIO(module.source).readline):
        match = token.type == tokenize.COMMENT and pattern.match(token.string)
        if match:
            marks[token.start[0]] = [v.strip() for v in match.group(1).split(",")]
    return marks


class Project:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self, modules: Sequence) -> None:
        self.modules = list(modules)
        self.modules_by_name: Dict[str, object] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, _ClassInfo] = {}  # "modname.ClassName"
        self._classes_by_bare: Dict[str, List[_ClassInfo]] = {}
        self._subclasses: Dict[str, List[_ClassInfo]] = {}
        self._imports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        self._dispatch_tables: Dict[str, Dict[str, List[str]]] = {}
        self._registry_classes: List[_ClassInfo] = []
        self.calls: Dict[str, List[CallSite]] = {}
        self._counts = {"project": 0, "external": 0, "unresolved": 0}
        self._unresolved_sites: List[Tuple[str, int, str]] = []
        #: (module, line, marks) of each ``# sp-taint:`` line that attaches
        #: to no collected function, which the taint pass would never read
        self.stray_taint_marks: List[Tuple[object, int, List[str]]] = []
        self._collect()
        self._link()

    # -- phase 1: symbols ---------------------------------------------------

    def _collect(self) -> None:
        for module in self.modules:
            modname = module_name_for(module.display_path)
            module.modname = modname
            self.modules_by_name[modname] = module
            marks = _annotation_marks(module)
            imports: Dict[str, Tuple[str, str]] = {}
            tables: Dict[str, List[str]] = {}
            for node in module.tree.body:
                self._collect_stmt(module, node, None, marks, imports, tables)
            self._imports[module.display_path] = imports
            self._dispatch_tables[module.display_path] = tables
            if marks:
                attached = {
                    line for fn in self.functions.values()
                    if fn.module is module for line in _mark_lines(fn.node)
                }
                self.stray_taint_marks.extend(
                    (module, line, values) for line, values in marks.items()
                    if line not in attached
                )
        # subclass index over project classes (by bare base name — base
        # expressions are matched leniently, a miss just loses dispatch)
        for cls in self.classes.values():
            self._classes_by_bare.setdefault(cls.name, []).append(cls)
        for cls in self.classes.values():
            for base in cls.bases:
                bare = base.rsplit(".", 1)[-1]
                self._subclasses.setdefault(bare, []).append(cls)

    def _collect_stmt(self, module, node, class_info, marks, imports,
                      tables) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._record_import(node, imports)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                module, node,
                class_info.name if class_info is not None else None, marks,
            )
            self.functions[info.key] = info
            if class_info is not None:
                class_info.methods[node.name] = info
        elif isinstance(node, ast.ClassDef):
            cls = _ClassInfo(node.name, module, node)
            cls.bases = [d for d in (_dotted(b) for b in node.bases) if d]
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Call)
                    and (_dotted(decorator.func) or "").split(".")[-1]
                    == "register"
                ):
                    cls.registry_schemes.append("?")
                    self._registry_classes.append(cls)
            self.classes[f"{module.modname}.{node.name}"] = cls
            for child in node.body:
                self._collect_stmt(module, child, cls, marks, imports, tables)
            self._infer_attr_types(cls)
        elif isinstance(node, ast.Assign) and class_info is None:
            # module-level dict of functions = a dispatch table
            if isinstance(node.value, ast.Dict):
                values = [
                    _dotted(v) for v in node.value.values
                    if _dotted(v) is not None
                ]
                if values and len(values) == len(node.value.values):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tables[target.id] = values

    @staticmethod
    def _record_import(node, imports: Dict[str, Tuple[str, str]]) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imports[name] = ("module", alias.name)
        else:
            if node.module is None or node.level:
                return  # relative imports: not used in this tree
            for alias in node.names:
                name = alias.asname or alias.name
                imports[name] = ("symbol", f"{node.module}.{alias.name}")

    def _infer_attr_types(self, cls: _ClassInfo) -> None:
        """``self.attr = ClassName(...)`` and ``self.attr = param`` (an
        annotated parameter) facts from every method body."""
        for method in cls.methods.values():
            params = _param_types(method.node)
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if isinstance(value, ast.IfExp):
                    # `x if cond else Default()` — use whichever arm
                    # names a constructor; ties go to the truthy arm
                    for arm in (value.body, value.orelse):
                        if isinstance(arm, ast.Call):
                            value = arm
                            break
                if isinstance(value, ast.Name):
                    ctor = params.get(value.id)
                elif isinstance(value, ast.Call):
                    ctor = _dotted(value.func)
                else:
                    continue
                if ctor is None or not ctor.rsplit(".", 1)[-1][:1].isupper():
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attr_types.setdefault(target.attr, ctor)

    # -- phase 2: edges -----------------------------------------------------

    def _link(self) -> None:
        for fn in self.functions.values():
            sites: List[CallSite] = []
            local_types = self._local_var_types(fn)
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    sites.append(self._resolve_call(fn, node, local_types))
            self.calls[fn.key] = sites

    def _local_var_types(self, fn: FunctionInfo) -> Dict[str, str]:
        """name → dotted ClassName for annotated params and ctor locals."""
        types = _param_types(fn.node)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                ctor = _dotted(node.value.func)
                if ctor and ctor.rsplit(".", 1)[-1].lstrip("_")[:1].isupper():
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types.setdefault(target.id, ctor)
        return types

    def _class_for(self, fn: FunctionInfo) -> Optional[_ClassInfo]:
        if fn.class_name is None:
            return None
        return self.classes.get(f"{fn.module.modname}.{fn.class_name}")

    def _lookup_class(self, module, dotted: str) -> Optional[_ClassInfo]:
        """Resolve a dotted class expression in a module's namespace."""
        bare = dotted.rsplit(".", 1)[-1]
        head = dotted.split(".", 1)[0]
        imports = self._imports.get(module.display_path, {})
        entry = imports.get(head)
        if entry is not None:
            kind, target = entry
            full = target if kind == "symbol" else f"{target}.{bare}"
            cls = self.classes.get(full)
            if cls is not None:
                return cls
        cls = self.classes.get(f"{module.modname}.{bare}")
        if cls is not None:
            return cls
        candidates = self._classes_by_bare.get(bare, [])
        return candidates[0] if len(candidates) == 1 else None

    def _method_targets(self, cls: _ClassInfo, attr: str,
                        virtual: bool = True) -> List[FunctionInfo]:
        """Method on ``cls`` or its project bases, plus overrides."""
        out: List[FunctionInfo] = []
        seen: Set[str] = set()

        def base_lookup(c: _ClassInfo, depth: int = 0) -> None:
            if c.name in seen or depth > 8:
                return
            seen.add(c.name)
            if attr in c.methods:
                out.append(c.methods[attr])
                return
            for base in c.bases:
                parent = self._lookup_class(c.module, base)
                if parent is not None:
                    base_lookup(parent, depth + 1)

        base_lookup(cls)
        if virtual:
            stack = [cls.name]
            visited: Set[str] = set()
            while stack:
                name = stack.pop()
                if name in visited:
                    continue
                visited.add(name)
                for sub in self._subclasses.get(name, []):
                    if attr in sub.methods:
                        out.append(sub.methods[attr])
                    stack.append(sub.name)
        unique: Dict[str, FunctionInfo] = {f.key: f for f in out}
        return list(unique.values())

    def _resolve_call(self, fn: FunctionInfo, node: ast.Call,
                      local_types: Dict[str, str]) -> CallSite:
        label = _dotted(node.func) or "<dynamic>"
        targets = self._targets_for(fn, node, local_types)
        if targets is not None and targets:
            site = CallSite(node, fn, targets, "project", label)
        elif targets is not None:
            site = CallSite(node, fn, [], "external", label)
        else:
            site = CallSite(node, fn, [], "unresolved", label)
            self._unresolved_sites.append(
                (fn.module.display_path, node.lineno, label)
            )
        self._counts[site.kind] += 1
        # thread targets ride along whatever the call itself resolved to
        thread_targets = self._thread_targets(fn, node, local_types)
        if thread_targets:
            site.targets = list({
                f.key: f for f in site.targets + thread_targets
            }.values())
            if site.kind != "project":
                self._counts[site.kind] -= 1
                self._counts["project"] += 1
                site.kind = "project"
        return site

    def _targets_for(self, fn, node, local_types
                     ) -> Optional[List[FunctionInfo]]:
        """Project targets; ``[]`` = external, ``None`` = unresolved."""
        func = node.func
        module = fn.module
        imports = self._imports.get(module.display_path, {})

        if isinstance(func, ast.Name):
            name = func.id
            # registry dispatch: creating "whichever connector the spec
            # names" fans out to every registered class's constructor
            if name in ("open_source",) and self._registry_classes:
                return self._registry_fanout()
            local = self.functions.get(f"{module.display_path}::{name}")
            if local is not None and local.class_name is None:
                return [local]
            cls = self.classes.get(f"{module.modname}.{name}")
            if cls is not None:
                return self._ctor_targets(cls)
            entry = imports.get(name)
            if entry is not None:
                return self._imported_targets(entry)
            if name in _BUILTIN_CALLS:
                return []
            return None

        if isinstance(func, ast.Attribute):
            attr = func.attr
            owner = func.value
            if attr == "create" and self._registry_classes and (
                (_dotted(owner) or "").lower().endswith(("registry", "_factories"))
                or (_dotted(owner) or "") == "REGISTRY"
            ):
                return self._registry_fanout()
            if isinstance(owner, ast.Name):
                if owner.id in ("self", "cls") and fn.class_name is not None:
                    cls = self._class_for(fn)
                    if cls is not None:
                        found = self._method_targets(cls, attr, virtual=False)
                        if found:
                            return found
                        # unknown attr on a fully-project class: dynamic
                        return None
                    return None
                entry = imports.get(owner.id)
                if entry is not None:
                    kind, target = entry
                    if kind == "module":
                        if target.split(".")[0] in _STDLIB_HINTS:
                            return []
                        mod = self.modules_by_name.get(target)
                        if mod is not None:
                            found = self.functions.get(
                                f"{mod.display_path}::{attr}"
                            )
                            if found is not None:
                                return [found]
                            cls = self.classes.get(f"{target}.{attr}")
                            if cls is not None:
                                return self._ctor_targets(cls)
                            return []  # project module, unknown attr: external-ish
                        return []
                    # symbol import used as receiver: ClassName.method(...)
                    cls = self.classes.get(target)
                    if cls is not None:
                        return self._method_targets(cls, attr, virtual=False)
                    if target.split(".")[0] in _STDLIB_HINTS:
                        return []
                    return None
                typed = local_types.get(owner.id)
                if typed is not None:
                    cls = self._lookup_class(module, typed)
                    if cls is not None:
                        found = self._method_targets(cls, attr)
                        if found:
                            return found
                    if typed.split(".")[0] in _STDLIB_HINTS:
                        return []
                    return None
                cls = self.classes.get(f"{module.modname}.{owner.id}")
                if cls is not None:
                    return self._method_targets(cls, attr, virtual=False)
                return None
            base = owner.value if isinstance(owner, ast.Attribute) else None
            if isinstance(base, ast.Name) and (
                base.id == "self" or base.id in local_types
            ):
                # self.attr.m() through the class's attribute types; a
                # typed local's attribute (shard.loop.start()) likewise
                cls = (
                    self._class_for(fn) if base.id == "self"
                    else self._lookup_class(module, local_types[base.id])
                )
                if cls is not None:
                    typed = cls.attr_types.get(owner.attr)
                    if typed is not None:
                        target_cls = self._lookup_class(module, typed)
                        if target_cls is not None:
                            found = self._method_targets(target_cls, attr)
                            if found:
                                return found
                        if typed.split(".")[0] in _STDLIB_HINTS:
                            return []
                return None
            dotted = _dotted(func)
            if dotted is not None and dotted.split(".")[0] in _STDLIB_HINTS:
                return []
            return None

        if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
            table = self._dispatch_tables.get(module.display_path, {}).get(
                func.value.id
            )
            if table:
                out: List[FunctionInfo] = []
                for name in table:
                    found = self.functions.get(
                        f"{module.display_path}::{name.rsplit('.', 1)[-1]}"
                    )
                    if found is not None:
                        out.append(found)
                if out:
                    return out
            return None

        return None

    def _imported_targets(self, entry) -> Optional[List[FunctionInfo]]:
        kind, target = entry
        if kind == "module":
            return [] if target.split(".")[0] in _STDLIB_HINTS else []
        modname, _, symbol = target.rpartition(".")
        if modname.split(".")[0] in _STDLIB_HINTS:
            return []
        mod = self.modules_by_name.get(modname)
        if mod is not None:
            found = self.functions.get(f"{mod.display_path}::{symbol}")
            if found is not None:
                return [found]
            cls = self.classes.get(target)
            if cls is not None:
                return self._ctor_targets(cls)
            return []
        return []  # import of non-project, non-stdlib code: external

    def _ctor_targets(self, cls: _ClassInfo) -> List[FunctionInfo]:
        found = self._method_targets(cls, "__init__", virtual=False)
        return found if found else []

    def _registry_fanout(self) -> List[FunctionInfo]:
        out: List[FunctionInfo] = []
        for cls in self._registry_classes:
            out.extend(self._ctor_targets(cls))
        return out

    def _thread_targets(self, fn, node, local_types) -> List[FunctionInfo]:
        dotted = _dotted(node.func) or ""
        body = _THREAD_BODIES.get(dotted.rsplit(".", 1)[-1])
        if body is None:
            return []
        for keyword in node.keywords:
            if keyword.arg != body:
                continue
            value = keyword.value
            if isinstance(value, ast.Name):
                found = self.functions.get(
                    f"{fn.module.display_path}::{value.id}"
                )
                return [found] if found is not None else []
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
                and fn.class_name is not None
            ):
                cls = self._class_for(fn)
                if cls is not None:
                    return self._method_targets(cls, value.attr, virtual=False)
        return []

    # -- queries ------------------------------------------------------------

    def callees(self, key: str) -> Iterator[Tuple[CallSite, FunctionInfo]]:
        for site in self.calls.get(key, ()):
            for target in site.targets:
                yield site, target

    def registered_classes(self) -> List[str]:
        return sorted(
            f"{cls.module.modname}.{cls.name}"
            for cls in self._registry_classes
        )

    def stats(self) -> Dict[str, object]:
        """Call-resolution accounting — the soundness ledger CI watches."""
        total = sum(self._counts.values())
        unresolved = self._counts["unresolved"]
        return {
            "functions": len(self.functions),
            "classes": len(self.classes),
            "call_sites": total,
            "resolved_project": self._counts["project"],
            "external": self._counts["external"],
            "unresolved": unresolved,
            "unresolved_ratio": round(unresolved / total, 4) if total else 0.0,
        }

    def unresolved_sites(self) -> List[Tuple[str, int, str]]:
        return sorted(self._unresolved_sites)
