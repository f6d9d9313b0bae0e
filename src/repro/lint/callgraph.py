"""Whole-program view for the stage-fingerprint rule.

Per-file AST rules (``repro.lint.checks``) cannot see that a registered
stage's behaviour changed through a helper it calls.  This module
builds the layer :mod:`.fingerprint` stands on:

* module-level **name binding** — imports (absolute and relative,
  aliased or not), ``def``/``class`` statements and simple ``g = f``
  aliases, per module;
* an intra-package **call graph** — every call site in every function
  resolved (where syntactically possible) to the fully-qualified
  function it targets, including ``self.method()`` dispatch and
  re-exports followed through ``__init__`` bindings;
* **instance calls through annotations** — ``x.m()`` where parameter
  ``x`` is annotated with an indexed class, and ``self.a.m()`` /
  ``x.a.m()`` where the class body declares ``a: Cls``;
* **transitive closures** over those edges, for callee-set fingerprints.

Resolution is name-based and conservative: unannotated instances,
inherited methods, dynamic dispatch, or external libraries resolve to
``None`` and simply end the analysis there — the same trade the
per-file rules make (high signal, zero imports executed).

Indexes are cached per tree root keyed by a file stat signature, so one
lint run over N files builds the program view once, and repeated
``run_lint`` calls in one process (the test suite) reuse it until a
file changes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "ProgramIndex",
    "attr_chain",
    "module_name_for",
    "own_nodes",
    "program_index_for_root",
]

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``np.random.seed`` → ``["np", "random", "seed"]``; ``None`` if the
    expression is not a plain Name/Attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def own_nodes(root: ast.AST) -> Iterable[ast.AST]:
    """Every node in ``root``'s own body, not descending into nested
    function/class definitions (each is visited separately)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


def module_name_for(scope_path: str) -> str:
    """Dotted module name from a lint scope path.

    ``repro/api/stages.py`` → ``repro.api.stages``;
    ``repro/lint/__init__.py`` → ``repro.lint``.
    """
    parts = list(Path(scope_path).with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function, after resolution."""

    raw: str  # dotted source text of the callee ("hashing.stable_hash")
    callee: Optional[str]  # resolved qname ("repro.api.hashing:stable_hash")
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One function (or the module-body pseudo-function) in the program."""

    qname: str  # "<module dotted>:<local qualname>"
    module: str
    local: str  # "f", "Cls.m", "outer.inner", or MODULE_BODY
    scope_path: str
    node: ast.AST  # FunctionDef/AsyncFunctionDef, or Module for MODULE_BODY
    class_name: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed module: bindings plus the functions defined in it."""

    name: str
    scope_path: str
    path: Path
    tree: ast.Module
    is_package: bool
    bindings: Dict[str, str] = field(default_factory=dict)  # local → dotted target
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)  # local qual → info
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)  # local qual → node


def _collect_bindings(module: ModuleInfo) -> None:
    """Module-level name binding: imports, defs, classes, plain aliases."""
    pkg_parts = module.name.split(".") if module.name else []
    if not module.is_package:
        pkg_parts = pkg_parts[:-1]
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    module.bindings[alias.asname] = alias.name
                else:
                    # `import x.y` binds `x`; chains through it resolve
                    # against the full dotted path naturally.
                    root = alias.name.split(".", 1)[0]
                    module.bindings[root] = root
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                base = pkg_parts[: len(pkg_parts) - (stmt.level - 1)]
            else:
                base = []
            target_mod = ".".join(base + ([stmt.module] if stmt.module else []))
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.bindings[local] = (
                    f"{target_mod}.{alias.name}" if target_mod else alias.name
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module.bindings[stmt.name] = f"{module.name}.{stmt.name}"
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
            # `g = f` module-level alias of an already-bound name.
            target = module.bindings.get(stmt.value.id)
            if target:
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        module.bindings[tgt.id] = target


def _collect_functions(module: ModuleInfo) -> None:
    """Register every function with a qualname path; classes contribute a
    path segment, nested defs contribute their parent function's name."""

    def visit(node: ast.AST, prefix: List[str], class_name: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = ".".join(prefix + [child.name])
                module.functions[local] = FunctionInfo(
                    qname=f"{module.name}:{local}",
                    module=module.name,
                    local=local,
                    scope_path=module.scope_path,
                    node=child,
                    class_name=class_name,
                )
                visit(child, prefix + [child.name], class_name)
            elif isinstance(child, ast.ClassDef):
                module.classes[".".join(prefix + [child.name])] = child
                visit(child, prefix + [child.name], child.name)
            else:
                visit(child, prefix, class_name)

    visit(module.tree, [], None)
    module.functions[MODULE_BODY] = FunctionInfo(
        qname=f"{module.name}:{MODULE_BODY}",
        module=module.name,
        local=MODULE_BODY,
        scope_path=module.scope_path,
        node=module.tree,
    )


class ProgramIndex:
    """Symbol resolution and call edges over one source tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        # Populated lazily by the fingerprint layer.
        self.fingerprint_cache: Optional[dict] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, files: Sequence[Tuple[Path, str]]) -> "ProgramIndex":
        """Index ``(path, scope_path)`` pairs (``collect_files`` output).

        Files that fail to parse are skipped — the lint engine reports
        those as ``parse`` findings through its own path.
        """
        index = cls()
        for path, scope_path in files:
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, OSError, UnicodeDecodeError):
                continue
            name = module_name_for(scope_path)
            module = ModuleInfo(
                name=name,
                scope_path=scope_path,
                path=path,
                tree=tree,
                is_package=Path(scope_path).name == "__init__.py",
            )
            # Last writer wins on (exotic) duplicate module names; the
            # deterministic collect_files order keeps this stable.
            index.modules[name] = module
        for module in index.modules.values():
            _collect_bindings(module)
            _collect_functions(module)
            for info in module.functions.values():
                index.functions[info.qname] = info
        for module in index.modules.values():
            for info in module.functions.values():
                index._resolve_calls(module, info)
        return index

    def _resolve_calls(self, module: ModuleInfo, info: FunctionInfo) -> None:
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            info.calls.append(
                CallSite(
                    raw=".".join(chain),
                    callee=self._resolve_chain(module, info, chain),
                    line=node.lineno,
                    col=node.col_offset,
                )
            )

    # -- resolution ---------------------------------------------------------

    def _resolve_chain(
        self, module: ModuleInfo, info: FunctionInfo, chain: List[str]
    ) -> Optional[str]:
        """Resolve a dotted call chain from inside ``info`` to a qname."""
        head, rest = chain[0], chain[1:]
        if rest:
            owner = self._instance_class(module, info, head)
            if owner is not None:
                return self._resolve_member(owner, rest)
        # Nested defs: a bare name may target a sibling/child function in
        # the enclosing def chain, innermost scope first.
        if not rest:
            parts = info.local.split(".")
            for depth in range(len(parts), 0, -1):
                candidate = ".".join(parts[:depth] + [head])
                target = module.functions.get(candidate)
                if target is not None:
                    return target.qname
        bound = module.bindings.get(head)
        if bound is None:
            return None
        located = self._locate(".".join([bound] + rest), frozenset())
        if located is None:
            return None
        target = located[0].functions.get(located[1])
        return target.qname if target else None

    def _locate(
        self, dotted: str, visited: frozenset
    ) -> Optional[Tuple[ModuleInfo, str]]:
        """A dotted absolute path → the module and local name defining
        it, following re-export bindings (``from .engine import
        run_lint`` in an ``__init__``) with a cycle guard."""
        if dotted in visited:
            return None
        for name in sorted(self.modules, key=len, reverse=True):
            if dotted == name:
                return None  # names a module, not a definition
            if not dotted.startswith(name + "."):
                continue
            module = self.modules[name]
            local = dotted[len(name) + 1:]
            if local in module.functions or local in module.classes:
                return module, local
            head, _, tail = local.partition(".")
            bound = module.bindings.get(head)
            if bound is not None:
                onward = f"{bound}.{tail}" if tail else bound
                return self._locate(onward, visited | {dotted})
            return None
        return None

    def _annotated_class(
        self, module: ModuleInfo, annotation: Optional[ast.AST]
    ) -> Optional[Tuple[ModuleInfo, str]]:
        """The indexed class an annotation names (``Cls``, ``mod.Cls``
        or the string form of either), else ``None``."""
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        chain = attr_chain(annotation) if annotation is not None else None
        bound = module.bindings.get(chain[0]) if chain else None
        if bound is None:
            return None
        located = self._locate(".".join([bound] + chain[1:]), frozenset())
        if located is None or located[1] not in located[0].classes:
            return None
        return located

    def _instance_class(
        self, module: ModuleInfo, info: FunctionInfo, name: str
    ) -> Optional[Tuple[ModuleInfo, str]]:
        """The class of ``name`` inside ``info``: the enclosing class for
        ``self``/``cls``, else the annotation of a parameter so named."""
        if name in ("self", "cls") and info.class_name is not None:
            return module, info.class_name
        arguments = getattr(info.node, "args", None)
        if not isinstance(arguments, ast.arguments):
            return None
        for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
            if arg.arg == name:
                return self._annotated_class(module, arg.annotation)
        return None

    def _resolve_member(
        self, owner: Tuple[ModuleInfo, str], attrs: List[str]
    ) -> Optional[str]:
        """``attrs`` walked from an instance of ``owner``: each middle
        attribute through its ``a: Cls`` declaration in the class body,
        the last one as a method of the class reached."""
        module, class_local = owner
        for attr in attrs[:-1]:
            owner = None
            node = module.classes.get(class_local)
            for stmt in node.body if node is not None else ():
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == attr
                ):
                    owner = self._annotated_class(module, stmt.annotation)
            if owner is None:
                return None
            module, class_local = owner
        target = module.functions.get(f"{class_local}.{attrs[-1]}")
        return target.qname if target else None

    # -- queries ------------------------------------------------------------

    def get(self, qname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qname)

    def transitive_callees(self, qname: str) -> List[str]:
        """Every in-tree function reachable from ``qname`` via resolved
        call edges (excluding itself), in sorted order."""
        seen: Set[str] = set()
        frontier = [qname]
        while frontier:
            current = frontier.pop()
            info = self.functions.get(current)
            if info is None:
                continue
            for site in info.calls:
                if site.callee is not None and site.callee not in seen:
                    if site.callee != qname:
                        seen.add(site.callee)
                        frontier.append(site.callee)
        return sorted(seen)


# -- per-root cache ---------------------------------------------------------

_INDEX_CACHE: Dict[Path, Tuple[tuple, ProgramIndex]] = {}


def _tree_files(root: Path) -> List[Tuple[Path, str]]:
    return [
        (path, path.relative_to(root).as_posix())
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]


def program_index_for_root(root: Path) -> ProgramIndex:
    """The (cached) :class:`ProgramIndex` over every ``*.py`` under
    ``root``, rebuilt whenever any file's size or mtime changes."""
    root = Path(root).resolve()
    files = _tree_files(root)
    signature = tuple(
        (scope, stat.st_size, stat.st_mtime_ns)
        for path, scope in files
        for stat in (path.stat(),)
    )
    cached = _INDEX_CACHE.get(root)
    if cached is not None and cached[0] == signature:
        return cached[1]
    index = ProgramIndex.build(files)
    _INDEX_CACHE[root] = (signature, index)
    return index
