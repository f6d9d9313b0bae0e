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
* **transitive closures** over those edges, for callee-set fingerprints.

Resolution is name-based and conservative: calls through instances,
dynamic dispatch, or external libraries resolve to ``None`` and simply
end the analysis there — the same trade the per-file rules make (high
signal, zero imports executed).

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
        if (
            len(chain) == 2
            and chain[0] in ("self", "cls")
            and info.class_name is not None
        ):
            local = f"{info.class_name}.{chain[1]}"
            target = module.functions.get(local)
            return target.qname if target else None
        head, rest = chain[0], chain[1:]
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
        dotted = ".".join([bound] + rest)
        return self._resolve_symbol(dotted, frozenset())

    def _resolve_symbol(
        self, dotted: str, visited: frozenset
    ) -> Optional[str]:
        """A dotted absolute path → the qname it names, following
        re-export bindings (``from .engine import run_lint`` in an
        ``__init__``) with a cycle guard."""
        if dotted in visited:
            return None
        for name in sorted(self.modules, key=len, reverse=True):
            if dotted == name:
                return None  # names a module, not a function
            if not dotted.startswith(name + "."):
                continue
            local = dotted[len(name) + 1:]
            target = self.modules[name].functions.get(local)
            if target is not None:
                return target.qname
            head, _, tail = local.partition(".")
            bound = self.modules[name].bindings.get(head)
            if bound is not None:
                onward = f"{bound}.{tail}" if tail else bound
                return self._resolve_symbol(onward, visited | {dotted})
            return None
        return None

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
