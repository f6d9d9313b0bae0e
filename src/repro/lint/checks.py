"""The built-in lint rules.

Each rule encodes one repo convention that is otherwise enforced only
dynamically (golden gates, bit-identity tests) or not at all:

- ``determinism``: seeded ``np.random.Generator``/``SeedSequence`` are
  the only sanctioned randomness, and ``repro.utils.clock`` the only
  sanctioned wall-clock read, in code that feeds cache keys or traces.
- ``stage-purity``: registered stage bodies must be pure functions of
  their spec + store (that is what makes cache keys sound).
- ``hot-loop-alloc``: regions marked ``# repro: hot`` must not allocate
  per call — the PR 5 fused kernels and pooled scratch buffers exist
  precisely to avoid that.
- ``async-blocking``: nothing in a ``serve/`` coroutine may block the
  event loop.
- ``lock-discipline``: attributes written both from a thread entry
  point and from other methods in ``serve/``/``obs/`` must be written
  under a lock.
- ``pragma``: malformed ``# repro:`` comments are findings themselves,
  so a typo cannot silently disable a check.

All checks are name-based AST analysis: no imports are executed and no
type information exists, so the rules aim for high-signal conventions
(``np.random.seed``, ``time.time``, ``self._lock``) rather than full
alias analysis.  That is the right trade for a lint gate: cheap, zero
dependencies, and wrong rarely enough that ``allow()`` justifications
stay meaningful.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .callgraph import attr_chain, own_nodes
from .context import SourceModule
from .findings import Finding
from .rules import register_rule

__all__ = []  # rules register themselves; nothing to import by name

_NP_ROOTS = {"np", "numpy"}


def _call_chain(call: ast.Call) -> Optional[List[str]]:
    return attr_chain(call.func)


def _functions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

_NP_RANDOM_STATEFUL = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "bytes", "uniform", "normal", "standard_normal", "choice",
    "shuffle", "permutation", "get_state", "set_state",
}
_TIME_BANNED = {"time", "time_ns"}
_DATETIME_BANNED = {"now", "utcnow", "today"}
_KEY_FUNC_SUFFIX = "_key"

_DETERMINISM_SCOPES = (
    "analysis/", "api/", "core/", "datasets/", "extensions/",
    "netsim/", "nn/", "obs/", "runtime/", "testing/", "utils/", "lint/",
)


@register_rule(
    "determinism",
    severity="error",
    description=(
        "no module-level np.random state, stdlib random, or raw wall-clock "
        "reads in stage/kernel/netsim code; use RngFactory/SeedSequence and "
        "repro.utils.clock"
    ),
    scopes=_DETERMINISM_SCOPES,
)
def check_determinism(module: SourceModule) -> List[Finding]:
    findings = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    findings.append(module.finding(
                        node, "determinism",
                        "stdlib `random` is process-global state; draw from a "
                        "seeded np.random.Generator (SeedSequence-spawned) instead",
                    ))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                findings.append(module.finding(
                    node, "determinism",
                    "stdlib `random` is process-global state; draw from a "
                    "seeded np.random.Generator (SeedSequence-spawned) instead",
                ))
        elif isinstance(node, ast.Call):
            chain = _call_chain(node)
            if not chain:
                continue
            if len(chain) == 2 and chain[0] == "random":
                findings.append(module.finding(
                    node, "determinism",
                    f"`random.{chain[1]}()` uses the process-global RNG; use a "
                    "seeded np.random.Generator",
                ))
            elif (
                len(chain) == 3
                and chain[0] in _NP_ROOTS
                and chain[1] == "random"
                and chain[2] in _NP_RANDOM_STATEFUL
            ):
                findings.append(module.finding(
                    node, "determinism",
                    f"`np.random.{chain[2]}()` mutates/reads numpy's global RNG "
                    "state; use np.random.default_rng / SeedSequence spawning",
                ))
            elif (
                len(chain) == 2
                and chain[0] == "time"
                and chain[1] in _TIME_BANNED
            ):
                findings.append(module.finding(
                    node, "determinism",
                    "`time.time()` reads the wall clock; durations use "
                    "time.perf_counter(), timestamp metadata goes through "
                    "repro.utils.clock.wall_time_unix()",
                ))
            elif (
                len(chain) >= 2
                and chain[-1] in _DATETIME_BANNED
                and ("datetime" in chain[:-1] or "date" in chain[:-1])
            ):
                findings.append(module.finding(
                    node, "determinism",
                    f"`{'.'.join(chain)}()` reads the wall clock; timestamp "
                    "metadata goes through repro.utils.clock.utc_now_iso()",
                ))
            elif chain[-1] == "stable_hash" or chain[-1].endswith(_KEY_FUNC_SUFFIX):
                findings.extend(_set_order_in_key_args(module, node))
    return findings


def _set_order_in_key_args(module: SourceModule, call: ast.Call) -> List[Finding]:
    """Sets feeding a key/hash function: iteration order is salted per
    process, so the same logical inputs can hash differently.  A set
    wrapped in ``sorted(...)`` is order-neutralized and sanctioned."""
    findings = []

    def visit(node: ast.AST) -> None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        ):
            return  # sorted() erases iteration order; its subtree is fine
        is_set_node = isinstance(node, (ast.Set, ast.SetComp))
        is_set_call = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )
        if is_set_node or is_set_call:
            chain = _call_chain(call) or ["<key>"]
            findings.append(module.finding(
                node, "determinism",
                f"set iteration order feeds `{chain[-1]}(...)`; sort it "
                "first so the key is byte-stable across processes",
            ))
        for child in ast.iter_child_nodes(node):
            visit(child)

    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        visit(arg)
    return findings


# ---------------------------------------------------------------------------
# stage-purity
# ---------------------------------------------------------------------------

_OS_FS_MUTATING = {
    "remove", "unlink", "rename", "replace", "mkdir", "makedirs", "rmdir",
    "removedirs", "symlink", "link", "chmod", "truncate", "putenv", "unsetenv",
}
_PATH_RW_METHODS = {
    "write_text", "write_bytes", "read_text", "read_bytes", "mkdir",
    "unlink", "touch", "rename", "replace", "symlink_to",
}
_MUTATOR_METHODS = {
    "append", "add", "update", "setdefault", "pop", "popitem", "clear",
    "extend", "insert", "remove", "discard", "write",
}


def _is_stage_registration(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    if isinstance(func, ast.Name):
        return func.id == "register_stage"
    if isinstance(func, ast.Attribute):
        return func.attr in ("register_stage", "register")
    return False


def _module_level_names(tree: ast.Module) -> set:
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _chain_touches_store(chain: List[str]) -> bool:
    return any("store" in part.lower() for part in chain)


@register_rule(
    "stage-purity",
    severity="error",
    description=(
        "registered stage bodies must be pure functions of spec + store: "
        "no os.environ, no module-global mutation, no filesystem access "
        "outside the ArtifactStore"
    ),
)
def check_stage_purity(module: SourceModule) -> List[Finding]:
    findings = []
    module_names = _module_level_names(module.tree)
    for fn in _functions(module.tree):
        if not any(_is_stage_registration(d) for d in fn.decorator_list):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "environ":
                chain = attr_chain(node)
                if chain and chain[0] == "os":
                    findings.append(module.finding(
                        node, "stage-purity",
                        "stage bodies must not read os.environ — environment "
                        "state is invisible to the cache key; thread it "
                        "through the spec instead",
                    ))
            elif isinstance(node, ast.Global):
                findings.append(module.finding(
                    node, "stage-purity",
                    "stage bodies must not rebind module globals; results "
                    "flow through the ArtifactStore",
                ))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    root = target
                    while isinstance(root, (ast.Subscript, ast.Attribute)):
                        root = root.value
                    if (
                        isinstance(root, ast.Name)
                        and root.id in module_names
                        and root is not target
                    ):
                        findings.append(module.finding(
                            node, "stage-purity",
                            f"stage body mutates module-level `{root.id}`; "
                            "stages must be pure so cached reruns are "
                            "indistinguishable from fresh ones",
                        ))
            elif isinstance(node, ast.Call):
                findings.extend(_stage_fs_call(module, node))
    return findings


def _stage_fs_call(module: SourceModule, call: ast.Call) -> List[Finding]:
    chain = _call_chain(call)
    if chain is None:
        return []
    if chain == ["open"]:
        return [module.finding(
            call, "stage-purity",
            "stage bodies must not open files directly; read/write through "
            "the ArtifactStore so outputs are content-addressed",
        )]
    if _chain_touches_store(chain):
        return []
    if chain[0] == "os" and chain[-1] in _OS_FS_MUTATING:
        return [module.finding(
            call, "stage-purity",
            f"`{'.'.join(chain)}()` touches the filesystem outside the "
            "ArtifactStore",
        )]
    if chain[0] == "shutil":
        return [module.finding(
            call, "stage-purity",
            f"`{'.'.join(chain)}()` touches the filesystem outside the "
            "ArtifactStore",
        )]
    if len(chain) >= 2 and chain[-1] in _PATH_RW_METHODS:
        return [module.finding(
            call, "stage-purity",
            f"`.{chain[-1]}()` reads/writes a path outside the ArtifactStore",
        )]
    return []


# ---------------------------------------------------------------------------
# hot-loop-alloc
# ---------------------------------------------------------------------------

_NP_ALLOCATORS = {
    "empty", "zeros", "ones", "full", "empty_like", "zeros_like",
    "ones_like", "full_like", "array", "asarray", "ascontiguousarray",
    "copy", "concatenate", "stack", "vstack", "hstack", "dstack",
    "column_stack", "tile", "repeat", "arange", "linspace", "logspace",
    "eye", "identity", "outer", "pad", "diff", "cumsum", "cumprod",
    "sort", "argsort", "unique",
}
_NP_UFUNCS_WANT_OUT = {
    "add", "subtract", "multiply", "divide", "true_divide", "floor_divide",
    "power", "mod", "remainder", "sqrt", "exp", "log", "log1p", "expm1",
    "tanh", "sinh", "cosh", "sin", "cos", "abs", "absolute", "square",
    "negative", "reciprocal", "maximum", "minimum", "clip", "matmul", "dot",
    "where",
}
#: Attribute tails that are ndarrays by repo convention (Parameter.data /
#: Parameter.grad hold the training tensors).
_ARRAY_ATTR_TAILS = {"data", "grad"}
_ARRAY_METHOD_TAILS = {"copy", "astype", "reshape", "ravel", "view", "transpose"}


def _annotation_is_array(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:
        return False
    return "ndarray" in text


def _scope_array_names(scope: ast.AST) -> set:
    """Names bound to arrays within ``scope``, by forward syntactic
    inference (annotations, np.* results, scratch buffers, aliases)."""
    names: set = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if _annotation_is_array(arg.annotation):
                names.add(arg.arg)

    def produces_array(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.Attribute):
            chain = attr_chain(expr)
            return bool(chain) and chain[-1] in _ARRAY_ATTR_TAILS
        if isinstance(expr, ast.Subscript):
            return produces_array(expr.value)
        if isinstance(expr, ast.BinOp):
            return produces_array(expr.left) or produces_array(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return produces_array(expr.operand)
        if isinstance(expr, ast.Call):
            chain = _call_chain(expr)
            if not chain:
                return False
            if chain[0] in _NP_ROOTS:
                return True
            if "scratch" in chain[-1]:
                return True
            if chain[-1] in _ARRAY_METHOD_TAILS and len(chain) >= 2:
                return chain[0] in names or chain[0] == "self"
            return False
        return False

    # Two passes so aliases of later-assigned arrays still resolve.
    for _ in range(2):
        for node in own_nodes(scope):
            if isinstance(node, ast.Assign) and produces_array(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _annotation_is_array(node.annotation) or (
                    node.value is not None and produces_array(node.value)
                ):
                    names.add(node.target.id)
    return names


def _binop_has_array_leaf(expr: ast.expr, names: set) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
        if isinstance(sub, ast.Attribute):
            chain = attr_chain(sub)
            if chain and chain[-1] in _ARRAY_ATTR_TAILS:
                return True
    return False


@register_rule(
    "hot-loop-alloc",
    severity="warning",
    description=(
        "no fresh-array numpy calls, missing out=, or operator-form array "
        "temporaries inside `# repro: hot` regions; use the fastpath "
        "scratch pools and out= kernels"
    ),
)
def check_hot_loop_alloc(module: SourceModule) -> List[Finding]:
    if not module.hot_regions:
        return []
    findings = []
    scopes = [module.tree] + list(_functions(module.tree))
    for scope in scopes:
        scope_line = getattr(scope, "lineno", 1)
        scope_end = getattr(scope, "end_lineno", len(module.lines))
        if not any(
            module.in_hot_region(ln)
            for ln in (scope_line, scope_end)
        ) and not module.in_hot_region((scope_line + scope_end) // 2):
            continue
        names = _scope_array_names(scope)
        for node in own_nodes(scope):
            lineno = getattr(node, "lineno", None)
            if lineno is None or not module.in_hot_region(lineno):
                continue
            if isinstance(node, ast.Call):
                chain = _call_chain(node)
                if not chain or chain[0] not in _NP_ROOTS or len(chain) != 2:
                    continue
                if chain[1] in _NP_ALLOCATORS:
                    findings.append(module.finding(
                        node, "hot-loop-alloc",
                        f"`np.{chain[1]}(...)` allocates a fresh array in a "
                        "hot region; reuse a fastpath scratch buffer",
                        severity="warning",
                    ))
                elif chain[1] in _NP_UFUNCS_WANT_OUT and not any(
                    kw.arg == "out" for kw in node.keywords
                ):
                    findings.append(module.finding(
                        node, "hot-loop-alloc",
                        f"`np.{chain[1]}(...)` without out= allocates its "
                        "result in a hot region; pass out=<scratch>",
                        severity="warning",
                    ))
            elif isinstance(node, (ast.Assign, ast.Return)):
                value = node.value
                if isinstance(value, ast.BinOp) and _binop_has_array_leaf(
                    value, names
                ):
                    findings.append(module.finding(
                        node, "hot-loop-alloc",
                        "operator-form array arithmetic creates temporaries "
                        "in a hot region; use the out= ufunc forms",
                        severity="warning",
                    ))
    return findings


# ---------------------------------------------------------------------------
# async-blocking
# ---------------------------------------------------------------------------

_BLOCKING_ROOTS = {"socket", "urllib", "requests", "subprocess"}
_OS_BLOCKING = _OS_FS_MUTATING | {"read", "write", "popen", "system"}
_PATH_BLOCKING = {"read_text", "read_bytes", "write_text", "write_bytes"}


@register_rule(
    "async-blocking",
    severity="error",
    description=(
        "no synchronous sleep/file/socket calls inside async def in serve/; "
        "use asyncio primitives or run_in_executor"
    ),
    scopes=("serve/",),
)
def check_async_blocking(module: SourceModule) -> List[Finding]:
    findings = []
    for fn in _functions(module.tree):
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        for node in own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = _call_chain(node)
            if chain is None:
                continue
            dotted = ".".join(chain)
            if chain == ["time", "sleep"]:
                findings.append(module.finding(
                    node, "async-blocking",
                    "time.sleep() blocks the event loop; use "
                    "`await asyncio.sleep(...)`",
                ))
            elif chain == ["open"]:
                findings.append(module.finding(
                    node, "async-blocking",
                    "open() blocks the event loop; do file IO in "
                    "run_in_executor or before entering the coroutine",
                ))
            elif chain[0] in _BLOCKING_ROOTS:
                findings.append(module.finding(
                    node, "async-blocking",
                    f"`{dotted}()` is synchronous IO inside async def; use "
                    "asyncio streams or run_in_executor",
                ))
            elif chain[0] == "os" and chain[-1] in _OS_BLOCKING:
                findings.append(module.finding(
                    node, "async-blocking",
                    f"`{dotted}()` is synchronous IO inside async def; use "
                    "asyncio primitives or run_in_executor",
                ))
            elif len(chain) >= 2 and chain[-1] in _PATH_BLOCKING:
                findings.append(module.finding(
                    node, "async-blocking",
                    f"`.{chain[-1]}()` is synchronous file IO inside async "
                    "def; use run_in_executor",
                ))
    return findings


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------


def _thread_entry_targets(cls: ast.ClassDef) -> set:
    """Method names handed to another thread: Thread(target=self.X),
    executor.submit(self.X, ...), loop.run_in_executor(_, self.X, ...),
    asyncio.to_thread(self.X, ...), call_soon_threadsafe(self.X, ...)."""
    entries = set()

    def self_method(expr: ast.expr) -> Optional[str]:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    for node in ast.walk(cls):
        if not isinstance(node, ast.Call):
            continue
        chain = _call_chain(node)
        if chain is None:
            continue
        tail = chain[-1]
        if tail == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    method = self_method(kw.value)
                    if method:
                        entries.add(method)
        elif tail in ("submit", "to_thread", "call_soon_threadsafe"):
            if node.args:
                method = self_method(node.args[0])
                if method:
                    entries.add(method)
        elif tail == "run_in_executor":
            if len(node.args) >= 2:
                method = self_method(node.args[1])
                if method:
                    entries.add(method)
    return entries


def _lock_guarded_ranges(fn: ast.AST) -> List:
    """(start, end) line ranges inside `with <something named *lock*>:`."""
    ranges = []
    for node in ast.walk(fn):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            chain = attr_chain(expr)
            if chain and any("lock" in part.lower() for part in chain):
                ranges.append((node.lineno, node.end_lineno or node.lineno))
                break
    return ranges


def _self_call_lines(method: ast.AST) -> List:
    """(callee method name, call line) for every ``self.x(...)`` /
    ``cls.x(...)`` call in ``method``'s own body."""
    calls = []
    for node in own_nodes(method):
        if not isinstance(node, ast.Call):
            continue
        chain = _call_chain(node)
        if chain and len(chain) == 2 and chain[0] in ("self", "cls"):
            calls.append((chain[1], node.lineno))
    return calls


def _entry_reachable(entries: set, calls_by_method: dict) -> set:
    """Methods reachable from a thread entry point through ``self.x()``
    call edges — every one of them runs on the spawned thread."""
    reachable = set(entries)
    frontier = list(entries)
    while frontier:
        current = frontier.pop()
        for callee, _ in calls_by_method.get(current, []):
            if callee not in reachable:
                reachable.add(callee)
                frontier.append(callee)
    return reachable


def _guard_covered(
    methods: dict, calls_by_method: dict, guarded_ranges: dict, entries: set
) -> set:
    """Methods whose *every* in-class call site holds the lock, directly
    (the call is inside ``with ...lock:``) or transitively (the caller
    is itself guard-covered).  A write in such a method is effectively
    guarded even though the ``with`` block lives one frame up."""
    sites: dict = {}
    for caller, calls in calls_by_method.items():
        for callee, line in calls:
            if callee in methods:
                sites.setdefault(callee, []).append((caller, line))
    covered = set()
    for _ in range(len(methods) + 1):
        next_covered = set()
        for name in methods:
            if name in entries or not sites.get(name):
                continue  # entry points and never-called methods run bare
            if all(
                any(
                    start <= line <= end
                    for start, end in guarded_ranges.get(caller, [])
                )
                or (caller in covered and caller != name)
                for caller, line in sites[name]
            ):
                next_covered.add(name)
        if next_covered == covered:
            break
        covered = next_covered
    return covered


@register_rule(
    "lock-discipline",
    severity="error",
    description=(
        "attributes written from both the thread-entry call graph and "
        "other methods in serve//obs//runtime/ must be written under a "
        "lock, including writes in helpers reached from the entry point"
    ),
    scopes=("serve/", "obs/", "runtime/"),
)
def check_lock_discipline(module: SourceModule) -> List[Finding]:
    findings = []
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        entries = _thread_entry_targets(cls)
        if not entries:
            continue
        methods = {
            node.name: node
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        calls_by_method = {
            name: _self_call_lines(method) for name, method in methods.items()
        }
        guarded_ranges = {
            name: _lock_guarded_ranges(method)
            for name, method in methods.items()
        }
        thread_side = _entry_reachable(entries, calls_by_method)
        covered = _guard_covered(
            methods, calls_by_method, guarded_ranges, entries
        )
        # attr -> method name -> list of (node, guarded)
        writes: dict = {}
        for name, method in methods.items():
            if name == "__init__":
                continue  # runs before any thread is spawned
            for node in own_nodes(method):
                if not isinstance(node, (ast.Assign, ast.AugAssign)):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        guarded = any(
                            start <= node.lineno <= end
                            for start, end in guarded_ranges.get(name, [])
                        ) or name in covered
                        writes.setdefault(target.attr, {}).setdefault(
                            name, []
                        ).append((node, guarded))
        for attr, by_method in writes.items():
            from_entry = sorted(m for m in by_method if m in thread_side)
            from_other = sorted(m for m in by_method if m not in thread_side)
            if not from_entry or not from_other:
                continue
            for method_name, sites in sorted(by_method.items()):
                for node, guarded in sites:
                    if guarded:
                        continue
                    via = (
                        ""
                        if method_name in entries
                        or method_name not in thread_side
                        else (
                            " (reached from the entry point through "
                            "self-calls)"
                        )
                    )
                    findings.append(module.finding(
                        node, "lock-discipline",
                        f"`self.{attr}` is written from thread entry point "
                        f"`{'/'.join(from_entry)}` and from "
                        f"`{'/'.join(from_other)}`; this write in "
                        f"`{method_name}`{via} must hold a lock",
                    ))
    return findings


# ---------------------------------------------------------------------------
# pragma + parse
# ---------------------------------------------------------------------------


@register_rule(
    "pragma",
    severity="error",
    description=(
        "malformed `# repro:` comments (unknown verb/rule, or allow() "
        "without the required justification) are findings themselves"
    ),
)
def check_pragma(module: SourceModule) -> List[Finding]:
    return [
        module.finding((err.line, err.col), "pragma", err.message)
        for err in module.pragma_errors
    ]


@register_rule(
    "parse",
    severity="error",
    description="files under lint must parse with ast; emitted by the engine "
    "on SyntaxError",
)
def check_parse(module: SourceModule) -> List[Finding]:
    return []  # the engine emits parse findings before rules run
