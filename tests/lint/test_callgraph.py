"""The call-graph layer: name binding, edge resolution, closures, and
the per-root index cache the stage-fingerprint rule stands on."""

from pathlib import Path

from repro.lint.callgraph import (
    ProgramIndex,
    module_name_for,
    program_index_for_root,
)


def _write_tree(root: Path, files: dict) -> list:
    pairs = []
    for scope, source in files.items():
        path = root / scope
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        pairs.append((path, scope))
    return sorted(pairs, key=lambda pair: pair[1])


class TestModuleNames:
    def test_plain_module(self):
        assert module_name_for("repro/api/stages.py") == "repro.api.stages"

    def test_package_init(self):
        assert module_name_for("repro/lint/__init__.py") == "repro.lint"

    def test_top_level(self):
        assert module_name_for("keys.py") == "keys"


class TestResolution:
    def test_bare_name_and_self_method(self, tmp_path):
        pairs = _write_tree(tmp_path, {
            "mod.py": (
                "def helper():\n"
                "    return 1\n"
                "\n"
                "class Runner:\n"
                "    def go(self):\n"
                "        self.step()\n"
                "        return helper()\n"
                "    def step(self):\n"
                "        pass\n"
            ),
        })
        index = ProgramIndex.build(pairs)
        go = index.get("mod:Runner.go")
        callees = {site.callee for site in go.calls}
        assert callees == {"mod:Runner.step", "mod:helper"}

    def test_relative_import_and_alias(self, tmp_path):
        pairs = _write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/hashing.py": "def stable_hash(obj):\n    return obj\n",
            "pkg/keys.py": (
                "from .hashing import stable_hash as sh\n"
                "\n"
                "def key(spec):\n"
                "    return sh(spec)\n"
            ),
        })
        index = ProgramIndex.build(pairs)
        key = index.get("pkg.keys:key")
        assert [site.callee for site in key.calls] == [
            "pkg.hashing:stable_hash"
        ]

    def test_reexport_through_init(self, tmp_path):
        pairs = _write_tree(tmp_path, {
            "pkg/__init__.py": "from .engine import run\n",
            "pkg/engine.py": "def run():\n    return 0\n",
            "main.py": (
                "import pkg\n"
                "\n"
                "def main():\n"
                "    return pkg.run()\n"
            ),
        })
        index = ProgramIndex.build(pairs)
        main = index.get("main:main")
        assert [site.callee for site in main.calls] == ["pkg.engine:run"]

    def test_annotated_instances_resolve(self, tmp_path):
        """``x.m()`` through a parameter annotated with an indexed class
        (imported, dotted or quoted), and ``self.a.m()`` / ``x.a.m()``
        through an ``a: Cls`` declaration in the class body."""
        pairs = _write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/context.py": (
                "class Context:\n"
                "    def build(self):\n"
                "        return 1\n"
            ),
            "pkg/facade.py": (
                "from .context import Context\n"
                "\n"
                "class Facade:\n"
                "    context: Context\n"
                "    def run(self):\n"
                "        return self.context.build()\n"
            ),
            "pkg/stages.py": (
                "from pkg import facade\n"
                "from .facade import Facade\n"
                "\n"
                "def stage(experiment: Facade, other: 'Facade', third: facade.Facade, plain):\n"
                "    experiment.run()\n"
                "    other.context.build()\n"
                "    third.run()\n"
                "    experiment.missing()\n"
                "    experiment.undeclared.build()\n"
                "    plain.run()\n"
            ),
        })
        index = ProgramIndex.build(pairs)
        assert [site.callee for site in index.get("pkg.facade:Facade.run").calls] == [
            "pkg.context:Context.build"
        ]
        calls = sorted(index.get("pkg.stages:stage").calls, key=lambda site: site.line)
        assert [site.callee for site in calls] == [
            "pkg.facade:Facade.run",
            "pkg.context:Context.build",
            "pkg.facade:Facade.run",
            None,
            None,
            None,
        ]

    def test_unresolvable_calls_are_kept_with_none(self, tmp_path):
        pairs = _write_tree(tmp_path, {
            "mod.py": (
                "import numpy as np\n"
                "\n"
                "def f(x):\n"
                "    return np.sqrt(x)\n"
            ),
        })
        index = ProgramIndex.build(pairs)
        (site,) = index.get("mod:f").calls
        assert site.callee is None
        assert site.raw == "np.sqrt"


class TestClosures:
    def test_transitive_callees(self, tmp_path):
        pairs = _write_tree(tmp_path, {
            "mod.py": (
                "def a():\n    return b()\n"
                "def b():\n    return c()\n"
                "def c():\n    return a()\n"  # cycle must terminate
                "def d():\n    return 0\n"
            ),
        })
        index = ProgramIndex.build(pairs)
        assert index.transitive_callees("mod:a") == ["mod:b", "mod:c"]
        assert index.transitive_callees("mod:d") == []


class TestIndexCache:
    def test_same_tree_returns_cached_index(self, tmp_path):
        _write_tree(tmp_path, {"mod.py": "def f():\n    return 0\n"})
        first = program_index_for_root(tmp_path)
        second = program_index_for_root(tmp_path)
        assert first is second

    def test_edit_invalidates(self, tmp_path):
        target = tmp_path / "mod.py"
        _write_tree(tmp_path, {"mod.py": "def f():\n    return 0\n"})
        first = program_index_for_root(tmp_path)
        target.write_text("def f():\n    return 1\n\ndef g():\n    return 2\n")
        second = program_index_for_root(tmp_path)
        assert second is not first
        assert second.get("mod:g") is not None
