"""Per-file lint context shared by every rule.

A :class:`SourceModule` is parsed once (source, AST, pragma comments)
and handed to each rule, so N rules cost one parse.  It also owns the
two pieces of pragma-derived geometry rules care about: which lines are
inside a ``# repro: hot`` region, and which findings are excused by a
justified ``# repro: allow(...)`` comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .findings import Finding
from .pragmas import HotRegion, PragmaError, Suppression, parse_pragmas

__all__ = ["SourceModule", "load_module"]


@dataclass
class SourceModule:
    """One parsed python file under lint."""

    path: Path  # absolute path on disk
    scope_path: str  # posix path relative to the lint root ("serve/http.py")
    source: str
    tree: ast.Module
    lines: list = field(default_factory=list)
    suppressions: list = field(default_factory=list)
    hot_regions: list = field(default_factory=list)
    pragma_errors: list = field(default_factory=list)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    @property
    def root(self) -> Path:
        """The lint root this module was collected under — the absolute
        path minus the scope path.  Whole-program rules index every file
        under it, regardless of which files were selected for linting."""
        depth = len(Path(self.scope_path).parts)
        return self.path.parents[depth - 1]

    def finding(
        self,
        node,
        rule: str,
        message: str,
        severity: str = "error",
    ) -> Finding:
        """Build a finding anchored at ``node`` (or a (line, col) pair)."""
        if isinstance(node, tuple):
            line, col = node
        else:
            line, col = node.lineno, node.col_offset
        return Finding(
            path=self.scope_path,
            line=line,
            col=col,
            rule=rule,
            message=message,
            severity=severity,
            snippet=self.line_text(line),
        )

    def in_hot_region(self, line: int) -> bool:
        return any(region.covers(line) for region in self.hot_regions)

    def is_suppressed(self, finding: Finding):
        """The suppression excusing ``finding``, or None."""
        for suppression in self.suppressions:
            if suppression.rule == finding.rule and suppression.covers(
                finding.line
            ):
                return suppression
        return None


def load_module(
    path: Path, scope_path: str, known_rules: tuple
) -> SourceModule:
    """Parse ``path`` into a :class:`SourceModule`.

    Raises :class:`SyntaxError` if the file does not parse; the engine
    converts that into a ``parse`` finding rather than crashing the run.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    suppressions, hot_regions, pragma_errors = parse_pragmas(
        source, tree, known_rules
    )
    return SourceModule(
        path=path,
        scope_path=scope_path,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        suppressions=list(suppressions),
        hot_regions=list(hot_regions),
        pragma_errors=list(pragma_errors),
    )
