"""The lint engine: collect files, run rules, apply inline
suppressions, produce a :class:`LintReport`.

Scope paths are computed relative to the nearest non-package ancestor
(for files inside a package) or the passed directory (for plain trees
like the test fixtures), so rule scopes like ``serve/`` match both
``repro/serve/http.py`` in the real tree and ``serve/bad.py`` in a
fixture tree.  Matching is segment-aware: a scope prefix matches at the
start of the path or at any ``/`` boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .context import load_module
from .findings import Finding
from .rules import LINT_RULES, LintRuleRegistry

__all__ = [
    "LintReport",
    "REPORT_VERSION",
    "collect_files",
    "default_root",
    "run_lint",
]

#: JSON report schema version; bumped whenever a report or finding key
#: is added or removed, so consumers can pin the shape they parse.
REPORT_VERSION = 3


def default_root() -> Path:
    """The repro package itself — what a bare ``repro lint`` scans."""
    return Path(__file__).resolve().parent.parent


def _package_root(directory: Path) -> Path:
    """Walk up while the directory is a package, returning the first
    non-package ancestor (files are scoped relative to it)."""
    current = directory
    while (current / "__init__.py").is_file():
        parent = current.parent
        if parent == current:
            break
        current = parent
    return current


def collect_files(paths: Sequence[Path]) -> List[Tuple[Path, str]]:
    """Expand inputs into sorted (file, scope_path) pairs."""
    collected: List[Tuple[Path, str]] = []
    for path in paths:
        path = Path(path).resolve()
        if path.is_dir():
            root = (
                _package_root(path)
                if (path / "__init__.py").is_file()
                else path
            )
            files = sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.is_file():
            root = _package_root(path.parent)
            files = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for file in files:
            collected.append((file, file.relative_to(root).as_posix()))
    # De-duplicate while keeping deterministic order.
    seen = set()
    unique = []
    for file, scope in sorted(collected, key=lambda pair: pair[1]):
        if file not in seen:
            seen.add(file)
            unique.append((file, scope))
    return unique


@dataclass
class LintReport:
    """Everything one lint run decided, ready for text or JSON."""

    roots: List[str]
    findings: List[Finding] = field(default_factory=list)  # active
    suppressed: List[Tuple[Finding, object]] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "roots": self.roots,
            "rules": [
                {
                    "name": rule.name,
                    "severity": rule.severity,
                    "description": rule.description,
                    "scopes": list(rule.scopes),
                }
                for rule in LINT_RULES.entries()
            ],
            "findings": [f.to_dict() for f in self.findings],
            "counts": {
                "active": len(self.findings),
                "suppressed": len(self.suppressed),
            },
        }

    def format_text(self) -> str:
        lines = [finding.format() for finding in self.findings]
        summary = (
            f"{len(self.findings)} finding"
            f"{'' if len(self.findings) == 1 else 's'}"
            f" ({len(self.suppressed)} suppressed)"
        )
        lines.append(summary)
        return "\n".join(lines)


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    *,
    rule_names: Optional[Sequence[str]] = None,
    registry: LintRuleRegistry = LINT_RULES,
) -> LintReport:
    """Lint ``paths`` (default: the installed repro package).

    ``rule_names`` restricts to a subset (unknown names raise
    ``ValueError``).  A finding is excused only by a justified inline
    ``# repro: allow(<rule>): <why>`` pragma covering its line.
    """
    scan_paths = [Path(p) for p in (paths or [default_root()])]
    if rule_names:
        rules = [registry.get(name) for name in rule_names]
    else:
        rules = registry.entries()
    known = tuple(registry.names())

    findings: List[Finding] = []
    suppressed: List[Tuple[Finding, object]] = []
    for file, scope in collect_files(scan_paths):
        try:
            module = load_module(file, scope, known)
        except SyntaxError as exc:
            findings.append(Finding(
                path=scope,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="parse",
                message=f"file does not parse: {exc.msg}",
                severity="error",
                snippet=(exc.text or "").strip(),
            ))
            continue
        for rule in rules:
            if not rule.applies_to(scope):
                continue
            for finding in rule.check(module):
                excuse = module.is_suppressed(finding)
                if excuse is not None:
                    suppressed.append((finding, excuse))
                else:
                    findings.append(finding)
    return LintReport(
        roots=[str(p) for p in scan_paths],
        findings=list(dict.fromkeys(sorted(findings))),
        suppressed=suppressed,
    )
