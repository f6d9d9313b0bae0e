"""Lint findings: what a rule reports and how it travels.

A :class:`Finding` is one violation at one source location.  Findings
are plain data — JSON-ready via :meth:`Finding.to_dict` — because they
cross two boundaries: the CLI's ``--format json`` output (whose shape
CI validates) and the test fixtures' exact-match assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "SEVERITIES"]

#: Recognised severities, most severe first.  Every severity causes a
#: non-zero exit — the distinction is for readers and dashboards, not
#: for gating.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is relative to the lint root (posix separators), so
    findings compare equal across machines; ``snippet`` is the stripped
    source line.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    severity: str = field(default="error", compare=False)
    snippet: str = field(default="", compare=False)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; choose from {SEVERITIES}"
            )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def format(self) -> str:
        """One human-readable line (the ``--format text`` row)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )
